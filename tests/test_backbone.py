import numpy as np
import pytest

from restuner.backbone import (
    BackboneConfig,
    ConfigError,
    build_backbone,
    patchify,
    trainable_parameters,
    unfreeze_backbone,
)
from restuner.tensor import Tensor
from restuner.tuners import AttachSpec, attach

TOY = BackboneConfig(dim=16, depth=2, heads=2, patch=4, image_size=8,
                     in_channels=1, num_classes=4, seed=0)


def test_config_validation():
    with pytest.raises(ConfigError):
        BackboneConfig(dim=15, heads=2)
    with pytest.raises(ConfigError):
        BackboneConfig(image_size=10, patch=4)
    with pytest.raises(ConfigError):
        BackboneConfig(depth=0)


def test_build_deterministic():
    a = build_backbone(TOY)
    b = build_backbone(TOY)
    for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert na == nb
        assert np.array_equal(pa.data, pb.data), na


def test_trainable_set_is_head_only():
    m = build_backbone(BackboneConfig(dim=8, depth=2, heads=2, patch=4, image_size=8,
                                      in_channels=1, num_classes=3, seed=0))
    names = [n for n, _ in trainable_parameters(m)]
    assert names == ["head.W", "head.b"]
    assert sum(p.data.size for _, p in trainable_parameters(m)) == 27


def test_patchify_row_major():
    imgs = np.arange(16.0).reshape(1, 1, 4, 4)
    patches = patchify(imgs, 2)
    assert patches.shape == (1, 4, 4)
    assert patches[0, 0].tolist() == [0.0, 1.0, 4.0, 5.0]
    assert patches[0, 3].tolist() == [10.0, 11.0, 14.0, 15.0]


def test_forward_batch_independence():
    m = build_backbone(TOY)
    rng = np.random.default_rng(1)
    img = rng.normal(size=(1, 1, 8, 8))
    doubled = np.concatenate([img, img], axis=0)
    logits = m(Tensor(doubled)).data
    assert np.array_equal(logits[0], logits[1])


def test_forward_batch_permutation():
    m = build_backbone(TOY)
    rng = np.random.default_rng(2)
    imgs = rng.normal(size=(4, 1, 8, 8))
    perm = np.array([2, 0, 3, 1])
    assert np.array_equal(m(Tensor(imgs)).data[perm], m(Tensor(imgs[perm])).data)


def test_forward_repeat_bit_identical():
    m = build_backbone(TOY)
    x = Tensor(np.random.default_rng(3).normal(size=(2, 1, 8, 8)))
    assert np.array_equal(m(x).data, m(x).data)


def test_fresh_tuners_do_not_change_forward():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(2, 1, 8, 8)))
    plain = build_backbone(TOY)
    tuned = build_backbone(TOY)
    attach(tuned, [
        AttachSpec(0, "mha", "res_attn", {"rank": 2, "heads": 2}),
        AttachSpec(0, "ffn", "adapter"),
        AttachSpec(1, "mha", "prefix"),
        AttachSpec(1, "ffn", "prompt"),
        AttachSpec(1, "block", "res_attn"),
    ])
    assert np.array_equal(plain(x).data, tuned(x).data)


def test_trained_tuner_delta_equals_tuner_forward():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(2, 1, 8, 8)))
    plain = build_backbone(TOY)
    tuned = build_backbone(TOY)
    attach(tuned, [AttachSpec(1, "block", "res_attn", {"rank": 2, "heads": 2})])
    tuner = tuned.tuners[(1, "block")]
    tuner.o.W.data[...] = rng.normal(size=tuner.o.W.data.shape) * 0.1

    # block tuner taps the raw block input and adds to the block output,
    # so its standalone forward on that input is the end-to-end delta
    # before the final norm; compare through a re-run of the tail instead
    import restuner.backbone as bb

    def run_blocks(model, with_delta):
        data = x.data
        patches = Tensor(bb.patchify(data, TOY.patch))
        h = model.patch_embed(patches)
        from restuner.tensor import broadcast_to, concat

        cls = broadcast_to(model.cls_token, (2, 1, TOY.dim))
        h = concat([cls, h], axis=1)
        h = h + Tensor(model.pos[None, :, :])
        h = bb.block_forward(model, 0, h)
        block_in = h
        h = bb.block_forward(model, 1, h)
        return block_in, h

    block_in_plain, out_plain = run_blocks(plain, False)
    _, out_tuned = run_blocks(tuned, True)
    delta = tuner(block_in_plain).data
    assert np.abs((out_tuned.data - out_plain.data) - delta).max() < 1e-12


def test_bad_image_shape_raises():
    from restuner.tensor import ShapeError

    m = build_backbone(TOY)
    with pytest.raises(ShapeError):
        m(Tensor(np.zeros((1, 1, 9, 9))))


@pytest.mark.slow
def test_vitb_total_param_count_near_published():
    cfg = BackboneConfig(dim=768, depth=12, heads=12, patch=16, image_size=224,
                         in_channels=3, num_classes=100, seed=0)
    m = build_backbone(cfg)
    total = sum(p.data.size for p in m.parameters())  # fixed position table excluded
    assert abs(total - 85.84e6) / 85.84e6 < 0.02


def test_backbone_built_frozen_without_grad_buffers():
    m = build_backbone(TOY)
    for name, p in m.named_parameters():
        assert p.requires_grad == name.startswith("head.") and p.grad is None, name
    unfreeze_backbone(m)
    for name, p in m.named_parameters():
        assert p.requires_grad and p.grad is None, name


def test_initial_values_pinned():
    # building frozen draws the same numbers in the same order as before
    import hashlib

    h = hashlib.sha256()
    for name, p in build_backbone(TOY).named_parameters():
        h.update(name.encode())
        h.update(p.data.tobytes())
    assert h.hexdigest() == "b60e32466ef4a4740274517cee01297976432eb28a1d6abaa28b1729396e8161"
