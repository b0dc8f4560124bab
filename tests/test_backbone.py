import contextlib
import gc
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from primitives import reference_block_forward, reference_model_forward, reference_positions
from restuner import backbone
from restuner.backbone import (
    HEAD_ROWS,
    BackboneConfig,
    ConfigError,
    build_backbone,
    patchify,
    sinusoidal_positions,
    trainable_parameters,
)
from restuner.layers import INIT_STD, MLP
from restuner.tensor import Tensor, is_grad_enabled, no_grad, rel_error
from restuner.data_io import Dataset
from restuner.training import TrainConfig, _train_step, cross_entropy, evaluate, make_optimizer
from restuner.tuners import ATTACH_OPS, TUNER_KINDS, TUNERS, AttachSpec, attach

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
    """The block tuner taps the raw block input and adds to the block
    output, so on block 1's input from ``features()`` its standalone
    forward is the tuned block's delta over the frozen block, at the
    ``HEAD_ROWS`` rows the last block returns."""
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(2, 1, 8, 8)))
    plain = build_backbone(TOY)
    tuned = build_backbone(TOY)
    attach(tuned, [AttachSpec(1, "block", "res_attn", {"rank": 2, "heads": 2})])
    tuner = tuned.tuners[(1, "block")]
    tuner.o.W.data[...] = rng.normal(size=tuner.o.W.data.shape) * 0.1

    block_in = plain.features(x)[0][1]["block"]
    out_plain = backbone.block_forward(plain, 1, {"block": block_in})
    out_tuned = backbone.block_forward(tuned, 1, {"block": block_in})
    delta = tuner(block_in).data
    assert np.abs((out_tuned.data - out_plain.data) - delta[:, :HEAD_ROWS]).max() < 1e-12


@pytest.mark.parametrize("call", ["forward", "features"])
def test_bad_image_shape_raises(call):
    from restuner.tensor import ShapeError

    m = build_backbone(TOY)
    with pytest.raises(ShapeError):
        getattr(m, "__call__" if call == "forward" else call)(Tensor(np.zeros((1, 1, 9, 9))))


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
    for p in m.parameters():
        p.requires_grad = True
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


def _vit_tiny_res_attn():
    """The benchmark's train-vit model, vit-tiny-32px with res_attn r4h2 on
    every MHA, and one B=1 image."""
    cfg = BackboneConfig(dim=192, depth=12, heads=3, patch=4, image_size=32,
                         in_channels=3, num_classes=10, seed=0)
    m = build_backbone(cfg)
    attach(m, [AttachSpec(b, "mha", "res_attn", {"rank": 4, "heads": 2}) for b in range(12)])
    return m, np.random.default_rng(0).normal(size=(1, 3, 32, 32))


def test_vit_tiny_res_attn_step_records_157_nodes():
    """The benchmark's train-vit step. Each attention is one node over its
    fused QKV projection (the split-and-merge head chain recorded 328), and
    each GELU is its fc1's epilogue (a GELU node each made it 167). Beside
    the head's class row, two ``getitem`` nodes cut the last block's
    ``norm2`` output and residual stream to ``HEAD_ROWS`` rows (155 nodes
    when a recorded forward kept every row)."""
    m, images = _vit_tiny_res_attn()
    loss = cross_entropy(m(Tensor(images)), np.array([3]))
    assert sum(_recorded_ops(loss).values()) == 157
    assert _recorded_ops(loss) == {"linear": 71, "add": 35, "layer_norm": 24, "attention": 23,
                                   "getitem": 3, "cross_entropy": 1}


def test_vit_tiny_forward_graph_holds_only_saved_arrays():
    """The train-vit step's graph keeps the arrays its backward passes read,
    not its op outputs, and each GELU keeps only its derivative: 13.0 MiB.
    The 16 MiB bound fails a graph that keeps each GELU's input and Phi(x)
    (17.2 MiB) or every recorded output's array (over 30 MiB)."""
    m, images = _vit_tiny_res_attn()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = cross_entropy(m(Tensor(images)), np.array([3]))
        forward = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert forward - base <= 16 * (1 << 20), forward - base
    assert all(t.data.size == 0 for t in _graph(loss)[1:] if t._backward is not None)


def test_vit_tiny_backward_keeps_grads_only_on_leaves():
    """Backward releases each op output's grad once its op has used it, so
    the train-vit step's memory stays its forward graph: backward's traced
    peak above the forward is the grads in flight, 12% of the forward's
    bytes (1.5 MiB over a 13.0 MiB graph). The 15% bound fails a backward
    whose op outputs keep their grads (over 50%)."""
    m, images = _vit_tiny_res_attn()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = cross_entropy(m(Tensor(images)), np.array([3]))
        forward = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        backward_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert backward_peak - forward < 0.15 * (forward - base), (backward_peak - forward, forward - base)
    assert all(t.grad is None for t in _graph(loss) if t._backward is not None)
    assert all(p.grad is not None for _, p in trainable_parameters(m))


def test_vit_tiny_train_step_holds_its_graph_and_one_steps_grads():
    """A whole train-vit optimizer step, the third after two warm ones. It
    drops the last step's grads before its forward, so no trainable
    parameter holds a grad while the forward runs, and AdamW updates its
    moments in their own buffers. The step's traced peak above the warm
    state is its graph, its grads and the grads in flight, 13.9 MiB. The
    15.9 MiB bound leaves room for allocator noise but not for a second
    graph; the grads-at-forward and moment-identity checks catch a held
    step's grads and reallocated moments, which cost about 0.5 MiB."""
    m, images = _vit_tiny_res_attn()
    opt = make_optimizer(m, TrainConfig(weight_decay=0.01))
    moments = {name: (st["m"], st["v"]) for name, st in opt.state.items()}
    grads_at_forward = []

    def model(x):
        grads_at_forward.append([name for name, p in opt.params if p.grad is not None])
        return m(x)

    tracemalloc.start()  # before the warm steps, so their grads and moments are traced
    try:
        for step in range(2):
            _train_step(model, opt, images, np.array([3]), 0.0, 1e-3, f"step {step}")
        gc.collect()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        _train_step(model, opt, images, np.array([3]), 0.0, 1e-3, "step 2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grads_at_forward == [[], [], []]
    assert all(st["m"] is moments[name][0] and st["v"] is moments[name][1]
               for name, st in opt.state.items())
    assert peak - base <= 15.9 * (1 << 20), peak - base


def _eval_mix_model():
    """The benchmark's eval-mix model: prefix, adapter and prompt tuners in
    every block, at its backbone's shape."""
    m = build_backbone(BackboneConfig(dim=64, depth=4, heads=4, patch=4, image_size=16,
                                      in_channels=3, num_classes=10, seed=0))
    attach(m, [AttachSpec(b, op, kind, options) for b in range(4) for op, kind, options in (
        ("mha", "prefix", {"length": 10}), ("ffn", "adapter", {"bottleneck": 8}),
        ("block", "prompt", {"length": 10}))])
    return m


def _traced_peak(fn) -> int:
    """Bytes traced at ``fn()``'s peak above those held before it."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_eval_mix_forward_without_graph_keeps_each_tensor_until_its_last_reader():
    """One no-grad B=64 forward at the benchmark's eval-mix shape runs two
    item blocks of 32 in turn. Each block drops its first norm's output
    right after the MHA (its prefix tuner reads q), and its input and the
    MHA output at the residual add; qkv goes once the block tuner has read
    q, so the FFN runs without it. The patch tensor dies with the
    embedding. The last block runs its MLP on the first two token rows
    only, so an earlier block's GELU sets the peak: its residual stream,
    its FFN input (the adapter reads it) and the block tuner's delta, each
    [32, 17, 64] (0.27 MiB), the hidden layer (1.06 MiB) and GELU's three
    scratch slices (0.75 MiB), 2.65 MiB traced. The 2.8 MiB bound leaves
    less headroom than one [32, 17, 64] tensor, so a block-width tensor
    that outlives its last reader at the peak fails it, as does qkv held
    through the FFN (0.80 MiB), a block input held through the block, or
    one item block of 64 (4.47 MiB)."""
    m = _eval_mix_model()
    images = Tensor(np.random.default_rng(0).normal(size=(64, 3, 16, 16)))
    with no_grad():
        peak = _traced_peak(lambda: m(images))
    assert peak <= 2.8 * (1 << 20), peak


def test_eval_mix_batch_widens_its_images_once_at_the_patch_cut():
    """``evaluate`` on one B=64 eval-mix batch of float32 images, the
    batch's images and their float64 widening inside the traced window:
    the model takes the batch's float32 copy (0.19 MiB), and each item
    block's patch cut is its only float64 copy, which dies with the
    embedding, so the peak is the forward's and the batch copy, 2.85 MiB.
    The 2.95 MiB bound fails a float64 copy of the batch held through the
    forward in place of the float32 one (0.19 MiB more)."""
    m = _eval_mix_model()
    images = np.random.default_rng(0).normal(size=(64, 3, 16, 16)).astype(np.float32)
    dataset = Dataset(images, np.arange(64) % 10, 10)
    evaluate(m, dataset)  # the first call loads the thread pool's modules
    peak = _traced_peak(lambda: evaluate(m, dataset))
    assert peak <= 2.95 * (1 << 20), peak


def test_vit_tiny_width_forward_without_graph_never_holds_a_whole_qkv():
    """A no-grad B=64 forward at vit-tiny width (dim 192, 65 tokens), with no
    tuner, runs 13 item blocks of at most 5 items. The FFN input goes once
    the MLP has read it, so a block's GELU sets the peak: its residual
    stream and FFN input, each [5, 65, 192] (0.48 MiB), the hidden layer
    (1.90 MiB) and GELU's three scratch slices (0.75 MiB), 3.8 MiB traced.
    The 4.2 MiB bound fails a third block-width tensor held at the peak,
    and any forward that holds a whole qkv (18.3 MiB)."""
    m = build_backbone(BackboneConfig(dim=192, depth=2, heads=3, patch=4, image_size=32,
                                      in_channels=3, num_classes=10, seed=0))
    images = Tensor(np.random.default_rng(0).normal(size=(64, 3, 32, 32)))
    with no_grad():
        peak = _traced_peak(lambda: m(images))
    assert peak <= 4.2 * (1 << 20), peak


def _randomized(specs, cfg=TOY):
    """A model with ``specs`` attached and every trainable value drawn,
    so that no tuner is silent."""
    m = build_backbone(cfg)
    attach(m, specs)
    rng = np.random.default_rng(7)
    for _, p in trainable_parameters(m):
        p.data[...] = rng.normal(scale=0.5, size=p.data.shape)
    return m


def _step_bits(m, images) -> list:
    """The logits and every trainable grad of one step, as raw bytes."""
    logits = m(Tensor(images))
    cross_entropy(logits, np.array([0, 3])).backward()
    return [logits.data.tobytes()] + [p.grad.tobytes() for _, p in trainable_parameters(m)]


# every kind at every slot, and three mixes of kinds
SLOT_GRID = [[(op, kind)] for kind in TUNER_KINDS for op in ATTACH_OPS] + [
    [("mha", "prefix"), ("ffn", "prompt"), ("block", "prefix")],
    [("mha", "res_attn"), ("ffn", "adapter"), ("block", "prompt")],
    [("mha", "prefix"), ("ffn", "res_attn"), ("block", "adapter")],
]


def _slot_ids(slots) -> str:
    return "+".join(f"{kind}@{op}" for op, kind in slots)


@pytest.mark.parametrize("slots", SLOT_GRID, ids=_slot_ids)
def test_block_matches_the_reference_block_bit_for_bit(slots, monkeypatch):
    """Every kind at every slot of both blocks (block 1's input, and so its
    qkv, then needs a grad): the block that reads q through a view per
    tuner, computes the block tuner's delta before the FFN and drops qkv
    gives the logits and grads of ``reference_block_forward``, whose MLP is
    the primitive chain, bit for bit. Every ``norm1`` and ``norm2`` has its
    own drawn gamma and beta, so a block that swapped them would differ."""

    def build():
        m = _randomized(specs)
        rng = np.random.default_rng(11)
        for norm in (n for block in m.blocks for n in (block.norm1, block.norm2)):
            norm.gamma.data[...] = 1.0 + rng.normal(scale=0.5, size=norm.gamma.data.shape)
            norm.beta.data[...] = rng.normal(scale=0.5, size=norm.beta.data.shape)
        return m

    specs = [AttachSpec(b, op, kind) for b in range(2) for op, kind in slots]
    images = np.random.default_rng(8).normal(size=(2, 1, 8, 8))
    streamed = _step_bits(build(), images)
    monkeypatch.setattr(backbone, "block_forward", reference_block_forward)
    assert _step_bits(build(), images) == streamed


@pytest.mark.parametrize("slots", [[]] + SLOT_GRID[-3:], ids=lambda s: _slot_ids(s) or "none")
def test_model_forward_matches_the_reference_forward_bit_for_bit(slots):
    """A recording forward, patch embedding to head, gives the logits and
    grads of ``reference_model_forward`` bit for bit."""
    m = _randomized([AttachSpec(b, op, kind) for b in range(2) for op, kind in slots])
    images = np.random.default_rng(8).normal(size=(2, 1, 8, 8))
    streamed = _step_bits(m, images)
    reference = reference_model_forward(m, images)
    cross_entropy(reference, np.array([0, 3])).backward()
    assert [reference.data.tobytes()] + [p.grad.tobytes() for _, p in trainable_parameters(m)] == streamed


def test_position_table_matches_the_loop_formula():
    """The table equals its formula, entry by entry, to within numpy's and
    libm's last bits (toy, vit-tiny and odd widths); a model holds the
    table for its token count and width."""
    for n, dim in [(17, 16), (65, 192), (5, 7), (3, 1)]:
        table = sinusoidal_positions(n, dim)
        assert table.shape == (n, dim)
        assert np.abs(table - reference_positions(n, dim)).max() <= 1e-14 * INIT_STD, (n, dim)
    assert np.array_equal(build_backbone(TOY).pos, sinusoidal_positions(TOY.tokens, TOY.dim))


EVAL_MIX = BackboneConfig(dim=64, depth=4, heads=4, patch=4, image_size=16,
                          in_channels=3, num_classes=10, seed=0)


def _forward_both_ways(cfg, slots, batch):
    """The logits of one forward that records a graph and of one that
    records nothing, with ``slots`` attached to every block."""
    m = _randomized([AttachSpec(b, op, kind) for b in range(cfg.depth) for op, kind in slots], cfg)
    images = Tensor(np.random.default_rng(8).normal(
        size=(batch, cfg.in_channels, cfg.image_size, cfg.image_size)))
    recorded = m(images)
    with no_grad():
        bare = m(images)
    assert recorded.requires_grad and not bare.requires_grad
    assert np.isfinite(recorded.data).all()
    return recorded.data, bare.data


VIT_TINY_WIDTH = BackboneConfig(dim=192, depth=2, heads=3, patch=4, image_size=32,
                                in_channels=3, num_classes=10, seed=0)
SHAPES = {"toy": (TOY, 2), "eval_mix": (EVAL_MIX, 64), "vit_tiny_width": (VIT_TINY_WIDTH, 2)}


@pytest.mark.parametrize("slots", SLOT_GRID, ids=_slot_ids)
@pytest.mark.parametrize("shape", SHAPES)
def test_forward_without_graph_equals_the_recorded_forward_bit_for_bit(shape, slots):
    """Both forwards run every block the same way, the last one's MLP on
    ``HEAD_ROWS`` rows, so at the toy, eval-mix and vit-tiny shapes their
    logits agree bit for bit and the eval JSON matches a training forward.
    On numpy's bundled OpenBLAS 0.3.31 this holds on every core
    ``tests/test_kernels.py`` forces."""
    cfg, batch = SHAPES[shape]
    recorded, bare = _forward_both_ways(cfg, slots, batch)
    assert bare.tobytes() == recorded.tobytes()


@pytest.mark.parametrize("slots", SLOT_GRID, ids=_slot_ids)
@pytest.mark.parametrize("shape", SHAPES)
def test_model_forward_is_within_1e_12_of_the_reference_forward(shape, slots):
    """The model's last block runs its MLP on ``HEAD_ROWS`` rows;
    ``reference_model_forward`` runs every block on every row and keeps
    the last block's first ``HEAD_ROWS``. With drawn tuners at every slot
    and every shape, the recorded step's logits and trainable grads are
    within 1e-12 of the reference's largest magnitude. A two-row product
    may sum in another order than those rows of the whole product, by BLAS
    kernel and width, so only the toy shape is held to bit for bit
    (``test_model_forward_matches_the_reference_forward_bit_for_bit``)."""
    cfg, batch = SHAPES[shape]
    m = _randomized([AttachSpec(b, op, kind) for b in range(cfg.depth) for op, kind in slots], cfg)
    images = np.random.default_rng(8).normal(
        size=(batch, cfg.in_channels, cfg.image_size, cfg.image_size))
    labels = np.arange(batch) % cfg.num_classes
    logits = m(Tensor(images))
    cross_entropy(logits, labels).backward()
    got = [logits.data] + [p.grad.copy() for _, p in trainable_parameters(m)]
    for _, p in trainable_parameters(m):
        p.grad = None
    reference = reference_model_forward(m, images)
    cross_entropy(reference, labels).backward()
    want = [reference.data] + [p.grad for _, p in trainable_parameters(m)]
    assert len(got) == len(want) > 1
    for i, (g, w) in enumerate(zip(got, want)):
        assert g.shape == w.shape and rel_error(g, w) <= 1e-12, i


# the item blocks of a forward that records nothing, by shape and batch
STREAM_BLOCKS = {("eval_mix", 64): [32, 32], ("eval_mix", 65): [33, 32], ("eval_mix", 1): [1],
                 ("vit_tiny_width", 64): [5] * 12 + [4], ("vit_tiny_width", 65): [5] * 13,
                 ("vit_tiny_width", 1): [1]}


@pytest.mark.parametrize("batch", [64, 65, 1])
@pytest.mark.parametrize("slots", SLOT_GRID, ids=_slot_ids)
@pytest.mark.parametrize("shape", ["eval_mix", "vit_tiny_width"])
def test_streamed_forward_equals_the_whole_batch_bit_for_bit(shape, slots, batch, monkeypatch):
    """A forward that records nothing streams the fewest equal blocks of
    whole items whose widest array, tokens x max(3, mlp_ratio) x dim values
    an item, holds at most ``STREAM_VALUES``: 60 items at eval-mix, 5 at
    vit-tiny width. Its logits equal, bit for bit, those of the same
    forward with the stream off, and the head runs once, on every item's
    class row. They also equal the recorded forward's bit for bit."""
    cfg = SHAPES[shape][0]
    m = _randomized([AttachSpec(b, op, kind) for b in range(cfg.depth) for op, kind in slots], cfg)
    images = Tensor(np.random.default_rng(8).normal(
        size=(batch, cfg.in_channels, cfg.image_size, cfg.image_size)))
    blocks, head_rows = [], []
    patchify, head = backbone.patchify, m.head
    monkeypatch.setattr(backbone, "patchify", lambda data, p: blocks.append(len(data)) or patchify(data, p))
    monkeypatch.setattr(m, "head", lambda x: head_rows.append(x.shape) or head(x))
    with no_grad():
        streamed = m(images).data
        assert blocks == STREAM_BLOCKS[shape, batch] and head_rows == [(batch, cfg.dim)]
        monkeypatch.setattr(backbone, "STREAM_VALUES", 1 << 62)
        assert m(images).data.tobytes() == streamed.tobytes()
    assert blocks[-1] == batch
    assert m(images).data.tobytes() == streamed.tobytes()


def _tuner_and_mlp_inputs(m, images) -> tuple[list, np.ndarray]:
    """((block, op), input array) of every tuner and MLP call of one
    forward of ``m``, in call order (an MLP's op is ``"mlp"``), and its logits."""
    seen = []
    slot_of = {id(t): key for key, t in m.tuners.items()}
    slot_of.update((id(block.mlp), (i, "mlp")) for i, block in enumerate(m.blocks))

    def recording(call):
        def wrapper(module, x):
            seen.append((slot_of[id(module)], x.data))
            return call(module, x)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for cls in [*TUNERS.values(), MLP]:
            mp.setattr(cls, "__call__", recording(cls.__call__))
        return seen, m(images).data


@pytest.mark.parametrize("slots", SLOT_GRID, ids=_slot_ids)
@pytest.mark.parametrize("shape", SHAPES)
def test_forward_without_graph_feeds_every_tuner_every_row(shape, slots):
    """At zero init, a recorded forward and one that records nothing call
    each tuner on the bytes a frozen build's ``features()`` names for it,
    ``q`` for a tuner that ``reads_q`` and its slot's name else, at every
    token row, in the forward's slot order (mha, block, MLP, ffn). The
    recorded forward makes each call once, on the whole batch; the other
    makes the block's calls once per item block (two at eval-mix), in
    that order, and across them each row of each item reaches each tuner
    exactly once. Each MLP reads ``ffn`` at every row, but for the last
    one, which reads its first ``HEAD_ROWS`` in both forwards. The head on
    the final feature's class row gives the frozen model's recorded logits
    bit for bit, and so does each forward of the tuned model."""
    cfg, B = SHAPES[shape]
    images = Tensor(np.random.default_rng(8).normal(
        size=(B, cfg.in_channels, cfg.image_size, cfg.image_size)))
    frozen = build_backbone(cfg)
    inputs, final = frozen.features(images)
    frozen_logits = frozen(images).data.tobytes()
    assert frozen.head(final[:, 0]).data.tobytes() == frozen_logits
    m = build_backbone(cfg)
    attach(m, [AttachSpec(b, op, kind) for b in range(cfg.depth) for op, kind in slots])
    order = ("mha", "block", "mlp", "ffn")  # a block's calls, in the order it makes them
    calls = sorted([*m.tuners, *((b, "mlp") for b in range(cfg.depth))],
                   key=lambda slot: (slot[0], order.index(slot[1])))

    def named_input(b, op):
        if op == "mlp":
            return inputs[b]["ffn"].data[:, :HEAD_ROWS if b == cfg.depth - 1 else None]
        return inputs[b]["q" if m.tuners[b, op].reads_q else op].data

    for grad in (True, False):
        with (contextlib.nullcontext() if grad else no_grad()):
            seen, logits = _tuner_and_mlp_inputs(m, images)
        blocks = 1 if grad else len(seen) // len(calls)
        assert blocks == (2 if shape == "eval_mix" and not grad else 1)
        assert [slot for slot, _ in seen] == calls * blocks
        for i, slot in enumerate(calls):
            got = np.concatenate([x for _, x in seen[i :: len(calls)]])
            want = named_input(*slot)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (grad, slot)
        assert logits.tobytes() == frozen_logits, grad


def test_features_record_nothing_and_ignore_the_tuners(monkeypatch):
    """``features()`` outside ``no_grad``, on a model whose trainable tuners
    have drawn, non-zero weights, calls no tuner, records nothing and
    returns a bare build's bytes: every block's four named inputs at every
    token row, each the op of the block it names, and the final feature at
    the last block's ``HEAD_ROWS`` rows."""
    images = Tensor(np.random.default_rng(9).normal(size=(3, 1, 8, 8)))
    tuned = _randomized([AttachSpec(b, op, kind) for b in range(TOY.depth)
                         for op, kind in (("mha", "prefix"), ("ffn", "adapter"), ("block", "prompt"))])
    assert tuned(images).data.tobytes() != build_backbone(TOY)(images).data.tobytes()
    for cls in TUNERS.values():
        monkeypatch.setattr(cls, "__call__", lambda module, x: pytest.fail("features() called a tuner"))
    got, got_final = tuned.features(images)
    want, want_final = build_backbone(TOY).features(images)
    assert is_grad_enabled()
    for g, w in zip(got, want, strict=True):
        assert list(g) == list(w) and sorted(g) == ["block", "ffn", "mha", "q"]
        for name, t in g.items():
            assert t.shape == (3, TOY.tokens, TOY.dim) and t.data.tobytes() == w[name].data.tobytes()
    assert got_final.shape == (3, HEAD_ROWS, TOY.dim)
    assert got_final.data.tobytes() == want_final.data.tobytes()
    for block, g in zip(tuned.blocks, got):
        mha_out, qkv = block.mha(g["mha"])
        assert g["mha"].data.tobytes() == block.norm1(g["block"]).data.tobytes()
        assert g["q"].data.tobytes() == qkv.data[..., :TOY.dim].tobytes()
        assert g["ffn"].data.tobytes() == block.norm2(g["block"] + mha_out).data.tobytes()
    tensors = [t for g in got for t in g.values()] + [got_final]
    assert all(not t.requires_grad and t._backward is None and not t._parents for t in tensors)


def _graph(loss) -> list:
    """Every tensor reachable from ``loss``, each once."""
    nodes, seen, stack = [], set(), [loss]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            nodes.append(t)
            stack.extend(t._parents)
    return nodes


def _recorded_ops(loss) -> Counter:
    """Graph nodes reachable from ``loss``, counted by the op that recorded them."""
    return Counter(t._backward.__qualname__.split(".", 1)[0]
                   for t in _graph(loss) if t._backward is not None)


def _ops_whose_closure_holds_a_tensor(loss) -> set:
    """Ops in ``loss``'s graph whose backward closure keeps a Tensor, as a
    cell or inside a list or tuple cell."""
    ops = set()
    for t in _graph(loss):
        for cell in (t._backward and t._backward.__closure__) or ():
            held = cell.cell_contents
            if any(isinstance(x, Tensor) for x in (held if isinstance(held, (list, tuple)) else (held,))):
                ops.add(t._backward.__qualname__.split(".", 1)[0])
    return ops


def _four_kind_step():
    """A toy model with every tuner kind, prompt at an MHA and at a whole
    block, and the loss of one B=2 step."""
    m = build_backbone(TOY)
    attach(m, [
        AttachSpec(0, "mha", "res_attn"), AttachSpec(0, "ffn", "adapter"),
        AttachSpec(0, "block", "prompt"), AttachSpec(1, "mha", "prompt"),
        AttachSpec(1, "block", "prefix"),
    ])
    images = np.random.default_rng(1).normal(size=(2, 1, 8, 8))
    return m, cross_entropy(m(Tensor(images)), np.array([0, 3]))


def test_four_kind_step_records_only_the_engine_ops():
    """Every tuner kind records only the ops ``restuner.tensor`` defines for
    the model."""
    m, loss = _four_kind_step()
    ops = _recorded_ops(loss)
    assert set(ops) <= {"add", "attention", "broadcast_to", "concat", "cross_entropy",
                        "getitem", "layer_norm", "linear"}, ops
    # four tuners and block 1's MHA; block 0's reads no trainable input
    assert ops["attention"] == 5
    loss.backward()
    assert all(p.grad is not None for _, p in trainable_parameters(m))


def test_backward_closures_hold_no_tensor():
    """Backward hands each closure its parents' vertices, so no closure in
    the four-kind step's or the train-vit step's graph keeps a Tensor."""
    m, images = _vit_tiny_res_attn()
    assert _ops_whose_closure_holds_a_tensor(_four_kind_step()[1]) == set()
    assert _ops_whose_closure_holds_a_tensor(cross_entropy(m(Tensor(images)), np.array([3]))) == set()


def test_four_kind_backward_twice_gives_identical_leaf_grads():
    """Releasing op outputs' grads keeps the graph, so a second backward on
    it refills every leaf grad bit for bit."""
    m, loss = _four_kind_step()
    loss.backward()
    first = {name: p.grad.copy() for name, p in trainable_parameters(m)}
    loss.backward()  # drops the leaf grads before it refills them
    assert all(np.array_equal(p.grad, first[name]) for name, p in trainable_parameters(m))
    for _, p in trainable_parameters(m):
        p.grad = None  # as ``Optimizer.zero_grad`` leaves them
    loss.backward()
    assert all(np.array_equal(p.grad, first[name]) for name, p in trainable_parameters(m))
    assert all(t.grad is None for t in _graph(loss) if t._backward is not None)
