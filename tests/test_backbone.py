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
from restuner.training import TrainConfig, _train_step, cross_entropy, make_optimizer
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
    forward is the tuned block's delta over the frozen block."""
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(2, 1, 8, 8)))
    plain = build_backbone(TOY)
    tuned = build_backbone(TOY)
    attach(tuned, [AttachSpec(1, "block", "res_attn", {"rank": 2, "heads": 2})])
    tuner = tuned.tuners[(1, "block")]
    tuner.o.W.data[...] = rng.normal(size=tuner.o.W.data.shape) * 0.1

    block_in = plain.features(x)[0][1]["block"]
    out_plain = backbone.block_forward(plain, 1, block_in)
    out_tuned = backbone.block_forward(tuned, 1, block_in)
    delta = tuner(block_in).data
    assert np.abs((out_tuned.data - out_plain.data) - delta).max() < 1e-12


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


def test_vit_tiny_res_attn_step_records_155_nodes():
    """The benchmark's train-vit step. Each attention is one node over its
    fused QKV projection (the split-and-merge head chain recorded 328), and
    each GELU is its fc1's epilogue (a GELU node each made it 167)."""
    m, images = _vit_tiny_res_attn()
    loss = cross_entropy(m(Tensor(images)), np.array([3]))
    assert sum(_recorded_ops(loss).values()) == 155
    assert _recorded_ops(loss) == {"linear": 71, "add": 35, "layer_norm": 24, "attention": 23,
                                   "getitem": 1, "cross_entropy": 1}


def test_vit_tiny_forward_graph_holds_only_saved_arrays():
    """The train-vit step's graph keeps the arrays its backward passes read,
    not its op outputs, and each GELU keeps only its derivative: 13.5 MiB.
    The 16 MiB bound fails a graph that keeps each GELU's input and Phi(x)
    (18.1 MiB) or every recorded output's array (33.8 MiB)."""
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
    peak above the forward is the grads in flight, 11% of the forward's
    bytes (1.5 MiB over a 13.5 MiB graph). The 15% bound fails a backward
    whose op outputs keep their grads (57%)."""
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
    state is its graph, its grads and the grads in flight, 14.5 MiB. The
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


def test_eval_mix_forward_without_graph_keeps_each_tensor_until_its_last_reader():
    """One no-grad B=64 forward at the benchmark's eval-mix shape. Each block
    drops its first norm's output right after the MHA (its prefix tuner
    reads q), keeps only a copy of qkv's q third, so k and v die with the
    backbone attention, drops the MHA output after the residual add and the
    q copy once the block tuner has read it, so the FFN runs without them;
    the FFN streams its hidden layer in row blocks, and the patch tensor
    dies with the embedding. The last block runs its MLP on the first two
    token rows only, so an earlier, whole block sets the peak: 3.9 MiB
    traced. The 4.1 MiB bound leaves less headroom than one [64, 17, 64]
    tensor (0.53 MiB), so a block-width tensor that outlives its last
    reader at the peak fails it, as does a whole qkv (1.6 MiB) or a whole
    hidden layer (2.1 MiB)."""
    m = build_backbone(BackboneConfig(dim=64, depth=4, heads=4, patch=4, image_size=16,
                                      in_channels=3, num_classes=10, seed=0))
    attach(m, [AttachSpec(b, op, kind, options) for b in range(4) for op, kind, options in (
        ("mha", "prefix", {"length": 10}), ("ffn", "adapter", {"bottleneck": 8}),
        ("block", "prompt", {"length": 10}))])
    images = Tensor(np.random.default_rng(0).normal(size=(64, 3, 16, 16)))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with no_grad():
            m(images)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= 4.1 * (1 << 20), peak - base


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
def test_forward_without_graph_is_within_1e_12_of_the_recorded_forward(shape, slots):
    """A forward that records nothing runs its last block's MLP on the
    first two token rows only, and a recorded one on every row. A two-row
    product may sum in another order than those rows of the whole product,
    by BLAS kernel and width, so on any BLAS the logits agree to 1e-12 of
    their largest magnitude."""
    cfg, batch = SHAPES[shape]
    recorded, bare = _forward_both_ways(cfg, slots, batch)
    assert rel_error(bare, recorded) <= 1e-12


@pytest.mark.parametrize("slots", SLOT_GRID, ids=_slot_ids)
@pytest.mark.parametrize("shape", ["toy", "eval_mix"])
def test_forward_without_graph_equals_the_recorded_forward_bit_for_bit(shape, slots):
    """At the toy and eval-mix shapes the two forwards' logits agree bit for
    bit, so the eval JSON matches a recorded forward. On numpy's bundled
    OpenBLAS 0.3.31 this holds on every core ``tests/test_kernels.py``
    forces. At vit-tiny width it is not claimed: on SkylakeX fc2 (K=768)
    matches the whole product's rows only from seven rows on."""
    cfg, batch = SHAPES[shape]
    recorded, bare = _forward_both_ways(cfg, slots, batch)
    assert bare.tobytes() == recorded.tobytes()


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
    token row, in the forward's slot order (mha, block, MLP, ffn). Each MLP
    reads ``ffn`` at every row, but for the no-grad forward's last one,
    which reads its first ``HEAD_ROWS``. The head on the final feature's
    class row gives the frozen model's recorded logits bit for bit, and so
    does the tuned model's recorded forward."""
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

    def named_input(b, op, grad):
        if op == "mlp":
            return inputs[b]["ffn"].data[:, :HEAD_ROWS if not grad and b == cfg.depth - 1 else None]
        return inputs[b]["q" if m.tuners[b, op].reads_q else op].data

    for grad in (True, False):
        with (contextlib.nullcontext() if grad else no_grad()):
            seen, logits = _tuner_and_mlp_inputs(m, images)
        assert [slot for slot, _ in seen] == calls
        for (b, op), got in seen:
            want = named_input(b, op, grad)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (grad, b, op)
        assert logits.tobytes() == frozen_logits or not grad


def test_features_record_nothing_and_ignore_the_tuners(monkeypatch):
    """``features()`` outside ``no_grad``, on a model whose trainable tuners
    have drawn, non-zero weights, calls no tuner, records nothing and
    returns a bare build's bytes: every block's four named inputs at every
    token row, each the op of the block it names, and the final feature."""
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
