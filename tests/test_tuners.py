import inspect
import json
import math

import numpy as np
import pytest

from restuner.backbone import BackboneConfig, build_backbone
from restuner.data_io import model_config_blob
from restuner.layers import MultiHeadAttention
from restuner.tensor import Tensor
from restuner.tuners import (
    ATTACH_OPS,
    AdapterConfig,
    AdapterTuner,
    AttachError,
    AttachSpec,
    PrefixTuner,
    PrefixTunerConfig,
    PromptTuner,
    ResAttnConfig,
    ResAttnTuner,
    TUNER_KINDS,
    TUNERS,
    attach,
    count_trainable_params,
)

# -- independent loop oracles (plain numpy + math, no tensor core) ------


def softmax_row(row):
    mx = max(row)
    exps = [math.exp(v - mx) for v in row]
    z = sum(exps)
    return [e / z for e in exps]


def naive_res_attn(x, w_qkv, b_qkv, w_o, b_o, rank, heads):
    B, N, dim = x.shape
    rh = rank * heads
    qkv = x @ w_qkv + (b_qkv if b_qkv is not None else 0.0)  # [B,N,3*rh]
    merged = np.zeros((B, N, rh))
    for b in range(B):
        for h in range(heads):
            q = np.zeros((N, rank))
            k = np.zeros((N, rank))
            v = np.zeros((N, rank))
            for n in range(N):
                for r in range(rank):
                    # fused layout: [3, heads, rank] along the last axis
                    q[n, r] = qkv[b, n, 0 * rh + h * rank + r]
                    k[n, r] = qkv[b, n, 1 * rh + h * rank + r]
                    v[n, r] = qkv[b, n, 2 * rh + h * rank + r]
            for i in range(N):
                logits = [float(q[i] @ k[j]) * rank**-0.5 for j in range(N)]
                weights = softmax_row(logits)
                for j in range(N):
                    merged[b, i, h * rank : (h + 1) * rank] += weights[j] * v[j]
    return merged @ w_o + b_o


def naive_prefix(q_backbone, K, V, w_o, b_o):
    B, heads, N, hd = q_backbone.shape
    L = K.shape[1]
    merged = np.zeros((B, N, heads * hd))
    for b in range(B):
        for h in range(heads):
            for i in range(N):
                logits = [float(q_backbone[b, h, i] @ K[h, j]) / math.sqrt(hd) for j in range(L)]
                weights = softmax_row(logits)
                for j in range(L):
                    merged[b, i, h * hd : (h + 1) * hd] += weights[j] * V[h, j]
    return merged @ w_o + b_o


def naive_prompt(q_backbone, P, w_qkv, w_proj):
    B, heads, N, hd = q_backbone.shape
    dim = heads * hd
    L = P.shape[0]
    k_flat = P @ w_qkv[:, dim : 2 * dim]
    v_flat = P @ w_qkv[:, 2 * dim :]
    merged = np.zeros((B, N, dim))
    for b in range(B):
        for h in range(heads):
            K = k_flat[:, h * hd : (h + 1) * hd]
            V = v_flat[:, h * hd : (h + 1) * hd]
            for i in range(N):
                logits = [float(q_backbone[b, h, i] @ K[j]) / math.sqrt(hd) for j in range(L)]
                weights = softmax_row(logits)
                for j in range(L):
                    merged[b, i, h * hd : (h + 1) * hd] += weights[j] * V[j]
    return merged @ w_proj


def merged_q(q):
    """The per-head ``q`` [B, heads, N, d] as the [B, N, heads*d] query a
    prefix or prompt tuner reads."""
    B, heads, N, hd = q.shape
    return q.transpose(0, 2, 1, 3).reshape(B, N, heads * hd)


# -- init ---------------------------------------------------------------


def test_res_attn_zero_init_output_projection():
    t = ResAttnTuner(ResAttnConfig(dim=12, rank=3, heads=2), np.random.default_rng(0))
    assert np.abs(t.o.W.data).max() == 0.0
    assert np.abs(t.o.b.data).max() == 0.0


def test_res_attn_kaiming_bound():
    # kaiming-uniform with a = sqrt(5): bound = sqrt(1 / fan_in)
    dim = 64
    rng = np.random.default_rng(1)
    draws = []
    while len(draws) < 10_000:
        t = ResAttnTuner(ResAttnConfig(dim=dim, rank=4, heads=4), rng)
        draws.extend(t.qkv.W.data.reshape(-1).tolist())
    draws = np.array(draws[:10_000])
    bound = math.sqrt(1.0 / dim)
    assert np.abs(draws).max() <= bound
    # draws actually fill the range, not just satisfy the bound
    assert np.abs(draws).max() > 0.98 * bound
    assert abs(draws.mean()) < 0.01 * bound


def test_res_attn_init_deterministic():
    a = ResAttnTuner(ResAttnConfig(dim=8), np.random.default_rng(7))
    b = ResAttnTuner(ResAttnConfig(dim=8), np.random.default_rng(7))
    assert np.array_equal(a.qkv.W.data, b.qkv.W.data)


def test_scale_is_inverse_sqrt_rank():
    assert ResAttnConfig(dim=8, rank=4).scale == 4**-0.5
    assert ResAttnConfig(dim=8, rank=8).scale == 8**-0.5


def test_all_tuners_zero_at_init():
    rng = np.random.default_rng(2)
    dim, heads = 8, 2
    x = Tensor(rng.normal(size=(2, 3, dim)))
    mha = MultiHeadAttention(dim, heads, rng)
    q = mha(x)[1][..., :dim]

    assert np.abs(ResAttnTuner(ResAttnConfig(dim), rng)(x).data).max() == 0.0
    assert np.abs(AdapterTuner(AdapterConfig(dim), rng)(x).data).max() == 0.0
    assert np.abs(PrefixTuner(PrefixTunerConfig(dim, heads), rng)(q).data).max() == 0.0
    prompt = PromptTuner(PrefixTunerConfig(dim, heads), rng)
    prompt.bind(mha)
    assert np.abs(prompt(q).data).max() == 0.0


# -- oracle equivalence -------------------------------------------------


@pytest.mark.parametrize("trial", range(20))
def test_res_attn_matches_loop_oracle(trial):
    rng = np.random.default_rng(1000 + trial)
    B, N = int(rng.integers(1, 3)), int(rng.integers(1, 7))
    rank, heads = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    dim = int(rng.integers(1, 4)) * 2 + 2
    qkv_bias = bool(rng.integers(0, 2))
    t = ResAttnTuner(ResAttnConfig(dim, rank=rank, heads=heads, qkv_bias=qkv_bias), rng)
    t.o.W.data[...] = rng.normal(size=t.o.W.data.shape)
    t.o.b.data[...] = rng.normal(size=t.o.b.data.shape)
    if qkv_bias:
        t.qkv.b.data[...] = rng.normal(size=t.qkv.b.data.shape)
    x = rng.normal(size=(B, N, dim))
    expected = naive_res_attn(
        x, t.qkv.W.data, t.qkv.b.data if qkv_bias else None,
        t.o.W.data, t.o.b.data, rank, heads,
    )
    assert np.abs(t(Tensor(x)).data - expected).max() < 1e-10


@pytest.mark.parametrize("trial", range(20))
def test_prefix_matches_loop_oracle(trial):
    rng = np.random.default_rng(2000 + trial)
    heads = int(rng.integers(1, 4))
    hd = int(rng.integers(2, 5))
    dim = heads * hd
    B, N, L = int(rng.integers(1, 3)), int(rng.integers(1, 7)), int(rng.integers(1, 5))
    t = PrefixTuner(PrefixTunerConfig(dim, heads, length=L), rng)
    t.o.W.data[...] = rng.normal(size=(dim, dim))
    t.o.b.data[...] = rng.normal(size=dim)
    q = rng.normal(size=(B, heads, N, hd))
    expected = naive_prefix(q, t.K.data, t.V.data, t.o.W.data, t.o.b.data)
    assert np.abs(t(Tensor(merged_q(q))).data - expected).max() < 1e-10


@pytest.mark.parametrize("trial", range(20))
def test_prompt_matches_loop_oracle(trial):
    rng = np.random.default_rng(3000 + trial)
    heads = int(rng.integers(1, 4))
    hd = int(rng.integers(2, 5))
    dim = heads * hd
    B, N, L = int(rng.integers(1, 3)), int(rng.integers(1, 7)), int(rng.integers(1, 5))
    mha = MultiHeadAttention(dim, heads, rng)
    t = PromptTuner(PrefixTunerConfig(dim, heads, length=L), rng)
    t.bind(mha)
    t.P.data[...] = rng.normal(size=(L, dim))
    q = rng.normal(size=(B, heads, N, hd))
    expected = naive_prompt(q, t.P.data, mha.qkv.W.data, mha.proj.W.data)
    assert np.abs(t(Tensor(merged_q(q))).data - expected).max() < 1e-10


def test_res_attn_single_token_is_v_through_o():
    rng = np.random.default_rng(9)
    cfg = ResAttnConfig(dim=6, rank=2, heads=2)
    t = ResAttnTuner(cfg, rng)
    t.o.W.data[...] = rng.normal(size=t.o.W.data.shape)
    x = rng.normal(size=(1, 1, 6))
    rh = cfg.rank * cfg.heads
    v = x @ t.qkv.W.data[:, 2 * rh :]
    expected = v @ t.o.W.data + t.o.b.data
    assert np.abs(t(Tensor(x)).data - expected).max() < 1e-12


def test_prefix_single_kv_ignores_query_values():
    rng = np.random.default_rng(10)
    t = PrefixTuner(PrefixTunerConfig(dim=8, heads=2, length=1), rng)
    t.o.W.data[...] = rng.normal(size=(8, 8))
    q1 = merged_q(rng.normal(size=(1, 2, 3, 4)))
    q2 = merged_q(rng.normal(size=(1, 2, 3, 4)))
    assert np.abs(t(Tensor(q1)).data - t(Tensor(q2)).data).max() < 1e-12


def test_adapter_hand_composite():
    rng = np.random.default_rng(11)
    t = AdapterTuner(AdapterConfig(dim=2, bottleneck=2), rng)
    t.down.W.data[...] = np.eye(2)
    t.down.b.data[...] = 0.0
    t.up.W.data[...] = np.array([[1.0, 0.0], [0.0, 2.0]])
    x = np.array([[[0.7, -0.4]]])
    erf = np.vectorize(math.erf)
    g = x * 0.5 * (1 + erf(x / math.sqrt(2)))
    expected = g * np.array([1.0, 2.0])
    assert np.abs(t(Tensor(x)).data - expected).max() < 1e-12


# -- attachment ---------------------------------------------------------


def _toy_model():
    return build_backbone(BackboneConfig(dim=8, depth=2, heads=2, patch=4, image_size=8,
                                         in_channels=1, num_classes=3, seed=3))


def test_attach_rejects_duplicate_slot():
    m = _toy_model()
    attach(m, [AttachSpec(0, "mha", "res_attn")])
    with pytest.raises(AttachError, match="already has a tuner"):
        attach(m, [AttachSpec(0, "mha", "adapter")])


def test_attach_rejects_bad_block_and_kind():
    m = _toy_model()
    with pytest.raises(AttachError, match="out of range"):
        attach(m, [AttachSpec(5, "mha", "res_attn")])
    with pytest.raises(AttachError):
        AttachSpec(0, "mha", "lora")
    with pytest.raises(AttachError):
        AttachSpec(0, "middle", "res_attn")


@pytest.mark.parametrize("specs", [
    [AttachSpec(1, "mha", "res_attn", {"rank": 0})],  # the first spec fails
    [AttachSpec(1, "ffn", "adapter"), AttachSpec(0, "mha", "res_attn", {"rank": 0})],
    [AttachSpec(1, "ffn", "adapter"), AttachSpec(0, "block", "prompt"), AttachSpec(2, "mha", "prefix")],
    [AttachSpec(1, "ffn", "adapter"), AttachSpec(0, "ffn", "prefix"), AttachSpec(1, "ffn", "res_attn")],
    [AttachSpec(0, "block", "adapter"), AttachSpec(1, "mha", "prompt")],  # a slot the model holds
], ids=["first", "later_option", "later_range", "in_list_duplicate", "model_duplicate"])
def test_failed_attach_leaves_the_tuners_as_they_were(specs):
    """``attach`` builds every tuner before it inserts any: after an
    AttachError, ``model.tuners`` holds the same tuners in the same order,
    and a second failing call changes nothing either."""
    m = _toy_model()
    attach(m, [AttachSpec(1, "mha", "prompt"), AttachSpec(0, "block", "adapter")])
    before = list(m.tuners.items())
    for _ in range(2):
        with pytest.raises(AttachError):
            attach(m, specs)
        assert list(m.tuners.items()) == before


def test_attach_unknown_option():
    m = _toy_model()
    with pytest.raises(AttachError, match="unknown tuner option"):
        attach(m, [AttachSpec(0, "mha", "res_attn", {"ranks": 2})])


def test_attach_order_independent():
    """Whatever order the specs come in, and over repeated ``attach`` calls,
    the model computes the same function, and the checkpoint's echo, the
    parameter walk and the counts all list the tuners in forward slot order:
    by block, then ``ATTACH_OPS``."""
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(size=(2, 1, 8, 8)))
    specs = [
        AttachSpec(0, "mha", "res_attn", {"rank": 2, "heads": 2}),
        AttachSpec(1, "ffn", "adapter", {"bottleneck": 2}),
        AttachSpec(1, "block", "prompt", {"length": 2}),
        AttachSpec(1, "mha", "prefix", {"length": 2}),
    ]
    slots = {(s.block_index, s.op) for s in specs}
    expected = [(b, op) for b in range(2) for op in ATTACH_OPS if (b, op) in slots]

    outs = []
    for calls in ([specs], [specs[::-1]], [specs[2:], specs[:2]]):
        m = _toy_model()
        for order in calls:
            attach(m, order)
        # give tuners nonzero outputs so ordering would show
        for _, p in sorted(m.named_parameters()):
            if p.requires_grad:
                p.data[...] = np.random.default_rng(13).normal(size=p.data.shape) * 0.1
        outs.append(m(x).data)
        echo = [(t["block_index"], t["op"]) for t in json.loads(model_config_blob(m))["tuners"]]
        names = [n.split(".") for n, _ in m.named_parameters() if n.startswith("tuners.")]
        walk = list(dict.fromkeys((int(b), op) for _, b, op, *_ in names))
        counted = [k.split("[")[0].split(".")[1:] for k in count_trainable_params(m)[0]]
        assert echo == walk == [(int(b), op) for b, op in counted] == expected
    assert np.array_equal(outs[0], outs[1]) and np.array_equal(outs[0], outs[2])


def test_empty_attach_is_identity():
    m1, m2 = _toy_model(), _toy_model()
    attach(m2, [])
    x = Tensor(np.random.default_rng(14).normal(size=(2, 1, 8, 8)))
    assert np.array_equal(m1(x).data, m2(x).data)


# -- parameter accounting -----------------------------------------------


def test_count_toy_res_attn_with_bias():
    # dim=8, depth=2, r=2, h=2, o bias in, no qkv bias: 2*(8*12 + 4*8 + 8)
    m = _toy_model()
    attach(m, [AttachSpec(b, "mha", "res_attn", {"rank": 2, "heads": 2}) for b in range(2)])
    counts, total, analytic = count_trainable_params(m, include_bias=True)
    assert total == 272
    assert analytic == 272


def test_count_flag_sum_equals_closed_form_all_kinds():
    m = _toy_model()
    attach(m, [
        AttachSpec(0, "mha", "res_attn", {"rank": 2, "heads": 2}),
        AttachSpec(0, "ffn", "adapter", {"bottleneck": 3}),
        AttachSpec(1, "mha", "prefix", {"length": 4}),
        AttachSpec(1, "ffn", "prompt", {"length": 5}),
    ])
    for include_bias in (False, True):
        for include_head in (False, True):
            counts, total, analytic = count_trainable_params(
                m, include_head=include_head, include_bias=include_bias
            )
            assert total == analytic, (include_bias, include_head)


def test_head_only_count():
    m = _toy_model()
    counts, total, analytic = count_trainable_params(m, include_head=True, include_bias=True)
    assert total == 8 * 3 + 3 == 27


def test_analytic_res_attn_formula():
    t = ResAttnTuner(ResAttnConfig(dim=768, rank=8, heads=8), np.random.default_rng(0))
    assert t.analytic_params() == 768 * 192 + 64 * 768


# -- registry -----------------------------------------------------------


def test_registry_classes_define_kind_label_and_call():
    # the benchmark tracer wraps these four classes' own __call__ by kind,
    # and each is called with its one input alone, no part of its block
    assert set(TUNERS.values()) == {ResAttnTuner, AdapterTuner, PrefixTuner, PromptTuner}
    assert TUNER_KINDS == tuple(sorted(TUNERS))
    for kind, cls in TUNERS.items():
        assert cls.kind == kind
        assert isinstance(cls.label, str) and cls.label
        assert "__call__" in vars(cls)
        _, *inputs = inspect.signature(cls.__call__).parameters
        assert len(inputs) == 1, (kind, inputs)
        assert cls.defaults(), kind


@pytest.mark.parametrize("kind", sorted(TUNERS))
def test_build_tuner_names_an_option_it_cannot_cast(kind):
    int_opts = [k for k, v in TUNERS[kind].defaults().items() if type(v) is int]
    for name in int_opts:
        with pytest.raises(AttachError, match=name):
            attach(_toy_model(), [AttachSpec(0, "mha", kind, {name: None})])


def test_registry_options_are_int_or_bool():
    # build_tuner's strict type check knows these two types only
    for kind, cls in TUNERS.items():
        for name, value in cls.defaults().items():
            assert type(value) in (int, bool), (kind, name)


@pytest.mark.parametrize(
    "kind, name, value",
    [
        ("res_attn", "qkv_bias", "false"),
        ("res_attn", "qkv_bias", "no"),
        ("res_attn", "qkv_bias", None),
        ("res_attn", "qkv_bias", 0),
        ("res_attn", "rank", 2.9),
        ("res_attn", "rank", True),
        ("res_attn", "rank", "2"),
        ("adapter", "bottleneck", 4.0),
        ("prompt", "length", True),
    ],
)
def test_build_tuner_rejects_an_option_of_another_type(kind, name, value):
    with pytest.raises(AttachError, match=name):
        attach(_toy_model(), [AttachSpec(0, "mha", kind, {name: value})])


def test_build_tuner_takes_numpy_integers_as_int():
    m = _toy_model()
    attach(m, [AttachSpec(0, "mha", "res_attn", {"rank": np.int64(2), "qkv_bias": False})])
    opts = m.tuners[(0, "mha")].options()
    assert opts["rank"] == 2 and type(opts["rank"]) is int
    assert opts["qkv_bias"] is False
