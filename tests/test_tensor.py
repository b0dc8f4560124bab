import gc
import hashlib
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from primitives import (
    composed_layer_norm,
    composed_linear,
    composed_mha_attention,
    erf as erf_port,
    gelu,
    mul,
    mul_scalar,
    own_kv,
    permute,
    prompt_kv,
    q_of,
    reshape,
    softmax_lastdim,
    tensor_sum,
    weighted_sum,
)
from restuner import tensor as T
from restuner.tensor import (
    GradientError,
    ShapeError,
    Tensor,
    finite_diff_grad,
    rel_error,
)
from restuner.training import cross_entropy

# The matmul tests run bias-free ``T.linear``: the product the model records.


def test_matmul_identity():
    a = Tensor([[1.0, 0.0], [0.0, 1.0]])
    b = Tensor([[3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(T.linear(a, b).data, b.data)


def test_matmul_dot():
    a = Tensor([[1.0, 2.0]])
    b = Tensor([[3.0], [4.0]])
    assert T.linear(a, b).data.tolist() == [[11.0]]


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_matmul_grad_vs_finite_differences():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    tensor_sum(T.linear(a, b)).backward()

    fd_a = finite_diff_grad(lambda t: tensor_sum(T.linear(t, b)), a, h=1e-5)
    fd_b = finite_diff_grad(lambda t: tensor_sum(T.linear(a, t)), b, h=1e-5)
    assert rel_error(a.grad, fd_a) < 1e-7
    assert rel_error(b.grad, fd_b) < 1e-7


def test_batched_matmul_grad():
    rng = np.random.default_rng(1)
    a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    tensor_sum(T.linear(a, b)).backward()
    fd_b = finite_diff_grad(lambda t: tensor_sum(T.linear(a, t)), b, h=1e-5)
    assert rel_error(b.grad, fd_b) < 1e-7


def test_softmax_uniform():
    y = softmax_lastdim(Tensor([0.0, 0.0, 0.0, 0.0]))
    assert np.allclose(y.data, 0.25, atol=1e-15)


def test_softmax_no_overflow():
    y = softmax_lastdim(Tensor([1000.0, 0.0]))
    assert abs(y.data[0] - 1.0) < 1e-12
    assert abs(y.data[1]) < 1e-12


def test_softmax_rows_and_jacobian():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(3, 7)), requires_grad=True)
    y = softmax_lastdim(x)
    assert np.abs(y.data.sum(axis=-1) - 1.0).max() < 1e-12
    assert y.data.min() >= 0.0 and y.data.max() <= 1.0

    # random cotangent projects the full jacobian
    w = rng.normal(size=(3, 7))
    weighted_sum(softmax_lastdim(x), w).backward()
    fd = finite_diff_grad(lambda t: weighted_sum(softmax_lastdim(t), w), x, h=1e-5)
    assert rel_error(x.grad, fd) < 1e-6


def test_reshape_row_major_law():
    x = Tensor(np.arange(12.0).reshape(2, 6))
    y = reshape(x, (2, 3, 2))
    assert y.data[1, 2, 1] == 11.0


def test_permute_and_roundtrip():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(2, 3)))
    y = permute(x, (1, 0))
    for i in range(2):
        for j in range(3):
            assert y.data[j, i] == x.data[i, j]
    z = permute(permute(x, (1, 0)), (1, 0))
    assert np.array_equal(z.data, x.data)


def test_reshape_permute_preserve_values_bitwise():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(3, 4, 5)))
    r = reshape(x, (60,))
    p = permute(x, (2, 0, 1))
    assert sorted(r.data.tolist()) == sorted(x.data.reshape(-1).tolist())
    assert sorted(p.data.reshape(-1).tolist()) == sorted(x.data.reshape(-1).tolist())


def test_reshape_size_mismatch():
    with pytest.raises(ShapeError):
        reshape(Tensor(np.zeros((2, 3))), (4, 2))


def test_permute_invalid():
    with pytest.raises(ShapeError):
        permute(Tensor(np.zeros((2, 3))), (0, 0))


def test_backward_sum():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    tensor_sum(x).backward()
    assert np.array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_square():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    tensor_sum(mul(x, x)).backward()
    assert np.array_equal(x.grad, [2.0, 4.0, 6.0])


def test_backward_nonscalar_rejected():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(GradientError):
        mul(x, x).backward()


def test_backward_twice_identical():
    x = Tensor([1.0, -2.0, 0.5], requires_grad=True)
    loss = tensor_sum(mul(x, x))
    loss.backward()
    first = x.grad.copy()
    loss.backward()
    assert np.array_equal(x.grad, first)


def test_unused_parameter_gets_zero_grad():
    x = Tensor([1.0, 2.0], requires_grad=True)
    unused = Tensor([5.0], requires_grad=True)
    tensor_sum(x).backward()
    assert unused.grad is None


def test_finite_diff_sum_is_ones():
    x = Tensor(np.random.default_rng(5).normal(size=(3, 2)))
    fd = finite_diff_grad(tensor_sum, x)
    assert np.abs(fd - 1.0).max() < 1e-9


def test_finite_diff_square():
    x = Tensor([3.0])
    fd = finite_diff_grad(lambda t: tensor_sum(mul(t, t)), x, h=1e-5)
    assert abs(fd[0] - 6.0) < 1e-9


def test_finite_diff_rejects_bad_step():
    with pytest.raises(ValueError):
        finite_diff_grad(tensor_sum, Tensor([1.0]), h=0.0)


def _linear_gelu(x, W, b=None):
    return T.linear(x, W, b, gelu=True)


def test_gelu_grad():
    one = Tensor([[1.0]])  # x @ 1 is x exactly, so this is GELU of x alone
    for v in (-2.0, -0.5, 0.3, 4.0):
        x = Tensor([[v]], requires_grad=True)
        tensor_sum(_linear_gelu(x, one)).backward()
        fd = finite_diff_grad(lambda t: tensor_sum(_linear_gelu(t, one)), x)
        assert rel_error(x.grad, fd) < 1e-7


def _erf_oracle_inputs() -> np.ndarray:
    """Over 2M draws plus the branch edges (0, 1, 8, the MAXLOG cut near
    26.64), huge, infinite, NaN and subnormal values."""
    rng = np.random.default_rng(9)
    edges = [0.0, 1.0, 8.0, 1e300, np.inf, 5e-324, np.finfo(float).tiny / 3, np.finfo(float).tiny]
    for v in (1.0, 8.0):
        edges += [np.nextafter(v, 0.0), np.nextafter(v, np.inf)]
    edges = np.array(edges)
    return np.concatenate([
        rng.normal(size=1_100_000), rng.uniform(-40.0, 40.0, size=1_100_000),
        edges, -edges, np.linspace(26.0, 27.0, 20_001), -np.linspace(26.0, 27.0, 20_001), [np.nan],
    ])


def test_erf_port_matches_scipy_bit_for_bit():
    special = pytest.importorskip("scipy.special")
    x = _erf_oracle_inputs()
    expected = special.erf(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = erf_port(x)
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), expected[~nan].view(np.int64))


def test_gelu_matches_scipy_expression_bit_for_bit():
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(10)
    # more than one 32k-element chunk with a ragged last one, a transposed
    # (non-contiguous) input, and a tail share like a trained layer's
    x = rng.normal(size=(3, 65, 8))
    W, b = Tensor(rng.normal(scale=0.7, size=(8, 400))), Tensor(rng.normal(size=400))
    for data in (x, x.transpose(1, 0, 2)):
        pre = T.linear(Tensor(data), W, b).data
        expected = pre * (0.5 * (1.0 + special.erf(pre / math.sqrt(2.0))))
        assert np.array_equal(_linear_gelu(Tensor(data), W, b).data, expected)


def _backward_from(out: Tensor, g: np.ndarray) -> None:
    """Run backward with the array ``g`` itself, not a copy, as ``out``'s grad."""
    T._make(np.zeros(()), (out,), lambda _, vertex: T._accumulate(vertex, g)).backward()


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize(
    "size", [T._ERF_CHUNK - 1, T._ERF_CHUNK, T._ERF_CHUNK + 1, 2 * T._ERF_CHUNK + 7]
)
def test_gelu_chunk_boundaries_match_composed_expression_bit_for_bit(size):
    """``linear``'s GELU epilogue against the ``gelu(linear(x, W, b))``
    chain over hidden layers of ``size`` elements, with and without a graph."""
    rng = np.random.default_rng(size)
    arrays = [rng.normal(scale=2.0, size=(size, 2)), rng.normal(size=(2, 1)), rng.normal(size=1)]
    g = rng.normal(size=(2 * size, 1))[1::2]  # a non-contiguous upstream grad
    results = []
    for build in (_linear_gelu, lambda x, W, b: gelu(T.linear(x, W, b))):
        with T.no_grad():
            bare = build(*map(Tensor, arrays)).data
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        out = build(*leaves)
        _backward_from(out, g)
        results.append([bare, out.data, *(t.grad for t in leaves)])
    assert all(_same_bits(f, c) for f, c in zip(*results))
    assert _same_bits(results[0][0], results[0][1])


def _gelu_peak_bytes(x: Tensor, W: Tensor) -> tuple[int, int]:
    """(peak bytes traced during ``linear(x, W, gelu=True)``, its output's bytes)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = _linear_gelu(x, W)
        return tracemalloc.get_traced_memory()[1] - base, out.data.nbytes
    finally:
        tracemalloc.stop()


def test_gelu_without_grad_allocates_its_output_and_one_slice_of_scratch():
    """GELU runs in the product's own buffer: no pre-activation is kept
    beside the output, so the peak is the output plus one slice's scratch."""
    # few |x / sqrt(2)| > 1, as in the benchmark workloads, so erf's tail
    # path (a Python list per slice) stays small
    data = np.random.default_rng(45).normal(scale=0.5, size=(8 * T._ERF_CHUNK + 3, 1))
    x, W = Tensor(data, requires_grad=True), Tensor([[1.0]])
    # erf's three slice-sized scratch arrays, Phi(x)'s and a slice's mask and indices
    scratch = 5 * T._ERF_CHUNK * 8
    with T.no_grad():
        peak, out_bytes = _gelu_peak_bytes(x, W)
    assert out_bytes <= peak <= out_bytes + scratch, (peak, out_bytes)
    # a recording call keeps a full-size derivative for its backward, which the bound catches
    peak, out_bytes = _gelu_peak_bytes(x, W)
    assert peak > out_bytes + scratch, (peak, out_bytes)


def test_gelu_epilogue_keeps_only_its_derivative():
    """A recorded fused op keeps its derivative beside what ``linear``
    keeps (W when x needs a grad, x when W does), never the product or
    the output."""
    rng = np.random.default_rng(47)
    for x_grad, W_grad in ((True, False), (False, True), (True, True)):
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=x_grad)
        W = Tensor(rng.normal(size=(4, 5)), requires_grad=W_grad)
        out = _linear_gelu(x, W, Tensor(rng.normal(size=5)))
        held = [c.cell_contents for c in out._backward.__closure__]
        arrays = [a for a in held if isinstance(a, np.ndarray) and a.ndim > 0]
        expected = [a for a, keep in ((W.data, x_grad), (x.data, W_grad)) if keep]
        derivs = [a for a in arrays if not any(a is e for e in expected)]
        assert len(arrays) == len(expected) + 1, (x_grad, W_grad)
        assert len(derivs) == 1 and derivs[0].shape == out.shape
        assert not np.shares_memory(derivs[0], out.data)
        output = weakref.ref(out.data)
        del out, held, arrays, derivs
        assert output() is None


def _kept(out: Tensor, name: str) -> np.ndarray:
    """The array that ``out``'s backward closure keeps as ``name``."""
    fn = out._backward
    return fn.__closure__[fn.__code__.co_freevars.index(name)].cell_contents


def test_recorded_gelu_keeps_the_unrecorded_output_and_the_separate_derivative():
    """A recording ``linear(..., gelu=True)`` uses each slice of GELU's
    derivative as erf's first scratch array before ``_gelu_grad``
    overwrites it. Over several slices, tail values (|x / sqrt(2)| > 1)
    and a NaN, its output equals the unrecorded op's, and its derivative
    ``_gelu_grad`` of the pre-activation computed apart, byte for byte."""
    rng = np.random.default_rng(49)
    x = rng.normal(scale=0.5, size=(6, 40, 8))
    x[2, 5, 3] = np.nan
    W1, b1 = (rng.normal(size=s) for s in ((8, 300), (300,)))
    pre = x @ W1
    pre += b1
    assert pre.size > 2 * T._ERF_CHUNK and np.isnan(pre).any()
    assert (np.abs(pre) > math.sqrt(2.0)).mean() > 0.2
    cdf = 0.5 * (1.0 + erf_port(pre / math.sqrt(2.0)))
    deriv = T._gelu_grad(pre, cdf, np.empty(pre.shape)).tobytes()
    with T.no_grad():
        gelu_out = _linear_gelu(Tensor(x), Tensor(W1), Tensor(b1)).data.tobytes()
    out = _linear_gelu(Tensor(x, requires_grad=True), Tensor(W1), Tensor(b1))
    assert out.data.tobytes() == gelu_out and _kept(out, "deriv").tobytes() == deriv


def test_recorded_gelu_takes_two_scratch_slices():
    """A recording ``linear(..., gelu=True)`` keeps GELU's derivative whole,
    and erf's first scratch array is that derivative's slice, so beside its
    2 MiB output and the derivative it needs two slice-size scratch arrays,
    not three, give or take numpy's 64 KiB ufunc buffers."""
    rng = np.random.default_rng(45)
    # GELU's inputs x @ W1 + b1 reach 2, so 2% of them take erf's tail path;
    # the 128 KiB margin below covers the tail's temporaries
    x = Tensor(rng.uniform(-1.0, 1.0, size=(64, 16, 1)), requires_grad=True)
    W1, b1 = (Tensor(rng.uniform(-1.0, 1.0, size=s)) for s in ((1, 256), (256,)))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = _linear_gelu(x, W1, b1)
        peak, out_bytes = tracemalloc.get_traced_memory()[1] - base, out.data.nbytes
    finally:
        tracemalloc.stop()
    recorded = 2 * out_bytes + 2 * T._ERF_CHUNK * 8
    assert out_bytes == 2 << 20 and recorded <= peak <= recorded + (128 << 10), (peak, out_bytes)


def test_getitem_concat_broadcast_grads():
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)

    def f(t):
        top = t[0:1, :]
        rest = mul_scalar(t[1:, :], 2.0)
        joined = T.concat([top, rest], axis=0)
        return tensor_sum(mul(joined, joined))

    f(x).backward()
    fd = finite_diff_grad(f, x)
    assert rel_error(x.grad, fd) < 1e-7

    y = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
    tensor_sum(T.broadcast_to(y, (5, 4))).backward()
    assert np.array_equal(y.grad, np.full((1, 4), 5.0))


# -- graph lifetime and no_grad -----------------------------------------


def test_graph_is_freed_without_cycle_collector():
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            h = _linear_gelu(x, w)
            loss = tensor_sum(mul(softmax_lastdim(h), h[:, 0:1]))
            loss.backward()
        del h, loss
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_intermediate_grad_allocated_by_backward():
    """Backward fills grads on leaves only: an op output's grad is released
    as soon as its op has used it."""
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    y = mul_scalar(x, 2.0)
    z = tensor_sum(mul(y, y))
    assert y.grad is None and z.grad is None
    z.backward()
    assert y.grad is None and z.grad is None
    assert np.array_equal(x.grad, [8.0, 16.0, 24.0])


def _no_grad_probe(x):
    return tensor_sum(softmax_lastdim(_linear_gelu(x, permute(x, (0, 2, 1)))), axis=-1)


def test_no_grad_records_no_graph_and_same_values():
    x = Tensor(np.random.default_rng(9).normal(size=(2, 3, 4)), requires_grad=True)
    recorded = _no_grad_probe(x)
    with T.no_grad():
        bare = _no_grad_probe(x)
    assert recorded.requires_grad and recorded._parents
    assert not bare.requires_grad
    assert bare._parents == () and bare._backward is None and bare.grad is None
    assert np.array_equal(bare.data, recorded.data)


def test_no_grad_nests_and_restores_on_exception():
    x = Tensor([1.0], requires_grad=True)
    with T.no_grad():
        with T.no_grad():
            assert not (x + x).requires_grad
        assert not (x + x).requires_grad
    assert (x + x).requires_grad
    with pytest.raises(RuntimeError), T.no_grad():
        raise RuntimeError("boom")
    assert T._GRAD_ENABLED
    assert (x + x).requires_grad


@pytest.mark.parametrize(
    "idx",
    [(slice(1, None), slice(None, None, 2)), (Ellipsis, 0), (None, 1), 2, np.int64(1)],
)
def test_getitem_basic_index_grad(idx):
    """A basic index scatters with ``+=``, and its grad has the bytes of
    ``np.add.at``'s, a negative zero included."""
    x = Tensor(np.random.default_rng(10).normal(size=(3, 4)), requires_grad=True)
    w = np.random.default_rng(11).normal(size=x.data[idx].shape)
    w.flat[0] = -0.0

    def f(t):
        return weighted_sum(t[idx], w)

    f(x).backward()
    assert rel_error(x.grad, finite_diff_grad(f, x)) < 1e-7
    reference = np.zeros_like(x.data)
    np.add.at(reference, idx, w)
    assert x.grad.tobytes() == reference.tobytes()


@pytest.mark.parametrize(
    "idx",
    [np.array([1, 0, 1]), [2, 2], (slice(None), np.array([3, 0, 3])), np.ones((3, 4), dtype=bool), True],
    ids=["array", "list", "slice_and_array", "mask", "bool"],
)
def test_getitem_rejects_an_advanced_index(idx):
    """Only a basic index records: one that could select an element twice
    raises before any node is made."""
    x = Tensor(np.zeros((3, 4)), requires_grad=True)
    with pytest.raises(ShapeError, match="basic indices only"):
        x[idx]


# -- fused ops against the primitive chains they replace ------------------

_R = np.random.default_rng(40)
_W_KV = _R.normal(size=(8, 16))

# name -> (fused builder, composed builder, input arrays)
FUSED_CASES = {
    "linear": (
        T.linear, composed_linear,
        [_R.normal(size=(2, 3, 4)), _R.normal(size=(4, 5)), _R.normal(size=5)],
    ),
    "linear_2d_no_bias": (
        T.linear, composed_linear, [_R.normal(size=(3, 4)), _R.normal(size=(4, 2))],
    ),
    # GELU as the product's epilogue, against gelu(linear(x, W, b))
    "linear_gelu": (
        _linear_gelu, lambda x, W, b: gelu(T.linear(x, W, b)),
        [_R.normal(size=(2, 3, 4)), _R.normal(size=(4, 5)), _R.normal(size=5)],
    ),
    "linear_gelu_2d_no_bias": (
        _linear_gelu, lambda x, W: gelu(T.linear(x, W)),
        [_R.normal(size=(3, 4)), _R.normal(size=(4, 2))],
    ),
    "layer_norm": (
        T.layer_norm, composed_layer_norm,
        [_R.normal(size=(2, 3, 5)), _R.normal(size=5), _R.normal(size=5)],
    ),
    # a residual adds into x first, so the order of layer_norm's two x terms shows
    "layer_norm_residual": (
        lambda x, g, b: T.layer_norm(x, g, b) + x,
        lambda x, g, b: composed_layer_norm(x, g, b) + x,
        [_R.normal(size=(2, 3, 5)), _R.normal(size=5), _R.normal(size=5)],
    ),
    # q, k and v are thirds of one tensor, whose grads reach it as one buffer
    "attention_self": (
        lambda x: T.attention(x, 2, 0.3),
        lambda x: composed_mha_attention(x, 2, 0.3),
        [_R.normal(size=(2, 3, 24))],
    ),
    # one input reaches the node twice: as q, and as K/V cut from its own thirds
    "attention_one_input": (
        lambda x: T.attention(q_of(x), 2, 0.3, kv=own_kv(x, 2)),
        lambda x: composed_mha_attention(q_of(x), 2, 0.3, kv=own_kv(x, 2)),
        [_R.normal(size=(1, 3, 24))],
    ),
    # prefix: q alone, and K/V are [heads, L, d] parameters broadcast over the batch
    "attention_prefix_broadcast": (
        lambda x, k, v: T.attention(x, 2, 0.3, kv=(k, v)),
        lambda x, k, v: composed_mha_attention(x, 2, 0.3, kv=(k, v)),
        [_R.normal(size=(3, 4, 8)), _R.normal(size=(2, 5, 4)), _R.normal(size=(2, 5, 4))],
    ),
    # K and V as [L, heads*d], the layout a product writes
    "attention_flat_kv": (
        lambda x, k, v: T.attention(x, 2, 0.3, kv=(k, v)),
        lambda x, k, v: composed_mha_attention(x, 2, 0.3, kv=(k, v)),
        [_R.normal(size=(3, 4, 8)), _R.normal(size=(5, 8)), _R.normal(size=(5, 8))],
    ),
    # prompt: K and V both derive from one parameter P, [L, heads*d] each
    "attention_prompt_shared": (
        lambda x, P: T.attention(x, 2, 0.3, kv=prompt_kv(P, _W_KV)),
        lambda x, P: composed_mha_attention(x, 2, 0.3, kv=prompt_kv(P, _W_KV)),
        [_R.normal(size=(3, 4, 8)), _R.normal(size=(5, 8))],
    ),
    # a block's MHA and a prefix tuner read one qkv, the tuner through its
    # own view of q: two attention nodes add into it
    "attention_shared_qkv": (
        lambda x, k, v: T.attention(x, 2, 0.3) + T.attention(q_of(x), 2, 0.3, kv=(k, v)),
        lambda x, k, v: (composed_mha_attention(x, 2, 0.3)
                         + composed_mha_attention(q_of(x), 2, 0.3, kv=(k, v))),
        [_R.normal(size=(2, 3, 24)), _R.normal(size=(2, 5, 4)), _R.normal(size=(2, 5, 4))],
    ),
}


def _run_fused_case(build, arrays, requires, w):
    leaves = [Tensor(a.copy(), requires_grad=r) for a, r in zip(arrays, requires)]
    out = build(*leaves)
    weighted_sum(out, w).backward()
    return out, leaves


@pytest.mark.parametrize("name", sorted(FUSED_CASES))
def test_fused_op_equals_composed_chain_bit_for_bit(name):
    fused, composed, arrays = FUSED_CASES[name]
    n = len(arrays)
    # every input trainable, then each input alone (frozen-backbone patterns)
    for requires in [(True,) * n] + [tuple(i == j for j in range(n)) for i in range(n)]:
        w = np.random.default_rng(41).normal(size=fused(*map(Tensor, arrays)).shape)
        out_f, leaves_f = _run_fused_case(fused, arrays, requires, w)
        out_c, leaves_c = _run_fused_case(composed, arrays, requires, w)
        assert np.array_equal(out_f.data, out_c.data), (name, requires)
        for i, (lf, lc) in enumerate(zip(leaves_f, leaves_c)):
            if requires[i]:
                assert np.array_equal(lf.grad, lc.grad), (name, requires, i)


@pytest.mark.parametrize("name", sorted(FUSED_CASES))
def test_fused_op_grads_vs_finite_differences(name):
    fused, _, arrays = FUSED_CASES[name]
    w = np.random.default_rng(42).normal(size=fused(*map(Tensor, arrays)).shape)
    _, leaves = _run_fused_case(fused, arrays, (True,) * len(arrays), w)
    for i, leaf in enumerate(leaves):
        others = [Tensor(a) for a in arrays]

        def loss(t, i=i, others=others):
            others[i] = t
            return weighted_sum(fused(*others), w)

        assert rel_error(leaf.grad, finite_diff_grad(loss, Tensor(arrays[i].copy()))) < 1e-6, (name, i)


def _digest(a: np.ndarray) -> bytes:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).digest()


@pytest.mark.parametrize("name", sorted(FUSED_CASES) + ["gelu"])
def test_op_never_writes_its_inputs_or_upstream_grad(name):
    """Forward and backward write only into arrays they allocated: every
    input's data, the output and the upstream grad keep their bytes.
    ``gelu`` is the GELU epilogue over more than one ``_ERF_CHUNK`` slice."""
    if name == "gelu":
        build, arrays = _linear_gelu, [_R.normal(size=(T._ERF_CHUNK + 5, 2)), _R.normal(size=(2, 1))]
    else:
        build, arrays = FUSED_CASES[name][::2]
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    before = [_digest(t.data) for t in leaves]
    out = build(*leaves)
    g = np.random.default_rng(44).normal(size=out.shape)
    held = [_digest(out.data), _digest(g)]
    _backward_from(out, g)
    assert all(t.grad is not None for t in leaves)
    assert [_digest(t.data) for t in leaves] == before
    assert [_digest(out.data), _digest(g)] == held


def test_fused_ops_record_one_node():
    rng = np.random.default_rng(43)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    W, gamma, b = (Tensor(rng.normal(size=s)) for s in ((4, 4), (4,), (4,)))
    qkv = Tensor(rng.normal(size=(2, 3, 12)), requires_grad=True)
    q = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    K, V = (Tensor(rng.normal(size=(2, 5, 2))) for _ in range(2))
    K2, V2 = (Tensor(rng.normal(size=(5, 4)), requires_grad=True) for _ in range(2))
    for out, parents in [
        (T.linear(x, W, b), (x, W, b)),
        (_linear_gelu(x, W, b), (x, W, b)),
        (T.layer_norm(x, gamma, b), (x, gamma, b)),
        (T.attention(qkv, 2, 0.5), (qkv,)),
        (T.attention(q, 2, 0.5, kv=(K, V)), (q, K, V)),
        (T.attention(q, 2, 0.5, kv=(K2, V2)), (q, K2, V2)),
    ]:
        assert out._backward is not None and out._parents == parents


def test_attention_shape_errors():
    for qkv_shape, kv_shape in [
        ((2, 3, 10), None),  # width not 3 * heads * d
        ((2, 3, 4, 6), None),  # not [B, N, width]
        ((2, 3, 4), ((3, 5, 2), (3, 5, 2))),  # K/V head count
        ((2, 3, 4), ((2, 5, 3), (2, 5, 3))),  # K/V width
        ((2, 3, 4), ((2, 5, 2), (2, 6, 2))),  # V not shaped like K
        ((2, 3, 4), ((2, 2), (2, 2))),  # [heads, d], read as [L, heads*d]: width
        ((2, 3, 4), ((5, 6), (5, 6))),  # 2-d K/V width not heads * d
        ((2, 3, 4), ((5, 4), (6, 4))),  # 2-d V not shaped like K
        ((2, 3, 4), ((5, 4), (2, 5, 2))),  # V not in K's layout
        ((2, 3, 4), ((2,), (2,))),  # 1-d K/V
        ((2, 3, 4), ((1, 2, 5, 2), (1, 2, 5, 2))),  # 4-d K/V
        ((2, 3, 5), ((2, 5, 2), (2, 5, 2))),  # q width not heads * d
        ((2, 3, 12), ((2, 5, 2), (2, 5, 2))),  # a fused qkv, not q alone, with K/V
    ]:
        kv = None if kv_shape is None else tuple(Tensor(np.zeros(s)) for s in kv_shape)
        with pytest.raises(ShapeError, match="attention"):
            T.attention(Tensor(np.zeros(qkv_shape)), 2, 1.0, kv=kv)


@pytest.mark.parametrize("second_use", ["mul", "getitem"])
def test_shared_first_grad_is_never_written_through(second_use):
    """``add`` hands one array to both inputs; a later contribution to one
    of them must not show up in the other's grad."""
    w1 = np.array([1.0, 2.0, 3.0])
    w2 = np.array([10.0, 20.0, 30.0])
    a = Tensor([1.0, -2.0, 4.0], requires_grad=True)
    b = Tensor([1.5, -3.0, 6.0], requires_grad=True)
    second = weighted_sum(a, w2) if second_use == "mul" else weighted_sum(a[0:2], w2[:2])
    loss = weighted_sum(a + b, w1) + second
    loss.backward()
    extra = w2 if second_use == "mul" else np.array([10.0, 20.0, 0.0])
    assert np.array_equal(b.grad, w1)
    assert np.array_equal(a.grad, w1 + extra)


# Which input arrays a recorded graph keeps once the caller has dropped its
# inputs and the op's output. Each input is [shape, recorded]: a recorded
# input is an op output over a trainable leaf, so the graph reaches it only
# through its vertex; any other input is a frozen leaf, which the graph
# holds as a parent. The set names the recorded inputs whose arrays the
# op's backward reads and must keep.
SAVED_CASES = {
    "linear_frozen_W": (T.linear, [[(2, 3, 4), True], [(4, 5), False], [(5,), False]], set()),
    # W's grad reads x and x's grad reads W; b's grad reads neither
    "linear_trainable_W": (T.linear, [[(2, 3, 4), True], [(4, 5), True], [(5,), True]], {0, 1}),
    "linear_frozen_x": (T.linear, [[(2, 3, 4), False], [(4, 5), True]], set()),
    "layer_norm_frozen_gamma": (
        T.layer_norm, [[(2, 3, 5), True], [(5,), False], [(5,), False]], set(),
    ),
    # x's grad reads gamma; x itself is read only through the centred copy
    "layer_norm_trainable_gamma": (
        T.layer_norm, [[(2, 3, 5), True], [(5,), True], [(5,), True]], {1},
    ),
    "add": (T.add, [[(2, 3), True], [(3,), True]], set()),
    "reshape": (lambda a: reshape(a, (6,)), [[(2, 3), True]], set()),
    "permute": (lambda a: permute(a, (1, 0)), [[(2, 3), True]], set()),
    "getitem": (lambda a: a[:, 1], [[(2, 3), True]], set()),
    "concat": (lambda a, b: T.concat([a, b], axis=1), [[(2, 3), True], [(2, 2), True]], set()),
    "broadcast_to": (lambda a: T.broadcast_to(a, (4, 3)), [[(1, 3), True]], set()),
    # GELU's epilogue keeps its derivative, not its input or its product
    "gelu": (_linear_gelu, [[(2, 3, 4), True], [(4, 5), False], [(5,), False]], set()),
    "linear_gelu_trainable_W": (_linear_gelu, [[(2, 3, 4), True], [(4, 5), True], [(5,), True]], {0, 1}),
    "attention_self": (lambda x: T.attention(x, 2, 0.3), [[(2, 3, 24), True]], {0}),
    # q's grad reads frozen K and V, not q
    "attention_frozen_kv": (
        lambda x, k, v: T.attention(x, 2, 0.3, kv=(k, v)),
        [[(2, 3, 8), True], [(2, 5, 4), False], [(2, 5, 4), False]], set(),
    ),
    # K's grad reads q (which is frozen) and, through the softmax grad, V;
    # V's reads only the probabilities, so nothing reads K
    "attention_trainable_kv": (
        lambda x, k, v: T.attention(x, 2, 0.3, kv=(k, v)),
        [[(2, 3, 8), False], [(2, 5, 4), True], [(2, 5, 4), True]], {2},
    ),
    # the same with K and V as [L, heads*d]: the head views keep V's array
    "attention_trainable_flat_kv": (
        lambda x, k, v: T.attention(x, 2, 0.3, kv=(k, v)),
        [[(2, 3, 8), False], [(5, 8), True], [(5, 8), True]], {2},
    ),
    "cross_entropy": (lambda z: cross_entropy(z, np.array([2, 0])), [[(2, 4), True]], set()),
}


def _build_saved_case(name, recorded_inputs):
    """The case's op on fresh inputs; returns (output, trainable leaves, weakrefs
    to the recorded inputs' arrays by position)."""
    build, specs, _ = SAVED_CASES[name]
    rng = np.random.default_rng(45)
    inputs, leaves, refs = [], [], {}
    for i, (shape, recorded) in enumerate(specs):
        t = Tensor(rng.normal(size=shape), requires_grad=recorded)
        if recorded:
            leaves.append(t)
            if recorded_inputs:
                t = t + Tensor(0.0)
                refs[i] = weakref.ref(t.data)
        inputs.append(t)
    return build(*inputs), leaves, refs


@pytest.mark.parametrize("name", sorted(SAVED_CASES))
def test_backward_keeps_only_the_input_arrays_it_reads(name):
    out, leaves, refs = _build_saved_case(name, recorded_inputs=True)
    g = np.random.default_rng(46).normal(size=out.shape)
    root = T._make(np.zeros(()), (out,), lambda _, vertex: T._accumulate(vertex, g))
    assert not any(isinstance(c.cell_contents, Tensor) for c in out._backward.__closure__)
    del out
    assert {i for i, ref in refs.items() if ref() is not None} == SAVED_CASES[name][2]
    root.backward()
    first = [t.grad.copy() for t in leaves]
    root.backward()
    assert all(np.array_equal(t.grad, f) for t, f in zip(leaves, first))
    # the same op on the leaves themselves gives the same grads, bit for bit
    out, direct, _ = _build_saved_case(name, recorded_inputs=False)
    _backward_from(out, g)
    assert all(np.array_equal(t.grad, f) for t, f in zip(direct, first))
