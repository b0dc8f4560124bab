import gc
import math

import numpy as np
import pytest

from restuner import tensor as T
from restuner.tensor import (
    GradientError,
    ShapeError,
    Tensor,
    finite_diff_grad,
    rel_error,
)


def test_matmul_identity():
    a = Tensor([[1.0, 0.0], [0.0, 1.0]])
    b = Tensor([[3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal((a @ b).data, b.data)


def test_matmul_dot():
    a = Tensor([[1.0, 2.0]])
    b = Tensor([[3.0], [4.0]])
    assert (a @ b).data.tolist() == [[11.0]]


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((2, 3)))


def test_matmul_grad_vs_finite_differences():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    (a @ b).sum().backward()

    fd_a = finite_diff_grad(lambda t: (t @ b).sum(), a, h=1e-5)
    fd_b = finite_diff_grad(lambda t: (a @ t).sum(), b, h=1e-5)
    assert rel_error(a.grad, fd_a) < 1e-7
    assert rel_error(b.grad, fd_b) < 1e-7


def test_batched_matmul_grad():
    rng = np.random.default_rng(1)
    a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    (a @ b).sum().backward()
    fd_b = finite_diff_grad(lambda t: (a @ t).sum(), b, h=1e-5)
    assert rel_error(b.grad, fd_b) < 1e-7


def test_softmax_uniform():
    y = T.softmax_lastdim(Tensor([0.0, 0.0, 0.0, 0.0]))
    assert np.allclose(y.data, 0.25, atol=1e-15)


def test_softmax_no_overflow():
    y = T.softmax_lastdim(Tensor([1000.0, 0.0]))
    assert abs(y.data[0] - 1.0) < 1e-12
    assert abs(y.data[1]) < 1e-12


def test_softmax_rows_and_jacobian():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(3, 7)), requires_grad=True)
    y = T.softmax_lastdim(x)
    assert np.abs(y.data.sum(axis=-1) - 1.0).max() < 1e-12
    assert y.data.min() >= 0.0 and y.data.max() <= 1.0

    # random cotangent projects the full jacobian
    w = rng.normal(size=(3, 7))
    (T.softmax_lastdim(x) * Tensor(w)).sum().backward()
    fd = finite_diff_grad(lambda t: (T.softmax_lastdim(t) * Tensor(w)).sum(), x, h=1e-5)
    assert rel_error(x.grad, fd) < 1e-6


def test_reshape_row_major_law():
    x = Tensor(np.arange(12.0).reshape(2, 6))
    y = x.reshape(2, 3, 2)
    assert y.data[1, 2, 1] == 11.0


def test_permute_and_roundtrip():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(2, 3)))
    y = x.permute(1, 0)
    for i in range(2):
        for j in range(3):
            assert y.data[j, i] == x.data[i, j]
    z = x.permute(1, 0).permute(1, 0)
    assert np.array_equal(z.data, x.data)


def test_reshape_permute_preserve_values_bitwise():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(3, 4, 5)))
    r = x.reshape(60)
    p = x.permute(2, 0, 1)
    assert sorted(r.data.tolist()) == sorted(x.data.reshape(-1).tolist())
    assert sorted(p.data.reshape(-1).tolist()) == sorted(x.data.reshape(-1).tolist())


def test_reshape_size_mismatch():
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 3))).reshape(4, 2)


def test_permute_invalid():
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 3))).permute(0, 0)


def test_backward_sum():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    x.sum().backward()
    assert np.array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_square():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    (x * x).sum().backward()
    assert np.array_equal(x.grad, [2.0, 4.0, 6.0])


def test_backward_nonscalar_rejected():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(GradientError):
        (x * x).backward()


def test_backward_twice_identical():
    x = Tensor([1.0, -2.0, 0.5], requires_grad=True)
    loss = (x * x).sum()
    loss.backward()
    first = x.grad.copy()
    loss.backward()
    assert np.array_equal(x.grad, first)


def test_unused_parameter_gets_zero_grad():
    x = Tensor([1.0, 2.0], requires_grad=True)
    unused = Tensor([5.0], requires_grad=True)
    x.sum().backward()
    assert unused.grad is None


def test_finite_diff_sum_is_ones():
    x = Tensor(np.random.default_rng(5).normal(size=(3, 2)))
    fd = finite_diff_grad(lambda t: t.sum(), x)
    assert np.abs(fd - 1.0).max() < 1e-9


def test_finite_diff_square():
    x = Tensor([3.0])
    fd = finite_diff_grad(lambda t: (t * t).sum(), x, h=1e-5)
    assert abs(fd[0] - 6.0) < 1e-9


def test_finite_diff_rejects_bad_step():
    with pytest.raises(ValueError):
        finite_diff_grad(lambda t: t.sum(), Tensor([1.0]), h=0.0)


def test_gelu_grad():
    for v in (-2.0, -0.5, 0.3, 4.0):
        x = Tensor([v], requires_grad=True)
        T.gelu(x).sum().backward()
        fd = finite_diff_grad(lambda t: T.gelu(t).sum(), x)
        assert rel_error(x.grad, fd) < 1e-7


def test_getitem_concat_broadcast_grads():
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)

    def f(t):
        top = t[0:1, :]
        rest = t[1:, :] * 2.0
        joined = T.concat([top, rest], axis=0)
        return (joined * joined).sum()

    f(x).backward()
    fd = finite_diff_grad(f, x)
    assert rel_error(x.grad, fd) < 1e-7

    y = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
    T.broadcast_to(y, (5, 4)).sum().backward()
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
            h = T.gelu(x @ w)
            loss = (T.softmax_lastdim(h) * h[:, 0:1]).sum()
            loss.backward()
        del h, loss
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_intermediate_grad_allocated_by_backward():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    y = x * 2.0
    z = (y * y).sum()
    assert y.grad is None and z.grad is None
    z.backward()
    assert np.array_equal(y.grad, [4.0, 8.0, 12.0])
    assert np.array_equal(x.grad, [8.0, 16.0, 24.0])


def _no_grad_probe(x):
    return T.softmax_lastdim(T.gelu(x @ x.permute(0, 2, 1))).sum(axis=-1)


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
            assert not (x * 2.0).requires_grad
        assert not (x * 2.0).requires_grad
    assert (x * 2.0).requires_grad
    with pytest.raises(RuntimeError), T.no_grad():
        raise RuntimeError("boom")
    assert T._GRAD_ENABLED
    assert (x * 2.0).requires_grad


@pytest.mark.parametrize(
    "idx",
    [(slice(1, None), slice(None, None, 2)), (Ellipsis, 0), (None, 1), 2, np.int64(1)],
)
def test_getitem_basic_index_grad(idx):
    x = Tensor(np.random.default_rng(10).normal(size=(3, 4)), requires_grad=True)
    w = np.random.default_rng(11).normal(size=x.data[idx].shape)

    def f(t):
        return (t[idx] * Tensor(w)).sum()

    f(x).backward()
    assert rel_error(x.grad, finite_diff_grad(f, x)) < 1e-7
    reference = np.zeros_like(x.data)
    np.add.at(reference, idx, w)
    assert np.array_equal(x.grad, reference)


def test_getitem_duplicate_fancy_index_accumulates():
    x = Tensor(np.random.default_rng(12).normal(size=(4, 2)), requires_grad=True)
    idx = np.array([0, 2, 0, 0])

    def f(t):
        return (t[idx] * t[idx]).sum()

    f(x).backward()
    assert rel_error(x.grad, finite_diff_grad(f, x)) < 1e-7
    assert np.allclose(x.grad[0], 6.0 * x.data[0], rtol=1e-12, atol=0.0)  # row 0 picked 3 times


# -- fused ops against the primitive chains they replace ------------------


def composed_linear(x, W, b=None):
    y = x @ W
    return y if b is None else y + b


def composed_layer_norm(x, gamma, beta, eps=1e-6):
    scale = 1.0 / x.shape[-1]  # a mean is a sum times the reciprocal count
    mu = x.sum(axis=-1, keepdims=True) * scale
    xc = x - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) * scale
    inv = (var + eps) ** -0.5
    return xc * inv * gamma + beta


def composed_attention(q, k, v, scale):
    axes = list(range(len(k.shape)))
    axes[-2:] = axes[-1], axes[-2]  # k^T over the last two axes
    return T.softmax_lastdim((q @ k.permute(axes)) * scale) @ v


def prompt_kv(P, W, heads):
    """Prompt-style K and V: both derived from one shared parameter P."""
    L, dim = P.shape
    K = (P @ Tensor(W[:, :dim])).reshape(L, heads, dim // heads).permute(1, 0, 2)
    V = (P @ Tensor(W[:, dim:])).reshape(L, heads, dim // heads).permute(1, 0, 2)
    return K, V


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
    # q, k and v are one tensor, so the order of its three grad terms shows
    "attention_one_input": (
        lambda x: T.attention(x, x, x, 0.5),
        lambda x: composed_attention(x, x, x, 0.5),
        [_R.normal(size=(2, 2, 3, 4))],
    ),
    "attention_self": (
        lambda q, k, v: T.attention(q, k, v, 0.5),
        lambda q, k, v: composed_attention(q, k, v, 0.5),
        [_R.normal(size=(2, 2, 3, 4)) for _ in range(3)],
    ),
    # prefix: K/V are [heads, L, d] parameters broadcast over the batch
    "attention_prefix_broadcast": (
        lambda q, k, v: T.attention(q, k, v, 0.5),
        lambda q, k, v: composed_attention(q, k, v, 0.5),
        [_R.normal(size=(3, 2, 4, 4)), _R.normal(size=(2, 5, 4)), _R.normal(size=(2, 5, 4))],
    ),
    # prompt: K and V both derive from one parameter P
    "attention_prompt_shared": (
        lambda q, P: T.attention(q, *prompt_kv(P, _W_KV, 2), 0.5),
        lambda q, P: composed_attention(q, *prompt_kv(P, _W_KV, 2), 0.5),
        [_R.normal(size=(3, 2, 4, 4)), _R.normal(size=(5, 8))],
    ),
}


def _run_fused_case(build, arrays, requires, w):
    leaves = [Tensor(a.copy(), requires_grad=r) for a, r in zip(arrays, requires)]
    out = build(*leaves)
    (out * Tensor(w)).sum().backward()
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
            return (fused(*others) * Tensor(w)).sum()

        assert rel_error(leaf.grad, finite_diff_grad(loss, Tensor(arrays[i].copy()))) < 1e-6, (name, i)


def test_fused_ops_record_one_node():
    rng = np.random.default_rng(43)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    W, gamma, b = (Tensor(rng.normal(size=s)) for s in ((4, 4), (4,), (4,)))
    for out, parents in [
        (T.linear(x, W, b), (x, W, b)),
        (T.layer_norm(x, gamma, b), (x, gamma, b)),
        (T.attention(x, x, x, 0.5), (x, x, x)),
    ]:
        assert out._backward is not None and out._parents == parents


def test_attention_shape_errors():
    q = Tensor(np.zeros((2, 3, 4)))
    with pytest.raises(ShapeError):
        T.attention(q, Tensor(np.zeros((2, 3, 5))), Tensor(np.zeros((2, 3, 4))), 1.0)
    with pytest.raises(ShapeError):
        T.attention(q, Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 4, 4))), 1.0)


@pytest.mark.parametrize("second_use", ["mul", "getitem"])
def test_shared_first_grad_is_never_written_through(second_use):
    """``add`` hands one array to both inputs; a later contribution to one
    of them must not show up in the other's grad."""
    w1 = np.array([1.0, 2.0, 3.0])
    w2 = np.array([10.0, 20.0, 30.0])
    x = Tensor([0.5, -1.0, 2.0], requires_grad=True)
    a = x * 2.0
    b = x * 3.0
    second = (a * Tensor(w2)).sum() if second_use == "mul" else (a[0:2] * Tensor(w2[:2])).sum()
    loss = ((a + b) * Tensor(w1)).sum() + second
    loss.backward()
    extra = w2 if second_use == "mul" else np.array([10.0, 20.0, 0.0])
    assert np.array_equal(b.grad, w1)
    assert np.array_equal(a.grad, w1 + extra)
    assert np.array_equal(x.grad, 2.0 * (w1 + extra) + 3.0 * w1)
