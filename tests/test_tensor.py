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
    set_debug_checks,
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
    assert np.array_equal(unused.grad, [0.0])


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


def test_debug_mode_flags_nonfinite():
    set_debug_checks(True)
    try:
        with np.errstate(invalid="ignore"), pytest.raises(GradientError):
            T.power(Tensor([-1.0]), 0.5)
    finally:
        set_debug_checks(False)


def test_dropout_semantics():
    rng = np.random.default_rng(7)
    x = Tensor(np.ones((1000,)))
    assert T.dropout(x, 0.0, rng, training=True) is x
    assert T.dropout(x, 0.5, rng, training=False) is x
    y = T.dropout(x, 0.5, rng, training=True)
    kept = y.data[y.data > 0]
    assert np.allclose(kept, 2.0)  # inverted scaling
    assert abs((y.data > 0).mean() - 0.5) < 0.08


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
    return T.softmax_lastdim(T.gelu(x @ x.transpose_last2())).sum(axis=-1)


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
