"""Dense float64 tensors with reverse-mode autodiff.

The graph is define-by-run: every op links its output to its inputs and
stores a backward closure that receives the output's grad as its argument,
so no node refers to its own output and a graph is freed by reference
counting as soon as its loss dies. Inside ``no_grad()`` ops record nothing.
``backward`` on a scalar walks the recorded graph once in reverse
topological order. Every tensor, leaf or op output, follows one grad rule:
``backward`` drops each reachable grad, a tensor takes its first
contribution as is (often an array another tensor also holds) and adds
later ones out of place. No grad array is written in place once a tensor
holds it, so a grad is never copied or zero-filled to make that safe.

The hot paths are fused ops, one graph node each: ``linear``,
``layer_norm`` and ``attention``. Each repeats, expression for expression
and in the same order, the numpy arithmetic of the primitive chain it
replaces, so its values and grads equal that chain's bit for bit.

A finite-difference oracle (`finite_diff_grad`) is provided for
independent gradient verification; it never touches autodiff state.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np
from scipy.special import erf as _erf_np

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Record no graph inside the block: op outputs get no parents or closure."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


class ShapeError(ValueError):
    pass


class GradientError(RuntimeError):
    pass


class Tensor:
    """N-d float64 value, optionally participating in the gradient graph."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    # -- graph plumbing -------------------------------------------------

    def backward(self) -> None:
        """Fill ``grad`` on every requires_grad tensor this scalar depends on.

        A tensor the loss does not reach keeps ``grad`` as it was. Repeated
        calls without re-recording produce identical grads: each call drops
        every reachable tensor's grad before accumulating.
        """
        if self.data.size != 1:
            raise GradientError(
                f"backward requires a scalar loss, got shape {self.data.shape}"
            )
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        for node in topo:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other))

    __radd__ = __add__

    def __neg__(self):
        return mul_scalar(self, -1.0)

    def __sub__(self, other):
        return add(self, -_as_tensor(other))

    def __rsub__(self, other):
        return add(-self, _as_tensor(other))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return mul_scalar(self, float(other))
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return mul_scalar(self, 1.0 / float(other))
        return mul(self, power(other, -1.0))

    def __pow__(self, p):
        return power(self, float(p))

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return getitem(self, idx)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def permute(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return permute(self, axes)

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)


def _as_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64))


def _make(data: np.ndarray, parents: tuple, backward) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add one grad contribution to ``t.grad``, never writing into an array.

    The first contribution is stored as is, even when other tensors hold
    the same array or a view of it; each later one makes a new sum.
    """
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# -- elementwise --------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return _make(a.data + b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(a.data * b.data, (a, b), backward)


def mul_scalar(a: Tensor, s: float) -> Tensor:
    def backward(g):
        _accumulate(a, g * s)

    return _make(a.data * s, (a,), backward)


def power(a: Tensor, p: float) -> Tensor:
    def backward(g):
        _accumulate(a, g * p * a.data ** (p - 1.0))

    return _make(a.data**p, (a,), backward)


def gelu(a: Tensor) -> Tensor:
    """Exact Gaussian-CDF GELU: x * Phi(x)."""
    phi_cdf = 0.5 * (1.0 + _erf_np(a.data / math.sqrt(2.0)))

    def backward(g):
        _accumulate(a, g * _gelu_grad(a.data, phi_cdf))

    return _make(a.data * phi_cdf, (a,), backward)


def _gelu_grad(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """GELU derivative Phi(x) + x * phi(x), given the forward pass's Phi(x)."""
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return cdf + x * pdf


# -- structural ---------------------------------------------------------


def _check_matmul(a: np.ndarray, b: np.ndarray) -> None:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner-dim mismatch: {a.shape} @ {b.shape}")


def _matmul_backward(a: Tensor, b: Tensor, g: np.ndarray) -> None:
    if a.requires_grad:
        _accumulate(a, _unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape))
    if b.requires_grad:
        _accumulate(b, _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_matmul(a.data, b.data)

    def backward(g):
        _matmul_backward(a, b, g)

    return _make(a.data @ b.data, (a, b), backward)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != a.data.size:
        raise ShapeError(f"cannot reshape {a.shape} (size {a.data.size}) to {shape}")

    def backward(g):
        _accumulate(a, g.reshape(a.data.shape))

    return _make(a.data.reshape(shape), (a,), backward)


def permute(a: Tensor, axes: tuple) -> Tensor:
    axes = tuple(int(x) for x in axes)
    if sorted(axes) != list(range(a.data.ndim)):
        raise ShapeError(f"invalid permutation {axes} for ndim {a.data.ndim}")
    inverse = tuple(np.argsort(axes))

    def backward(g):
        _accumulate(a, g.transpose(inverse))

    return _make(a.data.transpose(axes), (a,), backward)


def _is_basic_index(idx) -> bool:
    """True for ints, slices, Ellipsis and None: no element is selected twice."""
    items = idx if isinstance(idx, tuple) else (idx,)
    return all(i is None or i is Ellipsis or isinstance(i, (int, np.integer, slice)) for i in items)


def getitem(a: Tensor, idx) -> Tensor:
    basic = _is_basic_index(idx)

    def backward(g):
        buf = np.zeros_like(a.data)
        if basic:
            buf[idx] += g
        else:  # advanced indices may repeat a target; add.at accumulates repeats
            np.add.at(buf, idx, g)
        _accumulate(a, buf)

    return _make(a.data[idx], (a,), backward)


def concat(tensors: list, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(int(lo), int(hi))
                _accumulate(t, g[tuple(sl)])

    return _make(data, tuple(tensors), backward)


def broadcast_to(a: Tensor, shape: tuple) -> Tensor:
    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))

    return _make(np.broadcast_to(a.data, shape).copy(), (a,), backward)


# -- reductions ---------------------------------------------------------


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.data.shape))

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


# -- softmax ------------------------------------------------------------


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    return y * (g - (g * y).sum(axis=-1, keepdims=True))


def softmax_lastdim(a: Tensor) -> Tensor:
    """Numerically stable softmax over the last axis (max-subtraction)."""
    y = _softmax(a.data)

    def backward(g):
        _accumulate(a, _softmax_grad(y, g))

    return _make(y, (a,), backward)


# -- fused ops ----------------------------------------------------------
#
# Each backward adds into its inputs in the order the primitive chain's
# nodes would, and a parent tuple ordered like that chain keeps backward's
# topological order, hence every grad sum, unchanged.


def linear(x: Tensor, W: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ W (+ b): ``matmul`` then ``add``."""
    _check_matmul(x.data, W.data)
    y = x.data @ W.data
    if b is not None:
        y += b.data

    def backward(g):
        if b is not None and b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape))
        _matmul_backward(x, W, g)

    return _make(y, (x, W) if b is None else (x, W, b), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-6) -> Tensor:
    """Zero-mean unit-variance over the last axis, then affine.

    The chain it fuses: mu = mean(x); xc = x - mu; var = mean(xc * xc);
    inv = (var + eps) ** -0.5; out = xc * inv * gamma + beta.
    """
    scale = 1.0 / x.data.shape[-1]
    mu = x.data.sum(axis=-1, keepdims=True) * scale
    xc = x.data - mu
    var_eps = (xc * xc).sum(axis=-1, keepdims=True) * scale + eps
    inv = var_eps**-0.5
    normed = xc * inv

    def backward(g):
        if beta.requires_grad:
            _accumulate(beta, _unbroadcast(g, beta.data.shape))
        if gamma.requires_grad:
            _accumulate(gamma, _unbroadcast(g * normed, gamma.data.shape))
        if not x.requires_grad:
            return
        g_normed = g * gamma.data
        g_xc = g_normed * inv
        g_var = _unbroadcast(g_normed * xc, inv.shape) * -0.5 * var_eps**-1.5
        sq_term = g_var * scale * xc
        g_xc += sq_term  # xc * xc adds into xc twice, one term at a time
        g_xc += sq_term
        _accumulate(x, g_xc)  # the centred path, then the mean path
        g_mu = _unbroadcast(g_xc, mu.shape) * -1.0
        _accumulate(x, np.broadcast_to(g_mu * scale, x.data.shape))

    return _make(normed * gamma.data + beta.data, (x, gamma, beta), backward)


def attention(q: Tensor, k: Tensor, v: Tensor, scale: float) -> Tensor:
    """softmax(q @ k^T * scale) @ v over the last two axes.

    Batch axes broadcast, so K/V of shape [heads, L, d] serve a query of
    shape [B, heads, N, d].
    """
    kt = k.data.swapaxes(-1, -2)
    _check_matmul(q.data, kt)
    probs = _softmax((q.data @ kt) * scale)
    _check_matmul(probs, v.data)

    def backward(g):
        if v.requires_grad:
            _accumulate(v, _unbroadcast(probs.swapaxes(-1, -2) @ g, v.data.shape))
        if not (q.requires_grad or k.requires_grad):
            return
        g_probs = _unbroadcast(g @ v.data.swapaxes(-1, -2), probs.shape)
        g_scores = _softmax_grad(probs, g_probs) * scale
        if q.requires_grad:
            _accumulate(q, _unbroadcast(g_scores @ kt.swapaxes(-1, -2), q.data.shape))
        if k.requires_grad:
            g_kt = _unbroadcast(q.data.swapaxes(-1, -2) @ g_scores, kt.shape)
            _accumulate(k, g_kt.swapaxes(-1, -2))

    return _make(probs @ v.data, (q, k, v), backward)


# -- oracle -------------------------------------------------------------


def finite_diff_grad(f, x: Tensor, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar ``f`` at ``x``, elementwise.

    Independent of autodiff: only perturbs x.data and reads f's value.
    """
    if h <= 0:
        raise ValueError("finite-difference step must be positive")
    base = x.data.copy()
    grad = np.zeros_like(base)
    flat = grad.reshape(-1)
    x_flat = x.data.reshape(-1)
    for i in range(base.size):
        orig = x_flat[i]
        x_flat[i] = orig + h
        f_plus = _scalar_value(f(x))
        x_flat[i] = orig - h
        f_minus = _scalar_value(f(x))
        x_flat[i] = orig
        if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
            raise GradientError("non-finite evaluation in finite-difference oracle")
        flat[i] = (f_plus - f_minus) / (2.0 * h)
    x.data[...] = base
    return grad


def _scalar_value(v) -> float:
    if isinstance(v, Tensor):
        return v.item()
    return float(v)


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    """max |a-b| scaled by the largest magnitude present in either array."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(float(np.abs(a).max(initial=0.0)), float(np.abs(b).max(initial=0.0)), 1e-12)
    return float(np.abs(a - b).max(initial=0.0)) / denom
