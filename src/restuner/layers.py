"""Neural layers used by the backbone and the tuner zoo.

A parameter is trainable exactly when it requires grad, so a frozen
backbone and its trainable tuners can live in one graph; only trainable
parameters receive grads. Every layer builds trainable: the model that
owns a layer decides whether to freeze it. A layer runs the same chain
whether it records or not; how much of a batch a forward that records
nothing holds at once is the model's decision (``backbone.STREAM_VALUES``).
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .tensor import Tensor, layer_norm


class Parameter(Tensor):
    """Model tensor, built trainable (``requires_grad``)."""

    __slots__ = ()

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Minimal container: discovers parameters by attribute walk."""

    def named_parameters(self, prefix: str = ""):
        for key, val in vars(self).items():
            if isinstance(val, Parameter):
                yield prefix + key, val
            elif isinstance(val, Module):
                yield from val.named_parameters(f"{prefix}{key}.")
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Parameter):
                        yield f"{prefix}{key}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(f"{prefix}{key}.{i}.")

    def parameters(self):
        for _, p in self.named_parameters():
            yield p


# -- init helpers: each returns zeros given no rng, so a load draws nothing


INIT_STD = 0.02  # the ViT-style init's standard deviation


def trunc_normal(rng: np.random.Generator | None, shape) -> np.ndarray:
    """Normal(0, INIT_STD) resampled until within 2 std (ViT-style init)."""
    if rng is None:
        return np.zeros(shape)
    out = rng.normal(0.0, INIT_STD, size=shape)
    flat = out.reshape(-1)
    idx = np.flatnonzero(np.abs(flat) > 2.0 * INIT_STD)
    while idx.size:  # only the entries just redrawn can still be out of range
        flat[idx] = rng.normal(0.0, INIT_STD, size=idx.size)
        idx = idx[np.abs(flat[idx]) > 2.0 * INIT_STD]
    return out


def kaiming_uniform(rng: np.random.Generator | None, d_in: int, d_out: int) -> np.ndarray:
    """Kaiming-uniform with negative slope a = sqrt(5).

    gain^2 = 2 / (1 + a^2) = 1/3, bound = sqrt(3) * gain / sqrt(fan_in)
    = sqrt(1 / fan_in). fan_in is the input width d_in.
    """
    if rng is None:
        return np.zeros((d_in, d_out))
    bound = math.sqrt(1.0 / d_in)
    return rng.uniform(-bound, bound, size=(d_in, d_out))


class LinearLayer(Module):
    """y = x @ W (+ b). W is [d_in, d_out]."""

    def __init__(self, W: np.ndarray, b=None):
        self.W = Parameter(W)
        self.b = Parameter(b) if b is not None else None

    def __call__(self, x: Tensor, gelu: bool = False) -> Tensor:
        return T.linear(x, self.W, self.b, gelu=gelu)


def make_linear(rng: np.random.Generator | None, d_in: int, d_out: int, bias: bool = True) -> LinearLayer:
    W = trunc_normal(rng, (d_in, d_out))
    b = np.zeros(d_out) if bias else None
    return LinearLayer(W, b)


class LayerNorm(Module):
    def __init__(self, dim: int):
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta)


class MultiHeadAttention(Module):
    """Standard scaled dot-product attention with a fused QKV projection:
    the chain qkv ``linear``, ``attention``, proj ``linear``. A call returns
    (output, qkv), and prefix/prompt tuners read q as the first ``dim``
    columns of qkv: the backbone's query stream."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator | None, qkv_bias: bool = True):
        if dim % heads != 0:
            raise ValueError(f"dim {dim} not divisible by heads {heads}")
        self.heads = heads
        self.scale = (dim // heads) ** -0.5
        self.qkv = make_linear(rng, dim, 3 * dim, bias=qkv_bias)
        self.proj = make_linear(rng, dim, dim, bias=True)

    def __call__(self, x: Tensor):
        qkv = self.qkv(x)
        return self.proj(T.attention(qkv, self.heads, self.scale)), qkv


class MLP(Module):
    """Transformer FFN: ``fc1`` with GELU as its epilogue, then ``fc2``;
    hidden = ratio * dim."""

    def __init__(self, dim: int, rng: np.random.Generator | None, ratio: int = 4):
        hidden = ratio * dim
        self.fc1 = make_linear(rng, dim, hidden)
        self.fc2 = make_linear(rng, hidden, dim)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(self.fc1(x, gelu=True))
