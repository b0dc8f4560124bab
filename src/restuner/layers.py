"""Neural layers used by the backbone and the tuner zoo.

A parameter is trainable exactly when it requires grad, so a frozen
backbone and its trainable tuners can live in one graph; only trainable
parameters receive grads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor, layer_norm


class Parameter(Tensor):
    """Model tensor, trainable (``requires_grad``) unless built frozen."""

    __slots__ = ()

    def __init__(self, data, trainable: bool = True):
        super().__init__(data, requires_grad=trainable)


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

    def __init__(self, W: np.ndarray, b=None, trainable: bool = True):
        self.W = Parameter(W, trainable=trainable)
        self.b = Parameter(b, trainable=trainable) if b is not None else None

    def __call__(self, x: Tensor, gelu: bool = False) -> Tensor:
        return T.linear(x, self.W, self.b, gelu=gelu)


def make_linear(
    rng: np.random.Generator | None, d_in: int, d_out: int, bias: bool = True, trainable: bool = True
) -> LinearLayer:
    W = trunc_normal(rng, (d_in, d_out))
    b = np.zeros(d_out) if bias else None
    return LinearLayer(W, b, trainable=trainable)


class LayerNorm(Module):
    def __init__(self, dim: int, trainable: bool = True):
        self.gamma = Parameter(np.ones(dim), trainable=trainable)
        self.beta = Parameter(np.zeros(dim), trainable=trainable)

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta)


@dataclass
class MHAConfig:
    dim: int
    heads: int
    qkv_bias: bool = True

    def __post_init__(self):
        if self.dim % self.heads != 0:
            raise ValueError(f"dim {self.dim} not divisible by heads {self.heads}")

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads


class MultiHeadAttention(Module):
    """Standard scaled dot-product attention with a fused QKV projection.

    A call returns (output, fused qkv projection): prefix/prompt tuners
    read its query third, reusing the backbone's query stream.
    """

    def __init__(self, cfg: MHAConfig, rng: np.random.Generator | None, trainable: bool = True):
        self.cfg = cfg
        self.qkv = make_linear(rng, cfg.dim, 3 * cfg.dim, bias=cfg.qkv_bias, trainable=trainable)
        self.proj = make_linear(rng, cfg.dim, cfg.dim, bias=True, trainable=trainable)

    def __call__(self, x: Tensor):
        cfg = self.cfg
        qkv = self.qkv(x)
        return self.proj(T.attention(qkv, cfg.heads, cfg.head_dim**-0.5)), qkv


class MLP(Module):
    """Transformer FFN: linear -> GELU (fc1's epilogue) -> linear, hidden = ratio * dim."""

    def __init__(self, dim: int, rng: np.random.Generator | None, ratio: int = 4, trainable: bool = True):
        hidden = ratio * dim
        self.fc1 = make_linear(rng, dim, hidden, trainable=trainable)
        self.fc2 = make_linear(rng, hidden, dim, trainable=trainable)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(self.fc1(x, gelu=True))
