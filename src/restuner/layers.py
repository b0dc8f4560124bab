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


# -- init helpers -------------------------------------------------------


def trunc_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    """Normal(0, std) resampled until within 2 std (ViT-style init)."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out


def kaiming_uniform(rng: np.random.Generator, d_in: int, d_out: int) -> np.ndarray:
    """Kaiming-uniform with negative slope a = sqrt(5).

    gain^2 = 2 / (1 + a^2) = 1/3, bound = sqrt(3) * gain / sqrt(fan_in)
    = sqrt(1 / fan_in). fan_in is the input width d_in.
    """
    bound = math.sqrt(1.0 / d_in)
    return rng.uniform(-bound, bound, size=(d_in, d_out))


class LinearLayer(Module):
    """y = x @ W (+ b). W is [d_in, d_out]."""

    def __init__(self, W: np.ndarray, b=None, trainable: bool = True):
        self.W = Parameter(W, trainable=trainable)
        self.b = Parameter(b, trainable=trainable) if b is not None else None

    def forward(self, x: Tensor) -> Tensor:
        return T.linear(x, self.W, self.b)

    __call__ = forward


def make_linear(
    rng: np.random.Generator,
    d_in: int,
    d_out: int,
    bias: bool = True,
    std: float = 0.02,
    trainable: bool = True,
) -> LinearLayer:
    W = trunc_normal(rng, (d_in, d_out), std=std)
    b = np.zeros(d_out) if bias else None
    return LinearLayer(W, b, trainable=trainable)


class LayerNorm(Module):
    def __init__(self, dim: int, eps: float = 1e-6, trainable: bool = True):
        self.gamma = Parameter(np.ones(dim), trainable=trainable)
        self.beta = Parameter(np.zeros(dim), trainable=trainable)
        self.eps = eps

    def forward(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta, self.eps)

    __call__ = forward


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


def split_heads(qkv: Tensor, heads: int, head_dim: int):
    """[B, N, 3*heads*head_dim] fused projection -> q, k, v, each [B, heads, N, head_dim]."""
    B, N, _ = qkv.shape
    qkv = qkv.reshape(B, N, 3, heads, head_dim).permute(2, 0, 3, 1, 4)
    return qkv[0], qkv[1], qkv[2]


def merge_heads(y: Tensor) -> Tensor:
    """[B, heads, N, head_dim] -> [B, N, heads*head_dim]."""
    B, heads, N, head_dim = y.shape
    return y.permute(0, 2, 1, 3).reshape(B, N, heads * head_dim)


class MultiHeadAttention(Module):
    """Standard scaled dot-product attention with a fused QKV projection.

    forward returns (output, per-head query) — the query is consumed by
    prefix/prompt tuners, which reuse the backbone's query stream.
    """

    def __init__(self, cfg: MHAConfig, rng: np.random.Generator, trainable: bool = True):
        self.cfg = cfg
        self.qkv = make_linear(rng, cfg.dim, 3 * cfg.dim, bias=cfg.qkv_bias, trainable=trainable)
        self.proj = make_linear(rng, cfg.dim, cfg.dim, bias=True, trainable=trainable)

    def forward(self, x: Tensor):
        cfg = self.cfg
        q, k, v = split_heads(self.qkv(x), cfg.heads, cfg.head_dim)
        y = merge_heads(T.attention(q, k, v, cfg.head_dim**-0.5))
        return self.proj(y), q

    __call__ = forward


class MLP(Module):
    """Transformer FFN: linear -> GELU -> linear, hidden = ratio * dim."""

    def __init__(self, dim: int, rng: np.random.Generator, ratio: int = 4, trainable: bool = True):
        hidden = ratio * dim
        self.fc1 = make_linear(rng, dim, hidden, trainable=trainable)
        self.fc2 = make_linear(rng, hidden, dim, trainable=trainable)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(T.gelu(self.fc1(x)))

    __call__ = forward
