"""Residual tuners attached in parallel to frozen backbone operations.

Each tuner maps the operation's input to a same-width delta that is added
to the operation's output. All four kinds are exactly zero at init (zero
output projection, or zero prompt embeddings), so a freshly tuned model
computes the identical function as the frozen one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .layers import (
    LinearLayer,
    Module,
    MultiHeadAttention,
    Parameter,
    kaiming_uniform,
    merge_heads,
    split_heads,
    trunc_normal,
)
from .tensor import ShapeError, Tensor

TUNER_KINDS = ("adapter", "prefix", "prompt", "res_attn")
ATTACH_OPS = ("mha", "ffn", "block")


class AttachError(ValueError):
    pass


@dataclass
class ResAttnConfig:
    dim: int
    rank: int = 4
    heads: int = 4
    qkv_bias: bool = False

    def __post_init__(self):
        if self.rank < 1 or self.heads < 1:
            raise ValueError("rank and heads must be >= 1")

    @property
    def scale(self) -> float:
        return self.rank**-0.5


class ResAttnTuner(Module):
    """Low-rank multi-head attention tuner.

    QKV projects the input to width 3*rank*heads (kaiming-uniform init,
    a = sqrt(5)); the output projection back to dim is zero-initialized.
    """

    kind = "res_attn"

    def __init__(self, cfg: ResAttnConfig, rng: np.random.Generator):
        self.cfg = cfg
        rh = cfg.rank * cfg.heads
        qkv_b = np.zeros(3 * rh) if cfg.qkv_bias else None
        self.qkv = LinearLayer(kaiming_uniform(rng, cfg.dim, 3 * rh), qkv_b)
        self.o = LinearLayer(np.zeros((rh, cfg.dim)), np.zeros(cfg.dim))

    def forward(self, x: Tensor) -> Tensor:
        cfg = self.cfg
        if x.shape[-1] != cfg.dim:
            raise ShapeError(f"tuner width {cfg.dim} vs input shape {x.shape}")
        q, k, v = split_heads(self.qkv(x), cfg.heads, cfg.rank)
        return self.o(merge_heads(T.attention(q, k, v, cfg.scale)))

    __call__ = forward


@dataclass
class PrefixTunerConfig:
    dim: int
    heads: int
    length: int = 10

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("prefix length must be >= 1")
        if self.dim % self.heads != 0:
            raise ValueError(f"dim {self.dim} not divisible by heads {self.heads}")

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads


class PrefixTuner(Module):
    """Attention of the backbone's queries over trainable keys/values.

    The output projection is trainable and zero-initialized, which gives
    the zero-at-init guarantee regardless of the K/V init.
    """

    kind = "prefix"

    def __init__(self, cfg: PrefixTunerConfig, rng: np.random.Generator):
        self.cfg = cfg
        shape = (cfg.heads, cfg.length, cfg.head_dim)
        self.K = Parameter(trunc_normal(rng, shape))
        self.V = Parameter(trunc_normal(rng, shape))
        self.o = LinearLayer(np.zeros((cfg.dim, cfg.dim)), np.zeros(cfg.dim))

    def forward(self, q_backbone: Tensor) -> Tensor:
        cfg = self.cfg
        _, heads, _, head_dim = q_backbone.shape
        if heads != cfg.heads or head_dim != cfg.head_dim:
            raise ShapeError(
                f"prefix tuner heads/head_dim ({cfg.heads},{cfg.head_dim}) vs query shape {q_backbone.shape}"
            )
        y = T.attention(q_backbone, self.K, self.V, cfg.head_dim**-0.5)
        return self.o(merge_heads(y))

    __call__ = forward


@dataclass
class PromptTunerConfig:
    dim: int
    heads: int
    length: int = 10

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("prompt length must be >= 1")
        if self.dim % self.heads != 0:
            raise ValueError(f"dim {self.dim} not divisible by heads {self.heads}")

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads


class PromptTuner(Module):
    """Trainable prompt embeddings, projected to K/V (and back out) by the
    frozen backbone MHA weights. Only the embeddings train; they start at
    zero so the tuner is silent at init.

    The shared projections are applied weight-only: folding in the frozen
    biases would break the zero-at-init guarantee for biased backbones.
    """

    kind = "prompt"

    def __init__(self, cfg: PromptTunerConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.P = Parameter(np.zeros((cfg.length, cfg.dim)))

    def forward(self, q_backbone: Tensor, mha: MultiHeadAttention) -> Tensor:
        cfg = self.cfg
        _, heads, _, head_dim = q_backbone.shape
        if heads != cfg.heads or head_dim != cfg.head_dim:
            raise ShapeError(
                f"prompt tuner heads/head_dim ({cfg.heads},{cfg.head_dim}) vs query shape {q_backbone.shape}"
            )
        dim = cfg.dim
        W = mha.qkv.W  # [dim, 3*dim] fused; columns dim:2dim are K, 2dim: are V
        k_flat = self.P @ W[:, dim : 2 * dim]
        v_flat = self.P @ W[:, 2 * dim :]
        K = k_flat.reshape(cfg.length, heads, head_dim).permute(1, 0, 2)
        V = v_flat.reshape(cfg.length, heads, head_dim).permute(1, 0, 2)
        y = T.attention(q_backbone, K, V, head_dim**-0.5)
        return merge_heads(y) @ mha.proj.W

    __call__ = forward


@dataclass
class AdapterConfig:
    dim: int
    bottleneck: int = 4

    def __post_init__(self):
        if self.bottleneck < 1:
            raise ValueError("bottleneck width must be >= 1")


class AdapterTuner(Module):
    """Parallel bottleneck adapter: down -> GELU -> zero-init up."""

    kind = "adapter"

    def __init__(self, cfg: AdapterConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.down = LinearLayer(
            kaiming_uniform(rng, cfg.dim, cfg.bottleneck), np.zeros(cfg.bottleneck)
        )
        self.up = LinearLayer(np.zeros((cfg.bottleneck, cfg.dim)), np.zeros(cfg.dim))

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.cfg.dim:
            raise ShapeError(f"adapter width {self.cfg.dim} vs input shape {x.shape}")
        return self.up(T.gelu(self.down(x)))

    __call__ = forward


@dataclass
class AttachSpec:
    """One tuner at one (block, op) slot."""

    block_index: int
    op: str
    kind: str
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.op not in ATTACH_OPS:
            raise AttachError(f"unknown attach op {self.op!r}; expected one of {ATTACH_OPS}")
        if self.kind not in TUNER_KINDS:
            raise AttachError(f"unknown tuner kind {self.kind!r}; expected one of {TUNER_KINDS}")


def build_tuner(kind: str, dim: int, heads: int, options: dict, rng: np.random.Generator):
    """Construct a tuner of the given kind for a backbone of width dim."""
    opts = dict(options)
    if kind == "res_attn":
        cfg = ResAttnConfig(
            dim=dim,
            rank=int(opts.pop("rank", 4)),
            heads=int(opts.pop("heads", 4)),
            qkv_bias=bool(opts.pop("qkv_bias", False)),
        )
        tuner = ResAttnTuner(cfg, rng)
    elif kind == "prefix":
        cfg = PrefixTunerConfig(dim=dim, heads=heads, length=int(opts.pop("length", 10)))
        tuner = PrefixTuner(cfg, rng)
    elif kind == "prompt":
        cfg = PromptTunerConfig(dim=dim, heads=heads, length=int(opts.pop("length", 10)))
        tuner = PromptTuner(cfg, rng)
    elif kind == "adapter":
        cfg = AdapterConfig(dim=dim, bottleneck=int(opts.pop("bottleneck", 4)))
        tuner = AdapterTuner(cfg, rng)
    else:
        raise AttachError(f"unknown tuner kind {kind!r}")
    if opts:
        raise AttachError(f"unknown tuner option(s) for {kind}: {sorted(opts)}")
    return tuner


def attach(model, specs) -> None:
    """Attach tuners to a built model, one per (block, op) slot.

    The forward pass visits slots in a fixed (block, op) order, so the
    result is independent of the order specs are listed in.
    """
    for spec in specs:
        if not 0 <= spec.block_index < model.cfg.depth:
            raise AttachError(
                f"block index {spec.block_index} out of range for depth {model.cfg.depth}"
            )
        slot = (spec.block_index, spec.op)
        if slot in model.tuners:
            raise AttachError(f"slot (block={slot[0]}, op={slot[1]!r}) already has a tuner")
        seed = model.cfg.seed + 7919 * (1 + spec.block_index) + 104729 * ATTACH_OPS.index(spec.op)
        rng = np.random.default_rng(seed)
        model.tuners[slot] = build_tuner(
            spec.kind, model.cfg.dim, model.cfg.heads, spec.options, rng
        )


# -- parameter accounting -----------------------------------------------


def _is_bias(name: str, param: Parameter) -> bool:
    return param.data.ndim == 1


def count_trainable_params(model, include_head: bool = False, include_bias: bool = False):
    """Per-component trainable counts, two ways.

    Returns (counts, total, analytic_total): counts/total come from summing
    trainable flags over actual buffers; analytic_total from per-kind
    closed forms. The two must agree exactly.
    """
    counts: dict[str, int] = {}
    for (block, op), tuner in sorted(model.tuners.items(), key=_slot_key):
        n = 0
        for name, p in tuner.named_parameters():
            if not p.trainable:
                continue
            if not include_bias and _is_bias(name, p):
                continue
            n += p.data.size
        counts[f"tuner.{block}.{op}[{tuner.kind}]"] = n
    if include_head:
        n = 0
        for name, p in model.head.named_parameters():
            if p.trainable and (include_bias or not _is_bias(name, p)):
                n += p.data.size
        counts["head"] = n
    total = sum(counts.values())

    analytic = 0
    for (block, op), tuner in model.tuners.items():
        analytic += analytic_tuner_params(tuner, include_bias=include_bias)
    if include_head:
        dim, classes = model.head.W.data.shape
        analytic += dim * classes + (classes if include_bias else 0)
    return counts, total, analytic


def analytic_tuner_params(tuner, include_bias: bool = False) -> int:
    """Closed-form parameter count for one tuner."""
    cfg = tuner.cfg
    if tuner.kind == "res_attn":
        rh = cfg.rank * cfg.heads
        n = cfg.dim * 3 * rh + rh * cfg.dim
        if include_bias:
            n += cfg.dim + (3 * rh if cfg.qkv_bias else 0)
        return n
    if tuner.kind == "prefix":
        n = 2 * cfg.heads * cfg.length * cfg.head_dim + cfg.dim * cfg.dim
        if include_bias:
            n += cfg.dim
        return n
    if tuner.kind == "prompt":
        return cfg.length * cfg.dim
    if tuner.kind == "adapter":
        n = 2 * cfg.dim * cfg.bottleneck
        if include_bias:
            n += cfg.bottleneck + cfg.dim
        return n
    raise AttachError(f"unknown tuner kind {tuner.kind!r}")


def _slot_key(item):
    (block, op), _ = item
    return (block, ATTACH_OPS.index(op))
