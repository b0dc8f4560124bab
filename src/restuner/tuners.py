"""Residual tuners attached in parallel to frozen backbone operations.

Each tuner reads one input, which its class declares: the input of the
operation at its slot (``res_attn``, ``adapter``), or the query third of
its block's fused QKV projection (``prefix``, ``prompt``). It maps that to
a same-width delta that is added to the operation's output. All four kinds
are exactly zero at init (zero output projection, or zero prompt
embeddings), so a freshly tuned model computes the identical function as
the frozen one.
"""

from __future__ import annotations

import numbers
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import tensor as T
from .layers import (
    LinearLayer,
    Module,
    MultiHeadAttention,
    Parameter,
    kaiming_uniform,
    trunc_normal,
)
from .tensor import Tensor

ATTACH_OPS = ("mha", "ffn", "block")


class AttachError(ValueError):
    pass


def _require_positive(cfg, *names) -> None:
    for name in names:
        if getattr(cfg, name) < 1:
            raise ValueError(f"{name} must be >= 1, got {getattr(cfg, name)}")


class Tuner(Module):
    """Each subclass is the one definition of its kind: ``kind`` names it in
    configs and checkpoints, ``label`` in the grids. ``Config`` fields with a
    default are its options, each an int or a bool; the rest (``dim``,
    prefix/prompt ``heads``) come from the backbone. ``reads_q`` selects
    which of its block's named slot inputs (``block``, ``mha``, ``q``,
    ``ffn``; see ``block_forward``) it is called with, ``tuner(input)``:
    with False the one its slot op reads, with True ``q``, the query third
    of its block's fused QKV projection. ``analytic_params`` is its
    closed-form parameter count.
    """

    kind: str
    label: str
    Config: type
    reads_q = False

    @classmethod
    def defaults(cls) -> dict:
        """The kind's options and their default values."""
        return {f.name: f.default for f in fields(cls.Config) if f.default is not MISSING}

    def options(self) -> dict:
        """This tuner's option values, as the checkpoint echoes them."""
        return {name: getattr(self.cfg, name) for name in self.defaults()}


@dataclass
class ResAttnConfig:
    dim: int
    rank: int = 4
    heads: int = 4
    qkv_bias: bool = False

    def __post_init__(self):
        _require_positive(self, "rank", "heads")

    @property
    def scale(self) -> float:
        return self.rank**-0.5


class ResAttnTuner(Tuner):
    """Low-rank multi-head attention tuner.

    QKV projects the input to width 3*rank*heads (kaiming-uniform init,
    a = sqrt(5)); the output projection back to dim is zero-initialized.
    """

    kind = "res_attn"
    label = "Res-Attn."
    Config = ResAttnConfig

    def __init__(self, cfg: ResAttnConfig, rng: np.random.Generator | None):
        self.cfg = cfg
        rh = cfg.rank * cfg.heads
        qkv_b = np.zeros(3 * rh) if cfg.qkv_bias else None
        self.qkv = LinearLayer(kaiming_uniform(rng, cfg.dim, 3 * rh), qkv_b)
        self.o = LinearLayer(np.zeros((rh, cfg.dim)), np.zeros(cfg.dim))

    def __call__(self, x: Tensor) -> Tensor:
        cfg = self.cfg
        return self.o(T.attention(self.qkv(x), cfg.heads, cfg.scale))

    def analytic_params(self, include_bias: bool = False) -> int:
        cfg = self.cfg
        rh = cfg.rank * cfg.heads
        bias = cfg.dim + (3 * rh if cfg.qkv_bias else 0)
        return cfg.dim * 3 * rh + rh * cfg.dim + (bias if include_bias else 0)


@dataclass
class PrefixTunerConfig:
    """Shared by the prefix and prompt kinds; heads is the backbone's."""

    dim: int
    heads: int
    length: int = 10

    def __post_init__(self):
        _require_positive(self, "length")
        if self.dim % self.heads != 0:
            raise ValueError(f"dim {self.dim} not divisible by heads {self.heads}")

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads


class PrefixTuner(Tuner):
    """Attention of the backbone's queries over trainable keys/values.

    The output projection is trainable and zero-initialized, which gives
    the zero-at-init guarantee regardless of the K/V init.
    """

    kind = "prefix"
    label = "Res-Pre."
    Config = PrefixTunerConfig
    reads_q = True

    def __init__(self, cfg: PrefixTunerConfig, rng: np.random.Generator | None):
        self.cfg = cfg
        shape = (cfg.heads, cfg.length, cfg.head_dim)
        self.K = Parameter(trunc_normal(rng, shape))
        self.V = Parameter(trunc_normal(rng, shape))
        self.o = LinearLayer(np.zeros((cfg.dim, cfg.dim)), np.zeros(cfg.dim))

    def __call__(self, q: Tensor) -> Tensor:
        cfg = self.cfg
        return self.o(T.attention(q, cfg.heads, cfg.head_dim**-0.5, kv=(self.K, self.V)))

    def analytic_params(self, include_bias: bool = False) -> int:
        cfg = self.cfg
        n = 2 * cfg.heads * cfg.length * cfg.head_dim + cfg.dim * cfg.dim
        return n + (cfg.dim if include_bias else 0)


class PromptTuner(Tuner):
    """Trainable prompt embeddings, projected to K/V (and back out) by the
    frozen backbone MHA weights, which ``attach`` binds once, as views. Only
    the embeddings train; they start at zero so the tuner is silent at init.

    The shared projections are applied weight-only: folding in the frozen
    biases would break the zero-at-init guarantee for biased backbones.
    """

    kind = "prompt"
    label = "Res-Pro."
    Config = PrefixTunerConfig
    reads_q = True

    def __init__(self, cfg: PrefixTunerConfig, rng: np.random.Generator | None):
        self.cfg = cfg
        self.P = Parameter(np.zeros((cfg.length, cfg.dim)))

    def bind(self, mha: MultiHeadAttention) -> None:
        _, W_k, W_v = np.split(mha.qkv.W.data, 3, axis=1)  # views of the fused q | k | v
        self.frozen = (Tensor(W_k), Tensor(W_v), Tensor(mha.proj.W.data))  # not parameters

    def __call__(self, q: Tensor) -> Tensor:
        cfg = self.cfg
        W_k, W_v, W_o = self.frozen
        kv = (T.linear(self.P, W_k), T.linear(self.P, W_v))  # [length, dim], split by attention
        return T.linear(T.attention(q, cfg.heads, cfg.head_dim**-0.5, kv=kv), W_o)

    def analytic_params(self, include_bias: bool = False) -> int:
        return self.cfg.length * self.cfg.dim


@dataclass
class AdapterConfig:
    dim: int
    bottleneck: int = 4

    def __post_init__(self):
        _require_positive(self, "bottleneck")


class AdapterTuner(Tuner):
    """Parallel bottleneck adapter: down -> GELU -> zero-init up, one ``ffn``."""

    kind = "adapter"
    label = "Res-Ada."
    Config = AdapterConfig

    def __init__(self, cfg: AdapterConfig, rng: np.random.Generator | None):
        self.cfg = cfg
        self.down = LinearLayer(
            kaiming_uniform(rng, cfg.dim, cfg.bottleneck), np.zeros(cfg.bottleneck)
        )
        self.up = LinearLayer(np.zeros((cfg.bottleneck, cfg.dim)), np.zeros(cfg.dim))

    def __call__(self, x: Tensor) -> Tensor:
        return T.ffn(x, self.down.W, self.down.b, self.up.W, self.up.b)

    def analytic_params(self, include_bias: bool = False) -> int:
        cfg = self.cfg
        return 2 * cfg.dim * cfg.bottleneck + (cfg.bottleneck + cfg.dim if include_bias else 0)


TUNERS = {cls.kind: cls for cls in (AdapterTuner, PrefixTuner, PromptTuner, ResAttnTuner)}
TUNER_KINDS = tuple(sorted(TUNERS))


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


def build_tuner(kind: str, dim: int, heads: int, options: dict, rng: np.random.Generator | None):
    """Construct a tuner of the given kind for a backbone of width dim.

    Each option must have its default's type: a bool option takes only a
    bool, an int option only a non-bool integer. An unknown option, a value
    of another type or an invalid value raises AttachError naming it.
    """
    cls = TUNERS[kind]
    defaults = cls.defaults()
    opts = dict(options)
    unknown = sorted(set(opts) - set(defaults))
    if unknown:
        raise AttachError(f"unknown tuner option(s) for {kind}: {unknown}")
    backbone = {"dim": dim, "heads": heads}
    given = {f.name: backbone[f.name] for f in fields(cls.Config) if f.name not in defaults}
    for name, value in opts.items():
        want = type(defaults[name])
        if not isinstance(value, numbers.Integral) or isinstance(value, bool) != (want is bool):
            raise AttachError(f"{kind} tuner: {name} must be {want.__name__}, got {value!r}")
        given[name] = want(value)
    try:
        cfg = cls.Config(**given)
    except ValueError as e:
        raise AttachError(f"{kind} tuner: {e}")
    return cls(cfg, rng)


def attach(model, specs, draw: bool = True) -> None:
    """Attach tuners to a built model, one per (block, op) slot.

    It leaves ``model.tuners`` in forward slot order, by block then
    ``ATTACH_OPS``, whatever order specs come in; every reader iterates it
    as given. Each slot draws from a generator seeded by the backbone seed
    and the slot, unless ``draw`` is False: then its weights are zeros.
    Every tuner is built before any is inserted, so an AttachError leaves
    ``model.tuners`` as it was.
    """
    built = {}
    for spec in specs:
        if not 0 <= spec.block_index < model.cfg.depth:
            raise AttachError(
                f"block index {spec.block_index} out of range for depth {model.cfg.depth}"
            )
        slot = (spec.block_index, spec.op)
        if slot in model.tuners or slot in built:
            raise AttachError(f"slot (block={slot[0]}, op={slot[1]!r}) already has a tuner")
        seed = model.cfg.seed + 7919 * (1 + spec.block_index) + 104729 * ATTACH_OPS.index(spec.op)
        rng = np.random.default_rng(seed) if draw else None
        tuner = build_tuner(spec.kind, model.cfg.dim, model.cfg.heads, spec.options, rng)
        if isinstance(tuner, PromptTuner):  # the one kind that reads its block's weights
            tuner.bind(model.blocks[spec.block_index].mha)
        built[slot] = tuner
    model.tuners.update(built)
    for slot in sorted(model.tuners, key=lambda s: (s[0], ATTACH_OPS.index(s[1]))):
        model.tuners[slot] = model.tuners.pop(slot)


# -- parameter accounting -----------------------------------------------


def _trainable_count(module: Module, include_bias: bool) -> int:
    """Trainable values in module; a 1-D parameter counts as a bias."""
    params = [p for p in module.parameters() if p.requires_grad]
    return sum(p.data.size for p in params if include_bias or p.data.ndim != 1)


def count_trainable_params(model, include_head: bool = False, include_bias: bool = False):
    """Per-component trainable counts, two ways.

    Returns (counts, total, analytic_total): counts/total come from summing
    trainable flags over actual buffers; analytic_total from per-kind
    closed forms. The two must agree exactly.
    """
    counts = {
        f"tuner.{block}.{op}[{tuner.kind}]": _trainable_count(tuner, include_bias)
        for (block, op), tuner in model.tuners.items()
    }
    if include_head:
        counts["head"] = _trainable_count(model.head, include_bias)
    total = sum(counts.values())

    analytic = sum(t.analytic_params(include_bias=include_bias) for t in model.tuners.values())
    if include_head:
        dim, classes = model.head.W.data.shape
        analytic += dim * classes + (classes if include_bias else 0)
    return counts, total, analytic
