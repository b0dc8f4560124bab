"""Frozen ViT-style encoder: patch embed, pre-norm blocks, classifier head.

The backbone plays the role of the pre-trained operation set; tuners are
added in parallel to MHA / FFN / whole-block outputs. Position embeddings
are fixed sinusoidal so the frozen model carries no trainable residue —
the trainable set is exactly tuners + head.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import (
    LayerNorm,
    Module,
    MultiHeadAttention,
    MLP,
    INIT_STD,
    Parameter,
    make_linear,
    trunc_normal,
)
from .tensor import ShapeError, Tensor, broadcast_to, concat, is_grad_enabled, no_grad
from .tuners import ATTACH_OPS, Tuner, attach


class ConfigError(ValueError):
    pass


# The token rows of the last block's MLP in a forward that records nothing:
# the class token, which the head reads, and one more, since numpy runs a
# one-row product as gemv, whose sums differ in the last bit from gemm's.
HEAD_ROWS = 2

# The most values that a forward recording nothing holds in its widest
# backbone array, the fused qkv or the MLP hidden layer, per block of items
STREAM_VALUES = 1 << 18


@dataclass
class BackboneConfig:
    dim: int = 16
    depth: int = 2
    heads: int = 2
    patch: int = 4
    image_size: int = 8
    in_channels: int = 1
    num_classes: int = 4
    seed: int = 0
    qkv_bias: bool = True
    mlp_ratio: int = 4

    def __post_init__(self):
        for name in ("dim", "depth", "heads", "patch", "image_size", "in_channels",
                     "num_classes", "mlp_ratio"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.dim % self.heads != 0:
            raise ConfigError(f"dim {self.dim} not divisible by heads {self.heads}")
        if self.image_size % self.patch != 0:
            raise ConfigError(
                f"image_size {self.image_size} not divisible by patch {self.patch}"
            )

    @property
    def num_patches(self) -> int:
        return (self.image_size // self.patch) ** 2

    @property
    def tokens(self) -> int:
        return self.num_patches + 1  # class token


class Block(Module):
    """Pre-norm transformer block: x + MHA(n1(x)), then u + FFN(n2(u))."""

    def __init__(self, cfg: BackboneConfig, rng: np.random.Generator | None):
        self.norm1 = LayerNorm(cfg.dim)
        self.mha = MultiHeadAttention(cfg.dim, cfg.heads, rng, qkv_bias=cfg.qkv_bias)
        self.norm2 = LayerNorm(cfg.dim)
        self.mlp = MLP(cfg.dim, rng, ratio=cfg.mlp_ratio)


def sinusoidal_positions(n: int, dim: int) -> np.ndarray:
    """Fixed sin/cos position table [n, dim].

    Scaled by ``INIT_STD``, down to the magnitude of the projections' init,
    so the position signal does not drown the patch content at desk scale.
    """
    pos = np.arange(n)[:, None]
    i = np.arange(dim)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / dim)
    table = np.zeros((n, dim))
    table[:, 0::2] = np.sin(angle[:, 0::2])
    table[:, 1::2] = np.cos(angle[:, 1::2])
    return INIT_STD * table


class ModelGraph(Module):
    """Backbone + tuners + classifier head, weights drawn from ``rng`` (zeros
    given None); ``build_backbone`` builds every one. The backbone is frozen
    here, the one place that decides it, so it never allocates a grad buffer."""

    def __init__(self, cfg: BackboneConfig, rng: np.random.Generator | None):
        self.tuners: dict[tuple[int, str], Tuner] = {}  # first: ``parameters`` walks it
        self.cfg = cfg
        patch_dim = cfg.in_channels * cfg.patch * cfg.patch
        self.patch_embed = make_linear(rng, patch_dim, cfg.dim)
        self.cls_token = Parameter(trunc_normal(rng, (1, 1, cfg.dim)))
        self.pos = sinusoidal_positions(cfg.tokens, cfg.dim)  # fixed, not a Parameter
        self.blocks = [Block(cfg, rng) for _ in range(cfg.depth)]
        self.final_norm = LayerNorm(cfg.dim)
        for p in self.parameters():
            p.requires_grad = False
        self.head = make_linear(rng, cfg.dim, cfg.num_classes)
        self.training = False  # True while ``train`` runs; perfbench's tracer reads it

    # tuners is a plain dict, so extend the attribute walk
    def named_parameters(self, prefix: str = ""):
        yield from super().named_parameters(prefix)
        for (block, op), tuner in self.tuners.items():
            yield from tuner.named_parameters(f"{prefix}tuners.{block}.{op}.")

    def _pixels(self, images) -> np.ndarray:
        """``images``, an array of any float dtype or a ``Tensor``, as an
        array of the model's image shape, not copied."""
        cfg = self.cfg
        data = images.data if isinstance(images, Tensor) else np.asarray(images)
        if data.ndim != 4 or data.shape[1:] != (cfg.in_channels, cfg.image_size, cfg.image_size):
            raise ShapeError(
                f"expected images [B,{cfg.in_channels},{cfg.image_size},{cfg.image_size}], got {data.shape}"
            )
        return data

    def _embed(self, data: np.ndarray) -> Tensor:
        """Patch embed -> class token -> positions: block 0's input. The
        patch cut is the images' one float64 copy."""
        cfg = self.cfg
        x = self.patch_embed(Tensor(patchify(data, cfg.patch)))  # keeps no patch tensor
        cls = broadcast_to(self.cls_token, (len(data), 1, cfg.dim))
        x = concat([cls, x], axis=1)  # the patch embedding dies here
        return x + Tensor(self.pos[None, :, :])

    def _trunk(self, data: np.ndarray, rows: int | None = None) -> Tensor:
        """Embed -> blocks -> final norm; given ``rows``, the last block
        keeps only its first ``rows`` token rows."""
        named = {"block": self._embed(data)}
        for i in range(self.cfg.depth):  # each block takes its input over from ``named``
            named = {"block": block_forward(self, i, named, rows if i == self.cfg.depth - 1 else None)}
        return self.final_norm(named["block"])

    def __call__(self, images) -> Tensor:
        """Backbone -> class token -> head logits. ``images`` is an array of
        any float dtype, or a ``Tensor``.

        A forward that records nothing runs the backbone over the fewest
        equal blocks of whole items that keep each item block's widest
        array within ``STREAM_VALUES`` values (or one item), and the last
        transformer block keeps only the first ``HEAD_ROWS`` token rows, as
        the head reads only the class token's. The item blocks' class rows
        are gathered and the head runs once, on the whole batch, so its
        product keeps the recorded forward's shape and bits."""
        data = self._pixels(images)
        if is_grad_enabled():
            return self.head(self._trunk(data)[:, 0, :])
        cfg = self.cfg
        per_block = max(1, STREAM_VALUES // (cfg.tokens * max(3, cfg.mlp_ratio) * cfg.dim))
        blocks = np.array_split(data, max(1, -(-len(data) // per_block)))  # views, sizes within one
        return self.head(concat([self._trunk(part, HEAD_ROWS)[:, 0, :] for part in blocks]))

    def features(self, images) -> tuple[list[dict[str, Tensor]], Tensor]:
        """The frozen path's features at every token row, recording nothing
        and calling no tuner: each block's named slot inputs (``block``,
        ``mha``, ``q``, ``ffn``; see ``block_forward``), each ``[B, N,
        dim]``, and ``final_norm`` of the last block's output. ``q`` is the
        ``[..., dim]`` view of the block's fused qkv that a q reader reads."""
        inputs = []
        with no_grad():
            x = self._embed(self._pixels(images))
            for i in range(self.cfg.depth):
                inputs.append({"block": x})
                x = block_forward(self, i, inputs[i], features=True)
                inputs[i]["q"] = inputs[i]["q"][..., : self.cfg.dim]
            return inputs, self.final_norm(x)


def build_backbone(cfg: BackboneConfig, specs=(), draw: bool = True) -> ModelGraph:
    """The one model builder: frozen backbone, trainable head and a tuner per
    spec (``attach``), drawn from generators seeded by ``cfg.seed``; given
    ``draw`` False, zeros and no generator, for a load that overwrites them."""
    model = ModelGraph(cfg, np.random.default_rng(cfg.seed) if draw else None)
    attach(model, specs, draw)
    return model


def trainable_parameters(model: ModelGraph) -> list:
    """(name, param) pairs of the trainable params, in the parameter walk's
    order, which is the checkpoint's tensor order."""
    return [(n, p) for n, p in model.named_parameters() if p.requires_grad]


def patchify(images: np.ndarray, patch: int) -> np.ndarray:
    """[B,C,H,W] -> [B, num_patches, C*patch*patch], row-major patch order,
    as one new float64 array: the cut and the widening are one copy."""
    B, C, H, W = images.shape
    gh, gw = H // patch, W // patch
    x = images.reshape(B, C, gh, patch, gw, patch)
    x = np.array(x.transpose(0, 2, 4, 1, 3, 5), dtype=np.float64, order="C")  # B, gh, gw, C, p, p
    return x.reshape(B, gh * gw, C * patch * patch)


def _first_rows(t: Tensor, rows: int | None) -> Tensor:
    return t if rows is None else t[:, :rows]


def block_forward(model: ModelGraph, index: int, named: dict, rows: int | None = None,
                  features: bool = False) -> Tensor:
    """One pre-norm block with any tuners attached at its slots; given
    ``rows``, only the first ``rows`` token rows of its output.

    ``named`` holds the block's input as ``block`` and becomes the block's
    table of named slot inputs: ``block`` (x), ``mha`` (``norm1(x)``), ``q``
    (the MHA's fused qkv projection, whose first ``dim`` columns are the
    query stream) and ``ffn`` (``norm2`` of the MHA residual). The tuner at
    op reads a ``[..., dim]`` view of ``q`` if its ``reads_q`` says so, else
    the name ``op``; each name is dropped once no later tuner reads it. A
    caller that keeps no other reference to the input therefore frees it at
    the residual add unless the block tuner reads it. The block tuner's
    delta is computed before the FFN and added last. Given ``features``,
    every name stays in ``named`` and no tuner is called. Given ``rows``,
    the MLP reads the first ``rows`` rows of ``norm2``, and only those rows
    of the residual stream and of each delta are added to its output;
    every other op reads every token.
    """
    block = model.blocks[index]
    tuners = {op: model.tuners.get((index, op)) for op in ATTACH_OPS if not features}
    reads = {op: "q" if t.reads_q else op for op, t in tuners.items() if t is not None}
    x = named["block"]
    dim = x.shape[-1]

    def keep(*ops):  # drop each name no tuner at ``ops`` reads; ``features`` keeps all
        if not features:
            for name in set(named) - {reads.get(op) for op in ops}:
                del named[name]

    def delta(op):
        return tuners[op](named["q"][..., :dim] if reads[op] == "q" else named[op])

    named["mha"] = block.norm1(x)
    u, named["q"] = block.mha(named["mha"])
    keep("mha", "block", "ffn")
    u = x + u  # the residual stream; the MHA output dies here
    del x  # and so does the block input, unless a tuner reads it
    if "mha" in reads:
        u = u + delta("mha")
    keep("block", "ffn")
    block_delta = _first_rows(delta("block"), rows) if "block" in reads else None
    keep("ffn")
    named["ffn"] = block.norm2(u)
    y = block.mlp(_first_rows(named["ffn"], rows))
    keep("ffn")
    y = _first_rows(u, rows) + y
    if "ffn" in reads:
        y = y + _first_rows(delta("ffn"), rows)
    return y if block_delta is None else y + block_delta
