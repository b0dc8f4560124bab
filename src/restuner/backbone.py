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
    MHAConfig,
    Module,
    MultiHeadAttention,
    MLP,
    INIT_STD,
    Parameter,
    make_linear,
    trunc_normal,
)
from .tensor import ShapeError, Tensor, broadcast_to, concat
from .tuners import ATTACH_OPS, Tuner, slot_key


class ConfigError(ValueError):
    pass


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
    """Pre-norm transformer block: x + MHA(n1(x)), then u + FFN(n2(u)). Built frozen."""

    def __init__(self, cfg: BackboneConfig, rng: np.random.Generator | None):
        mha_cfg = MHAConfig(cfg.dim, cfg.heads, qkv_bias=cfg.qkv_bias)
        self.norm1 = LayerNorm(cfg.dim, trainable=False)
        self.mha = MultiHeadAttention(mha_cfg, rng, trainable=False)
        self.norm2 = LayerNorm(cfg.dim, trainable=False)
        self.mlp = MLP(cfg.dim, rng, ratio=cfg.mlp_ratio, trainable=False)


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
    """Backbone + attached tuners + classifier head, with the weights drawn
    from ``rng`` (zeros given None). The backbone is built frozen, so its
    parameters never allocate a grad buffer; only the head is trainable
    until tuners are attached."""

    def __init__(self, cfg: BackboneConfig, rng: np.random.Generator | None):
        self.cfg = cfg
        patch_dim = cfg.in_channels * cfg.patch * cfg.patch
        self.patch_embed = make_linear(rng, patch_dim, cfg.dim, trainable=False)
        self.cls_token = Parameter(trunc_normal(rng, (1, 1, cfg.dim)), trainable=False)
        self.pos = sinusoidal_positions(cfg.tokens, cfg.dim)  # fixed, not a Parameter
        self.blocks = [Block(cfg, rng) for _ in range(cfg.depth)]
        self.final_norm = LayerNorm(cfg.dim, trainable=False)
        self.head = make_linear(rng, cfg.dim, cfg.num_classes)
        self.tuners: dict[tuple[int, str], Tuner] = {}
        self.training = False  # True while ``train`` runs; perfbench's tracer reads it

    # tuners is a plain dict, so extend the attribute walk
    def named_parameters(self, prefix: str = ""):
        yield from super().named_parameters(prefix)
        for (block, op), tuner in sorted(self.tuners.items(), key=slot_key):
            yield from tuner.named_parameters(f"{prefix}tuners.{block}.{op}.")

    def __call__(self, images: Tensor) -> Tensor:
        """Patch-embed -> blocks -> final norm -> class token -> head logits."""
        cfg = self.cfg
        data = images.data if isinstance(images, Tensor) else np.asarray(images, dtype=np.float64)
        if data.ndim != 4 or data.shape[1:] != (cfg.in_channels, cfg.image_size, cfg.image_size):
            raise ShapeError(
                f"expected images [B,{cfg.in_channels},{cfg.image_size},{cfg.image_size}], got {data.shape}"
            )
        B = data.shape[0]
        x = self.patch_embed(Tensor(patchify(data, cfg.patch)))  # keeps no patch tensor
        cls = broadcast_to(self.cls_token, (B, 1, cfg.dim))
        x = concat([cls, x], axis=1)
        x = x + Tensor(self.pos[None, :, :])
        for i in range(cfg.depth):
            x = block_forward(self, i, x)
        x = self.final_norm(x)
        return self.head(x[:, 0, :])


def build_backbone(cfg: BackboneConfig) -> ModelGraph:
    """Deterministically seeded model; backbone frozen, head trainable."""
    return ModelGraph(cfg, np.random.default_rng(cfg.seed))


def trainable_parameters(model: ModelGraph):
    """(name, param) pairs for trainable params, stable-ordered by name."""
    return sorted(
        ((n, p) for n, p in model.named_parameters() if p.requires_grad),
        key=lambda np_: np_[0],
    )


def patchify(images: np.ndarray, patch: int) -> np.ndarray:
    """[B,C,H,W] -> [B, num_patches, C*patch*patch], row-major patch order."""
    B, C, H, W = images.shape
    gh, gw = H // patch, W // patch
    x = images.reshape(B, C, gh, patch, gw, patch)
    x = x.transpose(0, 2, 4, 1, 3, 5)  # B, gh, gw, C, p, p
    return x.reshape(B, gh * gw, C * patch * patch)


def block_forward(model: ModelGraph, index: int, x: Tensor) -> Tensor:
    """One pre-norm block with any tuners attached at its slots.

    Each tuner reads what its class declares: the input of the op at its
    slot (the post-norm tensor fed to the MHA or FFN, or the block's raw
    input for the block tuner), or its own view of the query third of this
    block's fused QKV projection. Each tensor is dropped after its last
    reader: the MHA's input and output once the MHA stage ends, where the
    block tuner's delta is computed (and later added last), and ``qkv``
    before the FFN unless the FFN tuner reads q.
    """
    block = model.blocks[index]
    mha_tuner, ffn_tuner, block_tuner = (model.tuners.get((index, op)) for op in ATTACH_OPS)

    def delta(tuner, op_input):
        return tuner(qkv[..., : x.shape[-1]] if tuner.reads_q else op_input, block.mha)

    h1 = block.norm1(x)
    mha_out, qkv = block.mha(h1)
    u = x + mha_out
    del mha_out
    if mha_tuner is not None:
        u = u + delta(mha_tuner, h1)
    del h1
    block_delta = None if block_tuner is None else delta(block_tuner, x)
    if ffn_tuner is None or not ffn_tuner.reads_q:
        qkv = None

    h2 = block.norm2(u)
    y = u + block.mlp(h2)
    if ffn_tuner is not None:
        y = y + delta(ffn_tuner, h2)
    return y if block_delta is None else y + block_delta
