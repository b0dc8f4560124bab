"""Reference ops for the oracle tests, kept out of ``restuner.tensor``.

The model records only fused ops. The primitives here record one graph
node each through the engine's own plumbing (``_make``, ``_accumulate``,
``_unbroadcast``) and reuse its kernels, so a chain of them is the exact
computation that a fused op repeats bit for bit. Like the engine's ops,
each backward closure adds into the parents' vertices it is handed; unlike
them, most keep their input tensors; ``reshape`` and ``permute`` keep only
shapes, and only the chains use them, since ``attention`` splits heads as
views. ``composed_*`` are those
chains; ``split_heads``, ``merge_heads``, ``own_kv`` and ``prompt_kv``
build attention's K/V the way a tuner or a chain would.
``reference_block_forward`` is a block in the order it once ran,
``reference_model_forward`` the whole model built from it,
``reference_positions`` the position table by its formula, and
``reference_optimizer_step`` an optimizer update that allocates every
array it returns.
"""

from __future__ import annotations

import math

import numpy as np

from restuner import tensor as T
from restuner.layers import INIT_STD
from restuner.tensor import Tensor, _accumulate, _make, _unbroadcast


def matmul(a: Tensor, b: Tensor) -> Tensor:
    T._check_matmul(a.data, b.data)

    def backward(g, va, vb):
        if va.requires_grad:
            _accumulate(va, _unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape))
        if vb.requires_grad:
            _accumulate(vb, _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape))

    return _make(a.data @ b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def backward(g, va, vb):
        if va.requires_grad:
            _accumulate(va, _unbroadcast(g * b.data, a.data.shape))
        if vb.requires_grad:
            _accumulate(vb, _unbroadcast(g * a.data, b.data.shape))

    return _make(a.data * b.data, (a, b), backward)


def mul_scalar(a: Tensor, s: float) -> Tensor:
    def backward(g, va):
        _accumulate(va, g * s)

    return _make(a.data * s, (a,), backward)


def power(a: Tensor, p: float) -> Tensor:
    def backward(g, va):
        _accumulate(va, g * p * a.data ** (p - 1.0))

    return _make(a.data**p, (a,), backward)


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def backward(g, va):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(va, np.broadcast_to(g, a.data.shape))

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != a.data.size:
        raise T.ShapeError(f"cannot reshape {a.shape} (size {a.data.size}) to {shape}")

    a_shape = a.data.shape

    def backward(g, va):
        _accumulate(va, g.reshape(a_shape))

    return _make(a.data.reshape(shape), (a,), backward)


def permute(a: Tensor, axes: tuple) -> Tensor:
    axes = tuple(int(x) for x in axes)
    if sorted(axes) != list(range(a.data.ndim)):
        raise T.ShapeError(f"invalid permutation {axes} for ndim {a.data.ndim}")
    inverse = tuple(np.argsort(axes))

    def backward(g, va):
        _accumulate(va, g.transpose(inverse))

    return _make(a.data.transpose(axes), (a,), backward)


def softmax_lastdim(a: Tensor) -> Tensor:
    """Numerically stable softmax over the last axis (max-subtraction)."""
    y = T._softmax(a.data, np.empty(a.data.shape))

    def backward(g, va):
        _accumulate(va, T._softmax_grad(y, g.copy()))

    return _make(y, (a,), backward)


def erf(x) -> np.ndarray:
    """erf(x) as a new array, through GELU's own chunk kernel."""
    out = np.array(x, dtype=np.float64)
    flat = out.reshape(-1)
    scratch = [np.empty(min(T._ERF_CHUNK, flat.size)) for _ in range(3)]
    for lo in range(0, flat.size, T._ERF_CHUNK):
        xs = flat[lo : lo + T._ERF_CHUNK]
        T._erf_chunk(xs, *(buf[: xs.size] for buf in scratch))
    return out


def gelu(a: Tensor) -> Tensor:
    """Exact GELU, x * Phi(x) with Phi(x) = 0.5 * (1 + erf(x / sqrt(2))), as
    its own node: the reference for the GELU of ``linear`` and ``ffn``. Its
    backward is the upstream grad times the engine's ``_gelu_grad``."""
    cdf = 0.5 * (1.0 + erf(a.data / math.sqrt(2.0)))

    def backward(g, va):
        _accumulate(va, g * T._gelu_grad(a.data, cdf, np.empty(cdf.shape)))

    return _make(a.data * cdf, (a,), backward)


def weighted_sum(out: Tensor, w: np.ndarray) -> Tensor:
    """sum(out * w): a scalar loss whose grad w.r.t. ``out`` is ``w``."""
    return tensor_sum(mul(out, Tensor(w)))


# -- the chains the fused ops replace -------------------------------------


def composed_linear(x, W, b=None, gelu=False):
    """matmul, then add, then with ``gelu`` the reference GELU node."""
    y = matmul(x, W)
    y = y if b is None else T.add(y, b)
    return gelu_node(y) if gelu else y


gelu_node = gelu  # ``composed_linear``'s flag shadows the name


def composed_ffn(x, W1, b1, W2, b2):
    """linear, the reference GELU node, linear: the chain ``T.ffn`` streams."""
    return composed_linear(composed_linear(x, W1, b1, gelu=True), W2, b2)


def composed_layer_norm(x, gamma, beta):
    scale = 1.0 / x.shape[-1]  # a mean is a sum times the reciprocal count
    mu = mul_scalar(tensor_sum(x, axis=-1, keepdims=True), scale)
    xc = T.add(x, mul_scalar(mu, -1.0))  # x - mu
    var = mul_scalar(tensor_sum(mul(xc, xc), axis=-1, keepdims=True), scale)
    inv = power(T.add(var, Tensor(1e-6)), -0.5)
    return T.add(mul(mul(xc, inv), gamma), beta)


def composed_attention(q, k, v, scale):
    axes = list(range(len(k.shape)))
    axes[-2:] = axes[-1], axes[-2]  # k^T over the last two axes
    return matmul(softmax_lastdim(mul_scalar(matmul(q, permute(k, axes)), scale)), v)


def split_heads(qkv, heads, parts=3):
    """[B, N, parts*heads*d] -> each part [B, heads, N, d] (q, k, v by
    default; q alone with ``parts=1``): reshape, permute, getitem."""
    B, N, width = qkv.shape
    qkv = permute(reshape(qkv, (B, N, parts, heads, width // (parts * heads))), (2, 0, 3, 1, 4))
    return tuple(qkv[i] for i in range(parts))


def merge_heads(y):
    """[B, heads, N, d] -> [B, N, heads*d]: permute, reshape."""
    B, heads, N, d = y.shape
    return reshape(permute(y, (0, 2, 1, 3)), (B, N, heads * d))


def composed_mha_attention(qkv, heads, scale, kv=None):
    """The chain ``T.attention`` fuses: split the heads, attend, merge them.
    Given ``kv``, ``qkv`` is q alone, and a 2-D [L, heads*d] K and V are
    split into [heads, L, d] by reshape, permute."""
    if kv is None:
        q, k, v = split_heads(qkv, heads)
    else:
        (q,), (k, v) = split_heads(qkv, heads, parts=1), kv
        if len(k.shape) == 2:
            L, width = k.shape
            k, v = (permute(reshape(t, (L, heads, width // heads)), (1, 0, 2)) for t in (k, v))
    return merge_heads(composed_attention(q, k, v, scale))


def q_of(qkv):
    """The query third of a fused [B, N, 3*D] projection, as a getitem view."""
    return qkv[..., : qkv.shape[-1] // 3]


def own_kv(qkv, heads):
    """K and V as [heads, N, d]: the k and v thirds of a batch-of-one qkv."""
    _, k, v = split_heads(qkv, heads)
    return k[0], v[0]


def prompt_kv(P, W):
    """Prompt-style K and V, [L, dim] as a product writes them: both derived
    from one shared parameter P."""
    dim = P.shape[1]
    return matmul(P, Tensor(W[:, :dim])), matmul(P, Tensor(W[:, dim:]))


def reference_block_forward(model, index, x, rows=None):
    """``block_forward`` in the order it once ran: the MLP as the primitive
    chain, and each tuner's delta computed where it is added, the block
    tuner's after the FFN. Prefix and prompt tuners read q by kind, not by
    the class's declaration. Every token is computed; given ``rows``, the
    first ``rows`` of them are returned."""
    block = model.blocks[index]

    def delta(op, op_input, qkv):
        tuner = model.tuners[(index, op)]
        return tuner(q_of(qkv) if tuner.kind in ("prefix", "prompt") else op_input)

    h1 = block.norm1(x)
    mha_out, qkv = block.mha(h1)
    u = x + mha_out
    if (index, "mha") in model.tuners:
        u = u + delta("mha", h1, qkv)
    h2 = block.norm2(u)
    mlp = block.mlp
    y = u + composed_ffn(h2, mlp.fc1.W, mlp.fc1.b, mlp.fc2.W, mlp.fc2.b)
    if (index, "ffn") in model.tuners:
        y = y + delta("ffn", h2, qkv)
    if (index, "block") in model.tuners:
        y = y + delta("block", x, qkv)
    return y if rows is None else y[:, :rows]


def reference_positions(n: int, dim: int) -> np.ndarray:
    """The sinusoidal position table by its formula, one entry at a time:
    PE[p, 2i] = sin(p / 10000^(2i/dim)), PE[p, 2i+1] = cos(the same angle),
    both times ``INIT_STD``."""
    table = np.zeros((n, dim))
    for p in range(n):
        for c in range(dim):
            angle = p / 10000.0 ** (2 * (c // 2) / dim)
            table[p, c] = INIT_STD * (math.sin(angle) if c % 2 == 0 else math.cos(angle))
    return table


def reference_model_forward(model, images: np.ndarray) -> Tensor:
    """``ModelGraph.__call__`` written out, every token computed: patches
    cut one at a time, the patch embedding, the class token and the
    model's position table, each block through ``reference_block_forward``,
    then the final norm and the head on the class token's row. The patch
    embedding, the final norm and the head are primitive chains."""
    cfg = model.cfg
    B, p, grid = len(images), cfg.patch, cfg.image_size // cfg.patch
    patches = np.stack([images[:, :, r * p : (r + 1) * p, c * p : (c + 1) * p].reshape(B, -1)
                        for r in range(grid) for c in range(grid)], axis=1)
    x = composed_linear(Tensor(patches), model.patch_embed.W, model.patch_embed.b)
    x = T.concat([T.broadcast_to(model.cls_token, (B, 1, cfg.dim)), x], axis=1)
    x = x + Tensor(model.pos[None])
    for index in range(cfg.depth):
        x = reference_block_forward(model, index, x)
    x = composed_layer_norm(x, model.final_norm.gamma, model.final_norm.beta)
    return composed_linear(x[:, 0, :], model.head.W, model.head.b)


def reference_optimizer_step(cfg, t: int, lr: float, p, g, state: dict, eps: float = 1e-8):
    """One SGD or AdamW update (by ``cfg.optimizer``) at step ``t``, written
    out of place: returns the new parameter and state as fresh arrays."""
    if cfg.optimizer == "sgd":
        v = cfg.momentum * state["v"] + (g + cfg.weight_decay * p)
        return p - lr * v, {"v": v}
    m = cfg.beta1 * state["m"] + (1 - cfg.beta1) * g
    v = cfg.beta2 * state["v"] + (1 - cfg.beta2) * g**2
    m_hat = m / (1 - cfg.beta1**t)
    v_hat = v / (1 - cfg.beta2**t)
    return p - lr * (m_hat / (np.sqrt(v_hat) + eps) + cfg.weight_decay * p), {"m": m, "v": v}
