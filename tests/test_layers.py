import math

import numpy as np
import pytest

from primitives import gelu, mul, tensor_sum, weighted_sum
from restuner import tensor as T
from restuner.layers import (
    LinearLayer,
    MLP,
    MultiHeadAttention,
    Parameter,
    layer_norm,
    trunc_normal,
)
from restuner.tensor import ShapeError, Tensor, finite_diff_grad, rel_error


def naive_attention(x, w_qkv, b_qkv, w_o, b_o, heads):
    """Triple-loop attention oracle, plain numpy + math only."""
    B, N, dim = x.shape
    hd = dim // heads
    qkv = x @ w_qkv + b_qkv  # [B, N, 3*dim]
    out = np.zeros((B, N, dim))
    for b in range(B):
        for h in range(heads):
            q = qkv[b, :, h * hd : (h + 1) * hd]
            k = qkv[b, :, dim + h * hd : dim + (h + 1) * hd]
            v = qkv[b, :, 2 * dim + h * hd : 2 * dim + (h + 1) * hd]
            for i in range(N):
                logits = [float(q[i] @ k[j]) / math.sqrt(hd) for j in range(N)]
                mx = max(logits)
                exps = [math.exp(l - mx) for l in logits]
                z = sum(exps)
                acc = np.zeros(hd)
                for j in range(N):
                    acc += (exps[j] / z) * v[j]
                out[b, i, h * hd : (h + 1) * hd] = acc
    return out @ w_o + b_o


def test_linear_identity_and_zero():
    lin = LinearLayer(np.eye(2), np.zeros(2))
    assert np.array_equal(lin(Tensor([[1.0, 2.0]])).data, [[1.0, 2.0]])
    lin2 = LinearLayer(np.array([[2.0], [3.0]]), np.array([1.0]))
    assert lin2(Tensor([[1.0, 1.0]])).data.tolist() == [[6.0]]
    zero = LinearLayer(np.zeros((3, 2)), np.array([0.5, 0.5]))
    assert np.array_equal(zero(Tensor([[1.0, -4.0, 2.0]])).data, [[0.5, 0.5]])


def test_linear_shape_error():
    lin = LinearLayer(np.eye(2))
    with pytest.raises(ShapeError):
        lin(Tensor([[1.0, 2.0, 3.0]]))


def test_layer_norm_constant_input():
    g = Parameter(np.ones(3))
    b = Parameter(np.zeros(3))
    out = layer_norm(Tensor([1.0, 1.0, 1.0]), g, b)
    assert np.abs(out.data).max() < 1e-6


def test_layer_norm_already_normalized():
    g = Parameter(np.ones(2))
    b = Parameter(np.zeros(2))
    out = layer_norm(Tensor([-1.0, 1.0]), g, b)
    assert np.abs(out.data - [-1.0, 1.0]).max() < 1e-5


def test_layer_norm_grads():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
    g = Parameter(rng.normal(size=5))
    b = Parameter(rng.normal(size=5))
    w = rng.normal(size=(2, 5))

    def loss_of(t):
        return weighted_sum(layer_norm(t, g, b), w)

    loss_of(x).backward()
    assert rel_error(x.grad, finite_diff_grad(loss_of, x)) < 1e-6
    assert rel_error(g.grad, finite_diff_grad(lambda t: weighted_sum(layer_norm(x, t, b), w), g)) < 1e-6
    assert rel_error(b.grad, finite_diff_grad(lambda t: weighted_sum(layer_norm(x, g, t), w), b)) < 1e-6


def test_gelu_values():
    def gelu_of(v):  # GELU as the epilogue of x @ 1
        return T.linear(Tensor([[v]]), Tensor([[1.0]]), gelu=True).data[0, 0]

    assert gelu_of(0.0) == 0.0
    # x * Phi(x) - (-x) * Phi(-x) = x since Phi(x) + Phi(-x) = 1
    x = 1.5
    assert abs(gelu_of(x) - gelu_of(-x) - x) < 1e-12


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_mha_matches_loop_oracle(heads):
    rng = np.random.default_rng(heads)
    dim = 8
    mha = MultiHeadAttention(dim, heads, rng)
    x = rng.normal(size=(2, 3, dim))
    y, qkv = mha(Tensor(x))
    expected = naive_attention(
        x, mha.qkv.W.data, mha.qkv.b.data, mha.proj.W.data, mha.proj.b.data, heads
    )
    assert np.abs(y.data - expected).max() < 1e-10
    assert qkv.shape == (2, 3, 3 * dim)


def test_mha_random_shape_sweep():
    trial = 0
    for B in (1, 2, 3):
        for N in (1, 4, 6):
            for heads in (1, 2, 4):
                rng = np.random.default_rng(100 + trial)
                trial += 1
                dim = 8
                mha = MultiHeadAttention(dim, heads, rng)
                x = rng.normal(size=(B, N, dim))
                y, _ = mha(Tensor(x))
                expected = naive_attention(
                    x, mha.qkv.W.data, mha.qkv.b.data, mha.proj.W.data, mha.proj.b.data, heads
                )
                assert np.abs(y.data - expected).max() < 1e-10


def test_mha_single_token_is_value_path():
    rng = np.random.default_rng(1)
    dim = 8
    mha = MultiHeadAttention(dim, 2, rng)
    x = rng.normal(size=(2, 1, dim))
    y, _ = mha(Tensor(x))
    v = x @ mha.qkv.W.data[:, 2 * dim :] + mha.qkv.b.data[2 * dim :]
    expected = v @ mha.proj.W.data + mha.proj.b.data
    assert np.abs(y.data - expected).max() < 1e-12


def test_mha_zero_query_key_mean_pools_values():
    rng = np.random.default_rng(2)
    dim = 8
    mha = MultiHeadAttention(dim, 2, rng)
    mha.qkv.W.data[:, : 2 * dim] = 0.0
    mha.qkv.b.data[: 2 * dim] = 0.0
    x = rng.normal(size=(1, 5, dim))
    y, _ = mha(Tensor(x))
    v = x @ mha.qkv.W.data[:, 2 * dim :] + mha.qkv.b.data[2 * dim :]
    pooled = np.repeat(v.mean(axis=1, keepdims=True), 5, axis=1)
    expected = pooled @ mha.proj.W.data + mha.proj.b.data
    assert np.abs(y.data - expected).max() < 1e-12


def test_mha_eval_repeat_bit_identical():
    rng = np.random.default_rng(3)
    mha = MultiHeadAttention(8, 2, rng)
    x = Tensor(rng.normal(size=(2, 4, 8)))
    y1, _ = mha(x)
    y2, _ = mha(x)
    assert np.array_equal(y1.data, y2.data)


def test_mlp_zero_weights():
    rng = np.random.default_rng(4)
    mlp = MLP(4, rng)
    for p in mlp.parameters():
        p.data[...] = 0.0
    out = mlp(Tensor(rng.normal(size=(1, 2, 4))))
    assert np.abs(out.data).max() == 0.0


def test_mlp_hand_composite():
    # tiny input through manually set weights, checked via the layer ops
    mlp = MLP(2, np.random.default_rng(5))
    x = Tensor(np.array([[[0.3, -1.2]]]))
    via_layers = mlp.fc2(gelu(mlp.fc1(x)))  # the reference GELU node, not fc1's epilogue
    assert np.array_equal(mlp(x).data, via_layers.data)


def test_mlp_grad_check():
    rng = np.random.default_rng(6)
    mlp = MLP(3, rng)
    x = Tensor(rng.normal(size=(1, 2, 3)), requires_grad=True)

    def loss_of(t):
        return tensor_sum(mul(mlp(t), mlp(t)))

    loss_of(x).backward()
    assert rel_error(x.grad, finite_diff_grad(loss_of, x)) < 1e-5
    for name, p in mlp.named_parameters():
        loss_of(x).backward()
        ad = p.grad.copy()
        fd = finite_diff_grad(lambda _: loss_of(x), p)
        assert rel_error(ad, fd) < 1e-5, name


def test_mha_config_validation():
    with pytest.raises(ValueError, match="dim 7 not divisible by heads 2"):
        MultiHeadAttention(7, 2, None)


@pytest.mark.parametrize("shape", [(1, 1, 192), (192, 576), (768, 192), (7,), (3, 5)])
def test_trunc_normal_draws_like_whole_array_resampling(shape):
    """Re-testing only the entries just redrawn makes the same draws, in the
    same order, as re-testing the whole array each round."""
    rng = np.random.default_rng(sum(shape))
    ref = rng.normal(0.0, 0.02, size=shape)
    bad = np.abs(ref) > 0.04
    while bad.any():
        ref[bad] = rng.normal(0.0, 0.02, size=int(bad.sum()))
        bad = np.abs(ref) > 0.04
    out = trunc_normal(np.random.default_rng(sum(shape)), shape)
    assert np.array_equal(out, ref) and out.shape == shape
