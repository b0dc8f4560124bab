import gc
import math
import sys
import threading

import numpy as np
import pytest

import restuner.tensor as T
import restuner.training as training
from primitives import mul, reference_optimizer_step, tensor_sum
from restuner.backbone import BackboneConfig, build_backbone
from restuner.data_io import DatasetSpec, synth_dataset
from restuner.tensor import GradientError, Tensor, finite_diff_grad, rel_error
from restuner.training import (
    AdamW,
    SGD,
    DivergenceError,
    TrainConfig,
    cross_entropy,
    evaluate,
    grad_check,
    lr_at,
    train,
)
from restuner.tuners import AttachSpec, attach

TOY = BackboneConfig(dim=16, depth=2, heads=2, patch=4, image_size=8,
                     in_channels=1, num_classes=4, seed=0)


def toy_dataset(size=64, seed=0):
    return synth_dataset(
        DatasetSpec(num_classes=4, shape=(1, 8, 8), size=size, seed=seed, signal=3.0)
    )


# -- loss ---------------------------------------------------------------


def test_cross_entropy_uniform():
    logits = Tensor(np.zeros((2, 4)))
    loss = cross_entropy(logits, np.array([1, 3]))
    assert abs(loss.item() - math.log(4)) < 1e-12


def test_cross_entropy_confident_limit():
    logits = np.full((1, 4), -50.0)
    logits[0, 2] = 50.0
    assert cross_entropy(Tensor(logits), np.array([2])).item() < 1e-12


def test_cross_entropy_label_range():
    with pytest.raises(ValueError):
        cross_entropy(Tensor(np.zeros((1, 3))), np.array([3]))


@pytest.mark.parametrize("smoothing", [0.0, 0.1])
def test_cross_entropy_grad(smoothing):
    rng = np.random.default_rng(0)
    logits = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    labels = np.array([0, 2, 4])
    cross_entropy(logits, labels, smoothing).backward()
    fd = finite_diff_grad(lambda t: cross_entropy(t, labels, smoothing), logits)
    assert rel_error(logits.grad, fd) < 1e-7


# -- optimizers ---------------------------------------------------------


def _param(value):
    from restuner.layers import Parameter

    return Parameter(np.array(value))


def test_sgd_plain_step():
    p = _param([1.0])
    p.grad = np.array([0.5])
    cfg = TrainConfig(optimizer="sgd", lr=0.1, momentum=0.0)
    opt = SGD([("w", p)], cfg)
    opt.step(lr=0.1)
    assert abs(p.data[0] - 0.95) < 1e-15


def test_adamw_first_step_magnitude():
    # step 1 with constant grad g: m_hat = g, v_hat = g^2, update = lr * g/(|g|+eps)
    p = _param([1.0])
    p.grad = np.array([0.3])
    cfg = TrainConfig(optimizer="adamw", lr=0.01)
    opt = AdamW([("w", p)], cfg)
    opt.step(lr=0.01)
    expected = 1.0 - 0.01 * (0.3 / (0.3 + AdamW.eps))
    assert abs(p.data[0] - expected) < 1e-12


@pytest.mark.parametrize("optimizer", ["adamw", "sgd"])
def test_optimizer_updates_in_place_to_the_out_of_place_bytes(optimizer):
    """Five steps with weight decay and a cosine schedule, over grads and
    parameters with signed zeros, give the parameters and moments of the
    out-of-place reference byte for byte, and every moment stays in the
    buffer it started in."""
    rng = np.random.default_rng(48)
    cfg = TrainConfig(optimizer=optimizer, lr=0.05, weight_decay=0.1, momentum=0.8)
    params = [(f"p{i}", _param(rng.normal(size=s))) for i, s in enumerate([(3, 4), (5,), (2,)])]
    params[1][1].data[:2] = [0.0, -0.0]
    opt = AdamW(params, cfg) if optimizer == "adamw" else SGD(params, cfg)
    buffers = {name: dict(st) for name, st in opt.state.items()}
    ref = {name: (p.data.copy(), {k: b.copy() for k, b in st.items()}) for (name, p), st in
           zip(params, opt.state.values())}
    for t in range(1, 6):
        lr = lr_at(cfg, t - 1, 5)
        for name, p in params:
            p.grad = rng.normal(size=p.data.shape)
            p.grad.reshape(-1)[:2] = [-0.0, 0.0]
            ref[name] = reference_optimizer_step(cfg, t, lr, ref[name][0], p.grad, ref[name][1])
        opt.step(lr)
    for name, p in params:
        ref_p, ref_state = ref[name]
        assert p.data.tobytes() == ref_p.tobytes(), name
        for k, b in opt.state[name].items():
            assert b.tobytes() == ref_state[k].tobytes() and b is buffers[name][k], (name, k)


def test_step_names_a_parameter_the_loss_never_reached():
    used, unused = _param([1.0]), _param([2.0])
    opt = SGD([("used", used), ("unused", unused)], TrainConfig(optimizer="sgd", lr=0.1))
    tensor_sum(mul(used, unused)).backward()
    opt.step(lr=0.1)
    opt.zero_grad()  # a stale grad must not stand in for a missing one
    tensor_sum(mul(used, used)).backward()
    with pytest.raises(GradientError, match="'unused'"):
        opt.step(lr=0.1)


def test_missing_grad_is_contract_error():
    p = _param([1.0])
    p.grad = None
    opt = SGD([("w", p)], TrainConfig(optimizer="sgd", lr=0.1))
    with pytest.raises(GradientError):
        opt.step(lr=0.1)


def test_optimizer_determinism():
    runs = []
    for _ in range(2):
        m = build_backbone(TOY)
        attach(m, [AttachSpec(0, "mha", "res_attn", {"rank": 2, "heads": 2})])
        train(m, toy_dataset(), TrainConfig(epochs=3, batch_size=16, lr=1e-2, seed=5), quiet=True)
        runs.append({n: p.data.copy() for n, p in m.named_parameters()})
    for name in runs[0]:
        assert np.array_equal(runs[0][name], runs[1][name]), name


# -- train loop ---------------------------------------------------------


def test_lr_zero_leaves_params_unchanged():
    m = build_backbone(TOY)
    before = {n: p.data.copy() for n, p in m.named_parameters()}
    train(m, toy_dataset(), TrainConfig(lr=0.0, epochs=2, batch_size=16), quiet=True)
    for n, p in m.named_parameters():
        assert np.array_equal(p.data, before[n]), n


def test_training_moves_only_trainable_params():
    m = build_backbone(TOY)
    attach(m, [AttachSpec(b, "mha", "res_attn", {"rank": 2, "heads": 2}) for b in range(2)])
    frozen_before = {n: p.data.copy() for n, p in m.named_parameters() if not p.requires_grad}
    hist = train(m, toy_dataset(), TrainConfig(epochs=10, batch_size=16, lr=1e-2), quiet=True)
    for n, p in m.named_parameters():
        if not p.requires_grad:
            assert np.array_equal(p.data, frozen_before[n]), n
    assert hist[-1]["accuracy"] >= 0.95


def test_headonly_full_batch_sgd_loss_nonincreasing():
    m = build_backbone(TOY)
    ds = toy_dataset(size=32)
    cfg = TrainConfig(optimizer="sgd", lr=0.05, momentum=0.0, epochs=15,
                      batch_size=32, schedule="constant")
    hist = train(m, ds, cfg, quiet=True)
    losses = [h["loss"] for h in hist]
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_train_steps_leave_no_cyclic_garbage():
    m = build_backbone(TOY)
    attach(m, [AttachSpec(0, "mha", "res_attn", {"rank": 2, "heads": 2}),
               AttachSpec(1, "ffn", "adapter", {"bottleneck": 2})])
    ds = toy_dataset(size=24)
    gc.collect()
    gc.disable()
    try:
        train(m, ds, TrainConfig(epochs=1, batch_size=8), quiet=True)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_class_count_mismatch():
    m = build_backbone(TOY)
    ds = synth_dataset(DatasetSpec(num_classes=3, shape=(1, 8, 8), size=12, seed=0))
    with pytest.raises(ValueError):
        train(m, ds, TrainConfig(epochs=1), quiet=True)


def test_train_stops_on_a_non_finite_loss_before_updating():
    m = build_backbone(TOY)
    m.blocks[1].mlp.fc1.W.data[0, 0] = np.nan  # a frozen weight: every loss is NaN
    head = [p.data.copy() for p in (m.head.W, m.head.b)]
    with pytest.raises(DivergenceError, match=r"loss is nan at epoch 0, step 0$"):
        train(m, toy_dataset(size=32), TrainConfig(epochs=2, batch_size=16), quiet=True)
    assert all(np.array_equal(p.data, h) for p, h in zip((m.head.W, m.head.b), head))


def test_train_rejects_a_parameter_the_last_step_made_non_finite():
    # one SGD step of lr * weight_decay * W overflows to inf, and no later loss sees it
    cfg = TrainConfig(optimizer="sgd", lr=1e10, weight_decay=1e300, momentum=0.0,
                      epochs=1, batch_size=64)
    with pytest.raises(DivergenceError, match="'head.W' is non-finite after the last step"):
        train(build_backbone(TOY), toy_dataset(size=64), cfg, quiet=True)


def test_metrics_records(tmp_path):
    import json

    m = build_backbone(TOY)
    path = tmp_path / "metrics.jsonl"
    train(m, toy_dataset(size=16), TrainConfig(epochs=2, batch_size=8), metrics_path=path, quiet=True)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(records) == 2
    assert set(records[0]) == {"epoch", "split", "loss", "accuracy", "elapsed_sec"}


# -- evaluate -----------------------------------------------------------


def test_evaluate_single_correct_item():
    m = build_backbone(TOY)
    ds = toy_dataset(size=8)
    logits = m(Tensor(ds.images)).data
    idx = np.argmax(logits.argmax(axis=1) == ds.labels)
    one = ds.subset(np.array([idx]))
    if logits[idx].argmax() == ds.labels[idx]:
        acc, _ = evaluate(m, one)
        assert acc == 1.0


def test_evaluate_duplication_invariant():
    m = build_backbone(TOY)
    ds = toy_dataset(size=8)
    acc1, loss1 = evaluate(m, ds)
    doubled = ds.subset(np.concatenate([np.arange(8), np.arange(8)]))
    acc2, loss2 = evaluate(m, doubled)
    assert acc1 == acc2
    assert abs(loss1 - loss2) < 1e-12


def test_evaluate_matches_graph_recording_loop():
    m = build_backbone(TOY)
    attach(m, [AttachSpec(0, "mha", "prefix", {"length": 3})])
    ds = toy_dataset(size=20)
    loss_sum, correct = 0.0, 0
    for lo in range(0, 20, 8):
        logits = m(Tensor(ds.images[lo : lo + 8]))
        labels = ds.labels[lo : lo + 8]
        loss = cross_entropy(logits, labels)
        assert loss.requires_grad  # this reference loop records a graph
        loss_sum += loss.item() * len(labels)
        correct += int((logits.data.argmax(axis=-1) == labels).sum())
    assert evaluate(m, ds, batch_size=8) == (correct / 20, loss_sum / 20)


def _serial_evaluate(model, ds, batch_size):
    """The single-threaded loop evaluate runs batch by batch, as the oracle."""
    loss_sum, correct = 0.0, 0
    with T.no_grad():
        for lo in range(0, len(ds), batch_size):
            logits = model(Tensor(ds.images[lo : lo + batch_size]))
            labels = ds.labels[lo : lo + batch_size]
            loss_sum += cross_entropy(logits, labels).item() * len(labels)
            correct += int((logits.data.argmax(axis=-1) == labels).sum())
    return correct / len(ds), loss_sum / len(ds)


@pytest.mark.parametrize("batch_size", [4, 1])
def test_evaluate_equals_serial_loop_and_records_no_graph_in_workers(monkeypatch, batch_size):
    m = build_backbone(TOY)
    attach(m, [AttachSpec(0, "mha", "res_attn", {"rank": 2, "heads": 2}),
               AttachSpec(1, "ffn", "adapter", {})])
    ds = toy_dataset(size=21)  # more batches than workers, and a ragged last batch
    expected = _serial_evaluate(m, ds, batch_size)
    seen = []

    def recording_cross_entropy(logits, labels, smoothing=0.0):
        seen.append((threading.get_ident(), logits.requires_grad, logits._backward))
        return cross_entropy(logits, labels, smoothing)

    monkeypatch.setattr(training, "cross_entropy", recording_cross_entropy)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the workers as often as possible
    try:
        got = evaluate(m, ds, batch_size=batch_size)
    finally:
        sys.setswitchinterval(interval)
    assert got == expected
    assert len(seen) == math.ceil(21 / batch_size)
    assert all(tid != threading.get_ident() for tid, _, _ in seen)  # ran in the workers
    assert not any(grad or backward for _, grad, backward in seen)
    assert T._GRAD_ENABLED  # recording is back on in the caller


def test_evaluate_without_an_affinity_mask_counts_the_cpus(monkeypatch):
    """macOS and Windows have no ``os.sched_getaffinity``; evaluate then
    sizes its pool from ``os.cpu_count()`` and still equals the serial loop."""
    m = build_backbone(TOY)
    attach(m, [AttachSpec(1, "mha", "res_attn", {"rank": 2, "heads": 2})])
    ds = toy_dataset(size=9)
    monkeypatch.delattr(training.os, "sched_getaffinity")
    assert evaluate(m, ds, batch_size=4) == _serial_evaluate(m, ds, 4)


def test_evaluate_deterministic_and_empty():
    m = build_backbone(TOY)
    ds = toy_dataset(size=8)
    assert evaluate(m, ds) == evaluate(m, ds)
    with pytest.raises(ValueError):
        evaluate(m, ds.subset(np.array([], dtype=int)))


# -- grad check ---------------------------------------------------------


def test_grad_check_head_only_tight():
    m = build_backbone(TOY)
    ds = toy_dataset(size=4)
    report, ok = grad_check(m, ds.images, ds.labels, tol=1e-7)
    assert ok, report


def test_grad_check_res_attn_toy():
    m = build_backbone(TOY)
    attach(m, [AttachSpec(b, "mha", "res_attn", {"rank": 2, "heads": 2}) for b in range(2)])
    ds = toy_dataset(size=4)
    report, ok = grad_check(m, ds.images, ds.labels, eps=1e-5, tol=1e-4)
    assert ok, {k: v["rel_err"] for k, v in report.items()}


def test_grad_check_prints_no_overflow_warning():
    """Library images of 1e300 (float64; no command can pass them) overflow
    inside ``layer_norm``; as in ``train`` and ``evaluate``, numpy's overflow
    warnings stay quiet (the suite makes a RuntimeWarning an error)."""
    m = build_backbone(TOY)
    ds = toy_dataset(size=4)
    _, ok = grad_check(m, ds.images.astype(np.float64) * 1e300, ds.labels)
    assert ok


def test_grad_check_detects_corrupted_backward(monkeypatch):
    m = build_backbone(TOY)
    attach(m, [AttachSpec(0, "ffn", "adapter", {"bottleneck": 2})])
    ds = toy_dataset(size=4)
    monkeypatch.setattr(T, "_gelu_grad", lambda x, cdf, out: np.ones_like(x))
    report, ok = grad_check(m, ds.images, ds.labels, tol=1e-4)
    assert not ok
