"""Tests of the benchmark itself (tracer, graph counts, checks) on a tiny config.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(PERFBENCH))
sys.path.insert(0, str(PERFBENCH.parent / "src"))

import run as bench  # noqa: E402
import tracer as tr  # noqa: E402
from restuner.backbone import BackboneConfig, build_backbone  # noqa: E402
from restuner.data_io import Dataset, save_binary_dataset, save_checkpoint  # noqa: E402
from restuner.tensor import Tensor  # noqa: E402
from restuner.training import TrainConfig, train  # noqa: E402
from restuner.tuners import AttachSpec, attach  # noqa: E402

TINY = BackboneConfig(dim=8, depth=2, heads=2, patch=4, image_size=8, in_channels=1, num_classes=4, seed=3)


def tiny_model(slots=(("res_attn", "mha"), ("adapter", "ffn"))):
    model = build_backbone(TINY)
    attach(model, [AttachSpec(block_index=b, op=op, kind=kind) for kind, op in slots for b in range(TINY.depth)])
    return model


def tiny_data(n=8, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.normal(size=(n, 1, 8, 8)), np.arange(n) % 4, 4)


@pytest.fixture
def tracer():
    t = tr.Tracer("test")
    tr.install(t)
    yield t
    t.uninstall()


def traced_train(model, data, epochs=2):
    t = tr.Tracer("test")
    tr.install(t)
    try:
        train(model, data, TrainConfig(epochs=epochs, batch_size=4, seed=0), quiet=True)
    finally:
        t.uninstall()
    return t


def test_wrappers_fire_with_expected_counts(tracer):
    model = tiny_model((("res_attn", "mha"), ("prompt", "block")))
    images = Tensor(tiny_data().images)
    forwards = 3
    for _ in range(forwards):
        model(images)
    stats = tr.span_stats(tracer.spans)
    calls = {name: s["calls"] for name, s in stats.items()}
    assert calls["backbone.forward"] == forwards
    assert calls["backbone.block_forward"] == TINY.depth * forwards
    assert calls["backbone.patchify"] == forwards
    assert calls["layers.LayerNorm"] == (2 * TINY.depth + 1) * forwards
    assert calls["layers.MultiHeadAttention"] == TINY.depth * forwards
    assert calls["layers.MLP"] == TINY.depth * forwards
    assert calls["tuners.res_attn"] == TINY.depth * forwards
    assert calls["tuners.prompt"] == TINY.depth * forwards
    # patch embed + head, and per block qkv, proj, fc1, fc2 and the res_attn qkv and o
    assert calls["layers.LinearLayer"] == (2 + 6 * TINY.depth) * forwards
    assert "training.step" not in calls  # eval-mode forwards open no step


def test_tracing_leaves_outputs_unchanged_and_uninstalls():
    import restuner.backbone as backbone
    import restuner.cli as cli

    originals = (backbone.ModelGraph.__call__, backbone.block_forward, cli.build_backbone, Tensor.backward)
    images = Tensor(tiny_data().images)
    plain = tiny_model()(images).data
    t = tr.Tracer("test")
    tr.install(t)
    try:
        assert cli.build_backbone is not originals[2]
        traced = tiny_model()(images).data
    finally:
        t.uninstall()
    assert np.array_equal(plain, traced)
    assert (backbone.ModelGraph.__call__, backbone.block_forward, cli.build_backbone, Tensor.backward) == originals


def test_graph_counts_repeat_exactly():
    first = traced_train(tiny_model(), tiny_data())
    second = traced_train(tiny_model(), tiny_data())
    counts = lambda t: {k: v for k, v in t.counters.items() if k.startswith("tensor.") and "pause" not in k}
    calls = lambda t: {n: s["calls"] for n, s in tr.span_stats(t.spans).items()}
    assert counts(first) == counts(second)
    assert calls(first) == calls(second)
    # 8 images at batch 4 for 2 epochs: one loss graph and one backward per step
    assert first.counters["tensor.graphs"] == 4
    assert first.counters["tensor.nodes.cross_entropy"] == 4
    assert calls(first)["tensor.backward"] == calls(first)["training.step"] == 4
    assert first.counters["tensor.graph_nodes"] > sum(first.counters[f"tensor.nodes.{op}"] for op in tr.GRAPH_OPS) > 0


def test_graph_walk_keeps_no_reference():
    from restuner.training import cross_entropy

    logits = tiny_model()(Tensor(tiny_data().images))
    loss = cross_entropy(logits, np.arange(8) % 4)
    before = sys.getrefcount(logits), sys.getrefcount(loss)
    t = tr.Tracer("test")
    t.walk_graph(loss)
    assert (sys.getrefcount(logits), sys.getrefcount(loss)) == before
    assert t.counters["tensor.graph_nodes"] > 0 and t.stack == []


def test_child_self_times_fit_in_parent_span():
    t = traced_train(tiny_model(), tiny_data())
    spans = t.spans
    stats = tr.span_stats(spans)
    children = {}
    for i, (_, start, end, parent) in enumerate(spans):
        assert end >= start
        if parent >= 0:
            p = spans[parent]
            assert p[1] <= start and end <= p[2]  # nested inside the parent
            children.setdefault(parent, []).append(end - start)
    for parent, durations in children.items():
        assert sum(durations) <= spans[parent][2] - spans[parent][1] + 1e-9
    assert all(s["self_s"] >= -1e-9 for s in stats.values())
    total = sum(s["self_s"] for s in stats.values())
    roots = sum(end - start for _, start, end, parent in spans if parent < 0)
    assert total == pytest.approx(roots, rel=1e-9)


def test_per_layer_metrics_cover_every_declared_metric():
    t = traced_train(tiny_model(), tiny_data())
    metrics = tr.per_layer_metrics(json.loads(json.dumps(t.document())))
    metrics["trace.overhead_s"] = (0.0, "s")  # added by run.py from the untraced median
    declared = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert [m["name"] for m in declared] == list(metrics)
    assert all(m["unit"] == metrics[m["name"]][1] for m in declared)
    assert metrics["training.step.ms_p50"][0] > 0
    assert metrics["data_io.save_checkpoint.ms"][0] == 0  # absent layers read 0


def eval_run(tmp_path, corrupt: bool):
    model = tiny_model()
    ckpt = tmp_path / "ckpt" / "model.rtck"
    ckpt.parent.mkdir()
    save_checkpoint(model, ckpt)
    save_binary_dataset(tiny_data(16, seed=1), tmp_path / "eval.rtds")
    r = bench.Run("eval-mix", seed=0, seconds=1, trace=False)
    r.dir = r.work = tmp_path
    (tmp_path / "logs").mkdir()
    r.eval_ref = r.helper("eval-ref", ckpt, tmp_path / "eval.rtds", tag="eval-ref")
    assert r.eval_ref is not None
    if corrupt:
        blob = bytearray(ckpt.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        ckpt.write_bytes(bytes(blob))
    r.command((*bench.CLI, *r.spec.command), "rep0")
    return r


def test_valid_checkpoint_passes_eval_checks(tmp_path):
    r = eval_run(tmp_path, corrupt=False)
    assert [c for c in r.checks if not c[1]] == []
    assert len(r.checks) == 3  # eval-ref exit, eval exit, match with batch-1 evaluate


def test_corrupt_checkpoint_is_a_failed_operation(tmp_path):
    r = eval_run(tmp_path, corrupt=True)
    failed = [c for c in r.checks if not c[1]]
    assert failed and failed[0][0] == "rep0: exit code 0" and "exit 2" in failed[0][2]
    assert len(r.checks) > len(failed) >= 1


def test_memory_blowup_fails_as_a_counted_operation(tmp_path):
    r = bench.Run("train-vit", seed=0, seconds=1, trace=False)
    r.dir = tmp_path
    (tmp_path / "logs").mkdir()
    c = r.child((bench.PY, "-c", f"bytearray({bench.MEMORY_LIMIT})"), tmp_path, "blowup")
    assert c.rc != 0 and "MemoryError" in c.stderr
    assert r.checks == [("blowup: exit code 0", False, f"exit {c.rc}: MemoryError")]
