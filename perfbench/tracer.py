"""Span tracer for the benchmark's traced run, kept outside the program.

``install`` wraps the public callables of every restuner module where they
are looked up (module globals, including names imported into other modules,
and ``__call__``/methods on classes) so each call records a span: name,
start, end and parent span. Spans stay in memory and are written once, with
the run id and the counters, when the traced command ends. Counters come
from walking ``_parents`` from each loss and from ``gc.callbacks``; both only
observe, and the walk holds no tensor once it returns.

Run a CLI command traced:

    python3 perfbench/tracer.py SPANS.json RUN_ID -- train --config train.cfg

``per_layer_metrics`` (standard library only) turns a span file into the
per-layer metrics. Self time is a span's duration minus its children's. Time spent in
the tracer's own ``trace.*`` spans is taken out of every enclosing span.
"""

from __future__ import annotations

import functools
import gc
import json
import math
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

GRAPH_OPS = (
    "matmul", "add", "mul", "mul_scalar", "power", "reshape", "permute", "getitem",
    "concat", "broadcast_to", "tensor_sum", "softmax_lastdim", "gelu", "cross_entropy",
)
LAYER_CLASSES = ("LayerNorm", "MultiHeadAttention", "MLP", "LinearLayer")
TUNER_KINDS = ("res_attn", "adapter", "prefix", "prompt")
DATA_IO = ("save_checkpoint", "save_binary_dataset", "load_checkpoint", "load_binary_dataset")
COMMANDS = ("train", "eval", "matrix")
MIB = float(1 << 20)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []  # indices of open spans
        self.counters = Counter()
        self.graph_bytes_max = 0
        self.grad_bytes_max = 0
        self.patches = []  # (owner, attribute, original)
        self._step = None
        self._gc_start = None

    def patch(self, owner, attr: str, value) -> None:
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self.patches:
            owner, attr, value = self.patches.pop()
            setattr(owner, attr, value)
        if self.on_gc in gc.callbacks:
            gc.callbacks.remove(self.on_gc)

    def open(self, name: str):
        rec = [name, time.perf_counter(), None, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec) -> None:
        rec[2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if after is not None:
                after(result, args)
            return result

        return traced

    # -- hooks -----------------------------------------------------------

    def open_step(self, model) -> None:
        """A training step runs from a train-mode forward to its optimizer step."""
        if model.training and self._step is None:
            self._step = self.open("training.step")

    def close_step(self, *_):
        if self._step is not None:
            self.close(self._step)
            self._step = None

    def walk_graph(self, loss, _args=None) -> None:
        """Count nodes by op and bytes reachable from ``loss``; keep no tensor."""
        rec = self.open("trace.graph_walk")
        ops = Counter()
        seen = set()
        stack = [loss]
        nodes = data_bytes = grad_bytes = 0
        while stack:
            t = stack.pop()
            if id(t) in seen:
                continue
            seen.add(id(t))
            nodes += 1
            data_bytes += t.data.nbytes
            if t.grad is not None:
                grad_bytes += t.grad.nbytes
            if t._backward is not None:
                ops[t._backward.__qualname__.split(".", 1)[0]] += 1
            stack.extend(t._parents)
        del t, stack, seen
        self.counters["tensor.graphs"] += 1
        self.counters["tensor.graph_nodes"] += nodes
        for op, n in ops.items():
            self.counters[f"tensor.nodes.{op}"] += n
        self.graph_bytes_max = max(self.graph_bytes_max, data_bytes + grad_bytes)
        self.grad_bytes_max = max(self.grad_bytes_max, grad_bytes)
        self.close(rec)

    def file_bytes(self, name: str, path_arg: int):
        def after(_result, args):
            self.counters[f"{name}.bytes"] += os.path.getsize(args[path_arg])

        return after

    def on_gc(self, phase: str, info: dict) -> None:
        if info["generation"] != 2:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.counters["tensor.gc_full.count"] += 1
            self.counters["tensor.gc_full.pause_s"] += time.perf_counter() - self._gc_start
            self._gc_start = None

    def document(self) -> dict:
        counters = dict(self.counters)
        counters["tensor.graph_mb"] = self.graph_bytes_max / MIB
        counters["tensor.grad_mb_at_forward"] = self.grad_bytes_max / MIB
        return {"run_id": self.run_id, "clock": "time.perf_counter, seconds",
                "fields": ["name", "start", "end", "parent"],
                "counters": counters, "spans": self.spans}


def install(tracer: Tracer) -> None:
    """Wrap restuner's public callables; call before the CLI builds its parser.

    ``tracer.uninstall()`` puts every original back.
    """
    import restuner
    from restuner import backbone, cli, config, data_io, layers, tensor, training, tuners

    modules = (restuner, backbone, cli, config, data_io, layers, tensor, training, tuners)
    functions = {
        "backbone.build_backbone": (backbone.build_backbone, None),
        "backbone.block_forward": (backbone.block_forward, None),
        "backbone.patchify": (backbone.patchify, None),
        "tuners.attach": (tuners.attach, None),
        "training.train": (training.train, None),
        "training.evaluate": (training.evaluate, None),
        "training.cross_entropy": (training.cross_entropy, tracer.walk_graph),
        "config.load_run_config": (config.load_run_config, None),
        **{f"cli.{c}": (getattr(cli, f"cmd_{c}"), None) for c in COMMANDS},
        **{
            f"data_io.{f}": (getattr(data_io, f), tracer.file_bytes(f"data_io.{f}", int(f.startswith("save"))))
            for f in DATA_IO
        },
    }
    for name, (fn, after) in functions.items():
        wrapper = tracer.wrap(name, fn, after)
        bindings = [(mod, attr) for mod in modules for attr, val in vars(mod).items() if val is fn]
        if not bindings:
            raise RuntimeError(f"tracer found no binding for {name}")
        for mod, attr in bindings:  # every name it is looked up under
            tracer.patch(mod, attr, wrapper)

    methods = {
        "tensor.backward": (tensor.Tensor, "backward", None),
        "training.zero_grad": (training.Optimizer, "zero_grad", None),
        "training.opt_step": (training.Optimizer, "step", tracer.close_step),
        **{f"layers.{c}": (getattr(layers, c), "__call__", None) for c in LAYER_CLASSES},
    }
    for cls in (tuners.ResAttnTuner, tuners.AdapterTuner, tuners.PrefixTuner, tuners.PromptTuner):
        methods[f"tuners.{cls.kind}"] = (cls, "__call__", None)
    for name, (cls, attr, after) in methods.items():
        tracer.patch(cls, attr, tracer.wrap(name, vars(cls)[attr], after))

    forward = tracer.wrap("backbone.forward", vars(backbone.ModelGraph)["__call__"])

    def model_call(model, *args, **kwargs):
        tracer.open_step(model)
        return forward(model, *args, **kwargs)

    tracer.patch(backbone.ModelGraph, "__call__", model_call)
    gc.callbacks.append(tracer.on_gc)


def main(argv) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS.json RUN_ID -- <restuner CLI args>", file=sys.stderr)
        return 2
    out, run_id, cli_argv = argv[0], argv[1], argv[3:]
    tracer = Tracer(run_id)
    install(tracer)
    from restuner.cli import main as cli_main

    try:
        return cli_main(cli_argv)
    finally:
        tracer.uninstall()
        with open(out, "w") as f:
            json.dump(tracer.document(), f)


# -- summary (standard library only) ----------------------------------------


def _p99(values):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def span_stats(spans) -> dict:
    """name -> {calls, durations (s, minus tracer spans inside), self_s}."""
    n = len(spans)
    dur = [end - start for _, start, end, _ in spans]
    children = [0.0] * n
    traced_inside = [0.0] * n
    for i in range(n - 1, -1, -1):  # a parent is opened, hence listed, before its children
        name, _, _, parent = spans[i]
        if parent >= 0:
            children[parent] += dur[i]
            traced_inside[parent] += dur[i] if name.startswith("trace.") else traced_inside[i]
    stats = defaultdict(lambda: {"calls": 0, "durations": [], "self_s": 0.0})
    for i, (name, _, _, _) in enumerate(spans):
        s = stats[name]
        s["calls"] += 1
        s["durations"].append(dur[i] - traced_inside[i])
        s["self_s"] += dur[i] - children[i]
    return dict(stats)


def per_layer_metrics(doc: dict) -> dict:
    """Every per-layer metric as name -> (value, unit); 0 where a layer never ran."""
    stats = span_stats(doc["spans"])
    counters = doc["counters"]

    def st(name):
        return stats.get(name, {"calls": 0, "durations": [], "self_s": 0.0})

    def total_ms(name):
        return sum(st(name)["durations"]) * 1e3

    def quantile_ms(name, q):
        d = st(name)["durations"]
        return (statistics.median(d) if q == 50 else _p99(d)) * 1e3 if d else 0.0

    def median_s(name):
        d = st(name)["durations"]
        return statistics.median(d) if d else 0.0

    m = {"tensor.graph_nodes": (counters.get("tensor.graph_nodes", 0), "count")}
    for op in GRAPH_OPS:
        m[f"tensor.nodes.{op}"] = (counters.get(f"tensor.nodes.{op}", 0), "count")
    m["tensor.graph_mb"] = (counters.get("tensor.graph_mb", 0.0), "MiB")
    m["tensor.grad_mb_at_forward"] = (counters.get("tensor.grad_mb_at_forward", 0.0), "MiB")
    m["tensor.gc_full.count"] = (counters.get("tensor.gc_full.count", 0), "count")
    m["tensor.gc_full.pause_ms"] = (counters.get("tensor.gc_full.pause_s", 0.0) * 1e3, "ms")
    for name in ("tensor.backward", "training.step", "backbone.forward"):
        m[f"{name}.ms_p50"] = (quantile_ms(name, 50), "ms")
        m[f"{name}.ms_p99"] = (quantile_ms(name, 99), "ms")
    m["tensor.backward.calls"] = (st("tensor.backward")["calls"], "count")
    for name in ("training.opt_step", "training.zero_grad", "training.cross_entropy"):
        m[f"{name}.ms"] = (total_ms(name), "ms")
    m["training.train.s"] = (median_s("training.train"), "s")
    m["training.evaluate.s"] = (median_s("training.evaluate"), "s")
    for layer in [f"layers.{c}" for c in LAYER_CLASSES] + [f"tuners.{k}" for k in TUNER_KINDS]:
        m[f"{layer}.self_ms"] = (st(layer)["self_s"] * 1e3, "ms")
        m[f"{layer}.calls"] = (st(layer)["calls"], "count")
    m["backbone.block_forward.self_ms"] = (st("backbone.block_forward")["self_s"] * 1e3, "ms")
    m["backbone.patchify.ms"] = (total_ms("backbone.patchify"), "ms")
    for name in ("backbone.build_backbone", "tuners.attach"):
        m[f"{name}.ms"] = (total_ms(name), "ms")
        m[f"{name}.calls"] = (st(name)["calls"], "count")
    for f in DATA_IO:
        m[f"data_io.{f}.ms"] = (total_ms(f"data_io.{f}"), "ms")
        m[f"data_io.{f}.mb"] = (counters.get(f"data_io.{f}.bytes", 0) / MIB, "MiB")
    m["config.load_run_config.ms"] = (total_ms("config.load_run_config"), "ms")
    for c in COMMANDS:
        m[f"cli.{c}.self_ms"] = (st(f"cli.{c}")["self_s"] * 1e3, "ms")
    m["trace.spans"] = (len(doc["spans"]), "count")
    return m


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
