"""restuner benchmark: CLI workloads timed in fresh child processes.

    python3 perfbench/run.py --workload matrix-toy --seed 1 --seconds 30 --trace 0

Set-up writes each workload's config and data files from ``--seed`` (and,
for eval-mix, trains the checkpoint to evaluate); it runs several times and
reports the median as ``setup_s``. The timed command then repeats, each time
in a fresh ``python3 -m restuner.cli`` child, until ``--seconds`` would be
exceeded. Every child runs under an address-space limit, so a memory blow-up
fails as a counted operation instead of waking the OOM killer. Outputs are
checked after every command; each check counts as one operation.

``--trace 0`` prints the end-to-end metrics (medians over the repeats).
``--trace 1`` also runs the command once under ``tracer.py`` and prints the
per-layer metrics, with the tracing overhead against the untraced median.
``--workload all`` runs the three workloads one after another.

This file uses the standard library only, so the process that forks the
measured children holds no BLAS threads. The last line of standard output
is one JSON object: correct, attempted, failed and metrics. Run files (logs,
span file, per-layer table, result.json with the environment manifest) go
to ``.perfbench_runs/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
PY = sys.executable
CLI = (PY, "-m", "restuner.cli")

SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 2.0  # cheap set-ups repeat more, for a steadier median
RUN_BUDGET_S = 170.0  # a run must exit within 180 s
MEMORY_LIMIT = 4 << 30  # RLIMIT_AS of every child, bytes
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "RES_TUNER_THREADS")
MIN_TRAIN_ACC = 0.85  # acceptance criterion 5
EVAL_LOSS_RTOL = 1e-9  # batch-64 vs batch-1 loss: summation order differs


def child_env() -> dict:
    """The user's environment (thread variables untouched) plus the source
    path and a fixed hash seed: with random string hashing, peak RSS of the
    same eval run varied by 13% between runs."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC), PYTHONHASHSEED="0")


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


@dataclass
class Child:
    rc: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


def spawn(argv, cwd: Path, log: Path, timeout: float) -> Child:
    """Run one child to its exit; wall from spawn to exit, peak RSS of it alone."""
    out_path, err_path = log.with_suffix(".out"), log.with_suffix(".err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [str(a) for a in argv], cwd=cwd, env=child_env(), stdout=out, stderr=err,
            preexec_fn=_limit_memory,
        )
        signal.signal(signal.SIGALRM, lambda *_: os.kill(proc.pid, signal.SIGKILL))
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                 out_path.read_text(), err_path.read_text())


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def last_json(text: str):
    lines = text.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class Run:
    """One workload at one seed: set-up, timed repeats, checks, metrics."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        self.spec = workloads.WORKLOADS[name]
        self.name, self.seed, self.seconds, self.trace = name, seed, seconds, trace
        self.dir = RUNS / f"{name}-seed{seed}-trace{int(trace)}"
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.checks = []  # (name, ok, detail)
        self.fingerprints = []  # one per timed command, compared across repeats
        self.train_acc = None
        self.eval_ref = None
        self.n_children = 0

    # -- plumbing ---------------------------------------------------------

    def check(self, name: str, ok, detail="") -> bool:
        self.checks.append((name, bool(ok), str(detail)))
        return bool(ok)

    def child(self, argv, cwd: Path, tag: str) -> Child:
        self.n_children += 1
        log = self.dir / "logs" / f"{self.n_children:03d}-{tag}"
        c = spawn(argv, cwd, log, self.deadline - time.monotonic())
        if c.rc != 0:
            detail = c.stderr.strip().splitlines()[-1:] or [f"exit {c.rc}"]
            self.check(f"{tag}: exit code 0", False, f"exit {c.rc}: {detail[0]}")
        else:
            self.check(f"{tag}: exit code 0", True)
        return c

    def helper(self, *args, tag: str):
        c = self.child((PY, HERE / "helper.py", *args), self.dir, tag)
        try:
            return last_json(c.stdout) if c.rc == 0 else None
        except ValueError:
            return None

    # -- phases -----------------------------------------------------------

    def setup(self) -> list:
        """Generate inputs (and eval-mix's checkpoint) several times; the times."""
        times, digests = [], []
        while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS:
            i = len(times)
            work = self.dir / f"setup{i}"
            work.mkdir(parents=True)
            t0 = time.perf_counter()
            self.helper("inputs", self.name, self.seed, work, tag=f"setup{i}-inputs")
            for argv in self.spec.setup_commands:
                self.child((*CLI, *argv), work, f"setup{i}-{argv[0]}")
            times.append(time.perf_counter() - t0)
            digests.append({
                str(p.relative_to(work)): sha256(p)
                for p in sorted(work.rglob("*"))
                if p.is_file() and p.name != "metrics.jsonl"  # holds elapsed times
            })
        self.check(f"set-up files identical across {len(times)} repeats", all(d == digests[0] for d in digests))
        self.work = self.dir / "setup0"
        if self.name == "eval-mix":
            # reference for the eval check: same files, batch size 1, untimed
            self.eval_ref = self.helper("eval-ref", self.work / "ckpt" / "model.rtck",
                                        self.work / "eval.rtds", tag="eval-ref")
        return times

    def command(self, argv, tag: str) -> Child:
        out = self.work / "out"
        if out.exists():  # no stale output can pass a check
            shutil.rmtree(out)
        c = self.child(argv, self.work, tag)
        try:
            self.fingerprints.append(CHECKS[self.name](self, c))
        except (OSError, ValueError, KeyError, TypeError) as e:
            self.check(f"{tag}: outputs readable", False, f"{type(e).__name__}: {e}")
        return c

    def measure(self) -> list:
        """Repeat the timed command until --seconds would be exceeded."""
        reps = []
        t0 = time.perf_counter()
        while True:
            reps.append(self.command((*CLI, *self.spec.command), f"rep{len(reps)}"))
            median = statistics.median(c.wall_s for c in reps)
            elapsed = time.perf_counter() - t0
            reserve = (3 if self.trace else 1) * median + 10.0
            if elapsed + median > self.seconds or self.deadline - time.monotonic() < reserve:
                return reps

    def finish_checks(self) -> None:
        if len(self.fingerprints) >= 2:
            self.check(f"outputs identical across {len(self.fingerprints)} commands",
                       all(f == self.fingerprints[0] for f in self.fingerprints))
        if self.name == "train-vit":
            ckpt = self.work / "out" / "model.rtck"
            self.check("model.rtck loads with load_checkpoint",
                       self.helper("load-check", ckpt, tag="load-check") is not None)

    # -- one run ----------------------------------------------------------

    def execute(self) -> dict:
        self.dir.parent.mkdir(exist_ok=True)
        if self.dir.exists():
            shutil.rmtree(self.dir)
        (self.dir / "logs").mkdir(parents=True)
        setup_times = self.setup()
        reps = self.measure()
        wall = statistics.median(c.wall_s for c in reps)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (wall, "s"),
            "img_per_s": (self.spec.images / wall, "1/s"),
            "peak_rss_mb": (statistics.median(c.rss_mb for c in reps), "MiB"),
        }
        layer_metrics = None
        if self.trace:
            spans = self.dir / "spans.json"
            run_id = f"{self.name}-seed{self.seed}-{os.getpid()}"
            traced = self.command((PY, HERE / "tracer.py", spans, run_id, "--", *self.spec.command), "traced")
            if self.check("traced run wrote its span file", spans.exists()):
                doc = json.loads(spans.read_text())
                layer_metrics = tracer.per_layer_metrics(doc)
                layer_metrics["trace.overhead_s"] = (traced.wall_s - wall, "s")
        self.finish_checks()
        for i in range(len(setup_times)):  # inputs and outputs; logs and results stay
            shutil.rmtree(self.dir / f"setup{i}")
        manifest = self.manifest()
        failed = sum(1 for _, ok, _ in self.checks if not ok)
        result = {
            "workload": self.name,
            "manifest": manifest,
            "setup_times_s": setup_times,
            "repeats": [{"wall_s": c.wall_s, "peak_rss_mb": c.rss_mb, "rc": c.rc} for c in reps],
            "train_acc": self.train_acc,
            "checks": self.checks,
            "metrics": metrics,
            "per_layer": layer_metrics,
            "correct": failed == 0,
            "attempted": len(self.checks),
            "failed": failed,
        }
        (self.dir / "result.json").write_text(json.dumps(result, indent=1))
        if layer_metrics:
            (self.dir / "layers.txt").write_text(table(layer_metrics))
        return result

    def manifest(self) -> dict:
        env = self.helper("manifest", tag="manifest") or {}
        commit = None
        if (ROOT / ".git").exists():
            try:
                commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                        text=True, timeout=10).stdout.strip() or None
            except (OSError, subprocess.SubprocessError):
                pass
        digest = hashlib.sha256()
        for p in sorted(SRC.rglob("*.py")):
            digest.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
        return {
            "git_commit": commit,
            "src_sha256": digest.hexdigest(),
            **env,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "nproc": len(os.sched_getaffinity(0)),
            "seed": self.seed,
            "derived_seeds": workloads.derived_seeds(self.name, self.seed),
            "child_env": {"PYTHONHASHSEED": "0", "RLIMIT_AS_MiB": MEMORY_LIMIT >> 20},
        }


# -- per-workload output checks; each returns the command's fingerprint --------


def check_matrix(run: Run, c: Child):
    path = run.work / "out" / "matrix.json"
    payload = json.loads(path.read_text())
    single, dual = payload["single"], payload["dual"]
    cells = [*single.values(), *dual.values()]
    run.check("matrix: 12 single and 16 dual cells", len(single) == 12 and len(dual) == 16,
              f"{len(single)} single, {len(dual)} dual")
    run.check("matrix: zero_init_identity in every cell", all(v["zero_init_identity"] for v in cells))
    acc = min(v["train_accuracy"] for v in cells)
    run.check(f"matrix: min train accuracy >= {MIN_TRAIN_ACC}", acc >= MIN_TRAIN_ACC, f"{acc:.6f}")
    run.train_acc = acc
    return sha256(path)


def check_train(run: Run, c: Child):
    lines = (run.work / "out" / "metrics.jsonl").read_text().splitlines()
    train = [r for r in map(json.loads, lines) if r["split"] == "train"]
    epochs = workloads.VIT_EPOCHS
    run.check(f"train: {epochs} finite-loss train record(s)",
              len(train) == epochs and all(math.isfinite(r["loss"]) for r in train),
              f"{len(train)} records")
    return sha256(run.work / "out" / "model.rtck")


def check_eval(run: Run, c: Child):
    out = last_json(c.stdout)
    acc, loss = out["accuracy"], out["loss"]
    ref = run.eval_ref
    ok = ref is not None and acc == ref["accuracy"] and abs(loss - ref["loss"]) <= EVAL_LOSS_RTOL * abs(ref["loss"])
    run.check("eval: matches batch-1 evaluate", ok, f"got {acc!r}/{loss!r}, reference {ref}")
    return (acc, loss)


CHECKS = {"matrix-toy": check_matrix, "train-vit": check_train, "eval-mix": check_eval}


# -- output -----------------------------------------------------------------


def table(metrics: dict) -> str:
    return "".join(f"  {name:36s} {value:16.6f} {unit}\n" for name, (value, unit) in metrics.items())


def report(result: dict) -> None:
    print(f"== {result['workload']}  seed {result['manifest']['seed']}")
    print("manifest:", json.dumps(result["manifest"], sort_keys=True))
    walls = ", ".join(f"{r['wall_s']:.3f}" for r in result["repeats"])
    print(f"  repeats: {len(result['repeats'])} (wall s: {walls})")
    print(table(result["metrics"]), end="")
    if result["train_acc"] is not None:  # min final train accuracy over the 28 cells
        print(table({"train_acc": (result["train_acc"], "fraction")}), end="")
    if result["per_layer"]:
        print("per-layer (traced run):")
        print(table(result["per_layer"]), end="")
    for name, ok, detail in result["checks"]:
        if not ok:
            print(f"  FAILED check: {name} {detail}")
    print(f"  checks: {result['attempted'] - result['failed']}/{result['attempted']} passed")


def as_json(metrics: dict, prefix: str = "") -> dict:
    return {f"{prefix}{k}": {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "restuner" / "cli.py").is_file():
        print(f"error: restuner sources not found under {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = Run(name, args.seed, args.seconds, bool(args.trace)).execute()
        report(result)
        results.append(result)
    metrics = {}
    for r in results:
        prefix = f"{r['workload']}." if len(results) > 1 else ""
        metrics.update(as_json((r["per_layer"] if args.trace else r["metrics"]) or {}, prefix))
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
