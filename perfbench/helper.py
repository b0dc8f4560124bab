"""Child-side tasks of the benchmark that need numpy or restuner.

The orchestrator (``run.py``) stays on the standard library, so it can fork
the measured children without BLAS threads alive in its own process. Every
task here runs in a child of its own:

    python3 perfbench/helper.py inputs WORKLOAD SEED DIR
    python3 perfbench/helper.py manifest
    python3 perfbench/helper.py load-check CHECKPOINT
    python3 perfbench/helper.py eval-ref CHECKPOINT DATA

Each prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import json
import struct
import sys
from pathlib import Path

import numpy as np

import workloads

RTDS_MAGIC = b"RTDS"
RTDS_VERSION = 1


def write_rtds(path, images: np.ndarray, labels: np.ndarray, classes: int) -> None:
    """Write the program's RTDS dataset format without using its code."""
    n, c, h, w = images.shape
    rec = np.empty(n, dtype=[("label", "<u4"), ("pixels", "<f4", (c * h * w,))])
    rec["label"] = labels
    rec["pixels"] = images.reshape(n, -1)
    with open(path, "wb") as f:
        f.write(RTDS_MAGIC)
        f.write(struct.pack("<IIIIII", RTDS_VERSION, n, classes, c, h, w))
        f.write(rec.tobytes())


def blobs(directions: np.ndarray, n: int, shape, rng, signal=3.0, noise=0.1):
    """Balanced class-conditional Gaussian blobs along unit class directions."""
    classes = len(directions)
    labels = rng.permutation(np.arange(n) % classes)
    flat = signal * directions[labels] + noise * rng.normal(size=(n, directions.shape[1]))
    return flat.reshape(n, *shape), labels


def make_inputs(name: str, seed: int, out: Path) -> dict:
    """Write the config and data files of one workload; return their sizes."""
    spec = workloads.WORKLOADS[name]
    seeds = workloads.derived_seeds(name, seed)
    out.mkdir(parents=True, exist_ok=True)
    (out / spec.config_file).write_text(spec.config_text(seeds))
    if spec.data:
        rng = np.random.default_rng(seeds["data"])
        shape = spec.image_shape
        dirs = rng.normal(size=(spec.classes, int(np.prod(shape))))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        for fname, count in spec.data.items():
            images, labels = blobs(dirs, count, shape, rng)
            write_rtds(out / fname, images, labels, spec.classes)
    return {p.name: p.stat().st_size for p in sorted(out.iterdir()) if p.is_file()}


def manifest() -> dict:
    import scipy

    dep = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    blas = {k: dep.get(k) for k in ("name", "version", "openblas configuration")}
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def load_check(checkpoint: str) -> dict:
    from restuner.data_io import load_checkpoint

    model = load_checkpoint(checkpoint)
    return {"tensors": sum(1 for _ in model.named_parameters()), "tuners": len(model.tuners)}


def eval_ref(checkpoint: str, data: str) -> dict:
    from restuner.data_io import load_binary_dataset, load_checkpoint
    from restuner.training import evaluate

    acc, loss = evaluate(load_checkpoint(checkpoint), load_binary_dataset(data), batch_size=1)
    return {"accuracy": acc, "loss": loss}


def main(argv) -> int:
    task, args = argv[0], argv[1:]
    if task == "inputs":
        result = make_inputs(args[0], int(args[1]), Path(args[2]))
    elif task == "manifest":
        result = manifest()
    elif task == "load-check":
        result = load_check(args[0])
    elif task == "eval-ref":
        result = eval_ref(args[0], args[1])
    else:
        print(f"unknown task {task!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
