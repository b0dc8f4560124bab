"""Command-line surface: train / eval / count-params / grad-check / matrix.

Exit codes: 0 success, 1 check failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .backbone import build_backbone
from .config import ConfigError, RunConfig, load_run_config
from .data_io import (
    FormatError,
    load_binary_dataset,
    load_checkpoint,
    save_binary_dataset,
    save_checkpoint,
    split_dataset,
    synth_dataset,
)
from .tensor import Tensor, no_grad
from .training import check_dataset, evaluate, grad_check, train
from .tuners import ATTACH_OPS, TUNER_KINDS, TUNERS, AttachError, AttachSpec, ResAttnTuner
from .tuners import attach, count_trainable_params

# published trainable-parameter counts for rank x heads at every MHA slot
# of the 12-block, width-768 backbone (counting convention differs
# slightly; deviation is reported, not hidden)
REFERENCE_COUNTS = {(8, 8): 2.35e6, (8, 4): 1.22e6, (4, 4): 0.66e6, (2, 4): 0.32e6}


def _load_datasets(run: RunConfig):
    if run.data.source == "synthetic":
        ds = synth_dataset(run.dataset_spec(), task=run.data.task)
    else:
        ds = load_binary_dataset(run.data.path)
    train_ds, eval_ds = split_dataset(ds, run.data.train_fraction, seed=run.data.seed)
    if not len(train_ds):
        fraction = run.data.train_fraction
        raise ConfigError(f"[data]: train_fraction {fraction} of {len(ds)} items is an empty split")
    return train_ds, eval_ds


def cmd_train(args) -> int:
    run = load_run_config(args.config)
    if args.seed is not None:
        run.train = replace(run.train, seed=args.seed)
    out = Path(args.out or run.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train_ds, eval_ds = _load_datasets(run)
    # round-trip through the on-disk format so eval-from-file is bit-exact
    save_binary_dataset(train_ds, out / "train.rtds")
    train_ds = load_binary_dataset(out / "train.rtds")
    if len(eval_ds):
        save_binary_dataset(eval_ds, out / "eval.rtds")
        eval_ds = load_binary_dataset(out / "eval.rtds")
    else:
        eval_ds = None
    model = build_backbone(run.backbone)
    attach(model, run.tuner_specs)
    train(model, train_ds, run.train, metrics_path=out / "metrics.jsonl", eval_dataset=eval_ds)
    save_checkpoint(model, out / "model.rtck")
    print(f"checkpoint written to {out / 'model.rtck'}")
    return 0


def cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    ds = load_binary_dataset(args.data)
    acc, loss = evaluate(model, ds)
    print(json.dumps({"accuracy": acc, "loss": loss}))
    return 0


def cmd_count_params(args) -> int:
    run = load_run_config(args.config)
    model = build_backbone(run.backbone)
    attach(model, run.tuner_specs)
    counts, total, analytic = count_trainable_params(
        model, include_head=args.include_head, include_bias=args.include_bias
    )
    result = {"components": counts, "total": total, "analytic_total": analytic}
    ref = _reference_count(run)
    if ref is not None:
        result["reference"] = ref
        result["deviation_pct"] = abs(total - ref) / ref * 100.0
    if args.json:
        print(json.dumps(result))
    else:
        for name, n in counts.items():
            print(f"{name:48s} {n:>12,d}")
        print(f"{'total':48s} {total:>12,d}")
        print(f"{'closed-form cross-check':48s} {analytic:>12,d}")
        if ref is not None:
            print(f"reported: {ref / 1e6:.2f}M, deviation {result['deviation_pct']:.1f}%")
    if total != analytic:
        print("ERROR: flag-sum and closed-form counts disagree", file=sys.stderr)
        return 1
    return 0


def _reference_count(run: RunConfig):
    """Published count, when the config matches a published row."""
    b = run.backbone
    if (b.dim, b.depth) != (768, 12) or not run.tuner_specs:
        return None
    specs = run.tuner_specs
    if len(specs) != b.depth:
        return None
    first = specs[0]
    if first.kind != ResAttnTuner.kind or any(s.op != "mha" for s in specs):
        return None
    opts = {**ResAttnTuner.defaults(), **first.options}
    return REFERENCE_COUNTS.get((opts["rank"], opts["heads"]))


def cmd_grad_check(args) -> int:
    run = load_run_config(args.config)
    train_ds, _ = _load_datasets(run)
    model = build_backbone(run.backbone)
    attach(model, run.tuner_specs)
    check_dataset(model, train_ds)
    probe = train_ds.subset(slice(8))
    report, ok = grad_check(model, probe.images, probe.labels, eps=args.eps, tol=args.tol)
    print(f"grad check: eps={args.eps} tol={args.tol}")
    for name, entry in report.items():
        print(f"  {'PASS' if entry['pass'] else 'FAIL'} {name:48s} rel_err={entry['rel_err']:.3e}")
    print("RESULT:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _matrix_cell(run: RunConfig, specs, train_ds, eval_ds, frozen_logits):
    """Check one cell's zero-init identity against ``frozen_logits``, then train it."""
    model = build_backbone(run.backbone)
    attach(model, specs)
    with no_grad():
        identity = bool(np.array_equal(model(Tensor(train_ds.images[:2])).data, frozen_logits))
    history = train(model, train_ds, run.train, quiet=True)
    final_train = [h for h in history if h["split"] == "train"][-1]["accuracy"]
    acc, _ = evaluate(model, eval_ds) if len(eval_ds) else (float("nan"), 0.0)
    return {"zero_init_identity": identity, "train_accuracy": final_train, "eval_accuracy": acc}


def _uniform_specs(kind: str, op: str, depth: int) -> list:
    return [AttachSpec(block_index=b, op=op, kind=kind) for b in range(depth)]


def cmd_matrix(args) -> int:
    run = load_run_config(args.config)
    depth = run.backbone.depth
    train_ds, eval_ds = _load_datasets(run)
    frozen = build_backbone(run.backbone)
    check_dataset(frozen, train_ds)
    with no_grad():
        frozen_logits = frozen(Tensor(train_ds.images[:2])).data
    single = {}
    dual = {}
    for kind in TUNER_KINDS:
        for op in ATTACH_OPS:
            specs = _uniform_specs(kind, op, depth)
            single[(kind, op)] = _matrix_cell(run, specs, train_ds, eval_ds, frozen_logits)
    for mha_kind in TUNER_KINDS:
        for ffn_kind in TUNER_KINDS:
            specs = _uniform_specs(mha_kind, "mha", depth) + _uniform_specs(ffn_kind, "ffn", depth)
            dual[(mha_kind, ffn_kind)] = _matrix_cell(run, specs, train_ds, eval_ds, frozen_logits)

    print("single-tuner grid (final train accuracy)")
    _print_grid(single, cols=ATTACH_OPS, col_labels=[c.upper() for c in ATTACH_OPS])
    print("dual-tuner grid, MHA kind x FFN kind (final train accuracy)")
    _print_grid(dual, cols=TUNER_KINDS, col_labels=[TUNERS[k].label for k in TUNER_KINDS])

    out = Path(run.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "single": {f"{k}/{op}": v for (k, op), v in single.items()},
        "dual": {f"{a}+{b}": v for (a, b), v in dual.items()},
    }
    with open(out / "matrix.json", "w") as f:
        json.dump(payload, f, indent=2)
    print(f"grids written to {out / 'matrix.json'}")
    ok = all(v["zero_init_identity"] for v in [*single.values(), *dual.values()])
    return 0 if ok else 1


def _print_grid(cells, cols, col_labels):
    header = f"{'':12s}" + "".join(f"{c:>12s}" for c in col_labels)
    print(header)
    for kind in TUNER_KINDS:
        row = f"{TUNERS[kind].label:12s}"
        for col in cols:
            row += f"{cells[(kind, col)]['train_accuracy']:>12.3f}"
        print(row)


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="restuner", description="residual-tuner experiment runner")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train per a run config")
    t.add_argument("--config", required=True)
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--out", default=None)
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a dataset file")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.set_defaults(fn=cmd_eval)

    c = sub.add_parser("count-params", help="trainable parameter accounting")
    c.add_argument("--config", required=True)
    c.add_argument("--include-head", action="store_true")
    c.add_argument("--include-bias", action="store_true")
    c.add_argument("--json", action="store_true")
    c.set_defaults(fn=cmd_count_params)

    g = sub.add_parser("grad-check", help="backward vs finite differences")
    g.add_argument("--config", required=True)
    g.add_argument("--eps", type=_positive_float, default=1e-5)
    g.add_argument("--tol", type=_positive_float, default=1e-4)
    g.set_defaults(fn=cmd_grad_check)

    m = sub.add_parser("matrix", help="single and dual attach-point grids")
    m.add_argument("--config", required=True)
    m.set_defaults(fn=cmd_matrix)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ConfigError, FormatError, AttachError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
