import ctypes
import json
import math
import re
import warnings

import numpy as np
import pytest

import restuner.cli as cli
import restuner.tensor as T
from restuner.backbone import BackboneConfig, build_backbone
from restuner.cli import main
from restuner.config import ConfigError, load_run_config, parse_sections
from restuner.data_io import (
    Dataset, DatasetSpec, load_binary_dataset, save_binary_dataset, save_checkpoint, synth_dataset,
)
from restuner.tuners import TUNERS, attach

TOY_CONFIG = """
# toy run
[backbone]
dim = 16
depth = 2
heads = 2
patch = 4
image = 8
channels = 1
classes = 4
seed = 0

[tuner]
kind = res_attn
op = mha
blocks = all
rank = 2
heads = 2

[train]
optimizer = adamw
lr = 0.01
epochs = 6
batch = 16
seed = 0

[data]
size = 64
train_fraction = 0.75
seed = 0
signal = 3.0

[output]
dir = {out}
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(TOY_CONFIG.format(out=tmp_path / "run"))
    return path


# -- config parsing -----------------------------------------------------


def test_parse_sections_basic():
    sections = parse_sections("[a]\nx = 1\n# comment\n[b]\ny = two\n")
    assert sections == [("a", {"x": "1"}), ("b", {"y": "two"})]


def test_parse_rejects_stray_key():
    with pytest.raises(ConfigError, match="outside any"):
        parse_sections("x = 1")


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_sections("[a]\nx = 1\nx = 2\n")


def test_unknown_key_is_hard_error(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[backbone]\ndim = 16\ndeepness = 2\n")
    with pytest.raises(ConfigError, match="deepness"):
        load_run_config(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("[backbone]\ndim = 16\n[extra]\nx = 1\n", r"unknown section \[extra\]"),
        ("[backbone]\n[train]\nlr = 0.1\n[train]\nlr = 0.2\n", r"duplicate section \[train\]"),
        ("[output]\ndir = a\n[backbone]\n[output]\ndir = b\n", r"duplicate section \[output\]"),
    ],
    ids=["unknown", "second_train", "second_output"],
)
def test_unknown_section_is_hard_error(tmp_path, text, message):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match=message):
        load_run_config(path)


def test_output_dir_defaults_to_runs_out(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[backbone]\ndim = 16\n")
    assert load_run_config(path).output.dir == "runs/out"


def test_tuner_blocks_expansion(config_path):
    run = load_run_config(config_path)
    assert [s.block_index for s in run.tuner_specs] == [0, 1]
    assert all(s.kind == "res_attn" and s.options == {"rank": 2, "heads": 2}
               for s in run.tuner_specs)


def test_missing_backbone_section(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[train]\nlr = 0.1\n")
    with pytest.raises(ConfigError, match="backbone"):
        load_run_config(path)


# -- commands -----------------------------------------------------------


def test_cmd_train_and_eval(config_path, tmp_path, capsys):
    assert main(["train", "--config", str(config_path)]) == 0
    out = tmp_path / "run"
    assert (out / "model.rtck").exists()
    assert (out / "metrics.jsonl").exists()
    capsys.readouterr()

    rc = main(["eval", "--checkpoint", str(out / "model.rtck"),
               "--data", str(out / "eval.rtds")])
    assert rc == 0
    printed = json.loads(capsys.readouterr().out.strip())
    records = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
    last_eval = [r for r in records if r["split"] == "eval"][-1]
    assert printed["accuracy"] == last_eval["accuracy"]
    assert abs(printed["loss"] - last_eval["loss"]) < 1e-12


def test_cmd_train_trains_on_the_split_matrix_trains_on(config_path, tmp_path, capsys):
    """``train`` writes its splits but trains on the float32 arrays it holds,
    which are ``_load_datasets``' split, the one ``matrix`` trains on: the
    checkpoint equals one trained in process on that split."""
    from restuner.training import train
    from restuner.tuners import attach

    assert main(["train", "--config", str(config_path)]) == 0
    run = load_run_config(config_path)
    train_ds, eval_ds = cli._load_datasets(run)
    assert train_ds.images.dtype == np.float32
    model = build_backbone(run.backbone)
    attach(model, run.tuner_specs)
    train(model, train_ds, run.train, eval_dataset=eval_ds, quiet=True)
    save_checkpoint(model, tmp_path / "in_process.rtck")
    assert (tmp_path / "in_process.rtck").read_bytes() == (tmp_path / "run" / "model.rtck").read_bytes()


def test_cmd_eval_missing_file(tmp_path):
    assert main(["eval", "--checkpoint", str(tmp_path / "no.rtck"),
                 "--data", str(tmp_path / "no.rtds")]) == 2


@pytest.mark.parametrize(
    "case, message",
    [
        ("checkpoint is a directory", "Is a directory"),
        ("data file is a directory", "Is a directory"),
        ("[data] path is a directory", "Is a directory"),
        ("16-px images on an 8-px model", "model expects (1, 8, 8)"),
        ("10 classes on a 4-class model", "model has 4"),
        ("NaN pixel", "item 1"),
        ("NaN weight", "'head.W'"),
    ],
)
def test_cmd_input_errors_exit_2(tmp_path, capsys, case, message):
    model = build_backbone(BackboneConfig(image_size=8, num_classes=4))
    if case == "NaN weight":
        model.head.W.data[0, 0] = np.nan
    save_checkpoint(model, tmp_path / "m.rtck")
    side = 16 if case.startswith("16-px") else 8
    classes = 10 if case.startswith("10 classes") else 4
    images = np.zeros((classes, 1, side, side))
    save_binary_dataset(Dataset(images, np.arange(classes), classes), tmp_path / "d.rtds")
    if case == "NaN pixel":  # the writer refuses one, so it goes into the file's bytes
        with open(tmp_path / "d.rtds", "r+b") as f:
            f.seek(28 + (4 + 4 * 64) + 4 + 4 * (2 * 8 + 3))  # item 1, pixel (0, 2, 3)
            f.write(np.float32(np.nan).tobytes())
    argv = ["eval", "--checkpoint", str(tmp_path / "m.rtck"), "--data", str(tmp_path / "d.rtds")]
    if case == "checkpoint is a directory":
        argv[2] = str(tmp_path)
    elif case == "data file is a directory":
        argv[4] = str(tmp_path)
    elif case == "[data] path is a directory":
        config = f"[backbone]\n[data]\nsource = file\npath = {tmp_path}\n"
        (tmp_path / "run.cfg").write_text(config)
        argv = ["train", "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "Traceback" not in err, err


@pytest.mark.parametrize("section", ["backbone", "output"])
def test_cmd_train_malformed_config(tmp_path, capsys, section):
    path = tmp_path / "bad.cfg"
    header = "" if section == "backbone" else f"[{section}]\n"
    path.write_text(f"[backbone]\ndim = 16\n{header}bogus_key = 3\n")
    assert main(["train", "--config", str(path)]) == 2
    assert f"unknown key 'bogus_key' in [{section}]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new, key",
    [
        ("size = 64", "size = 2", "size"),  # below the class count
        ("[data]\n", "[data]\ntask = c\n", "task"),
        ("train_fraction = 0.75", "train_fraction = 0", "train_fraction"),
        ("signal = 3.0", "signal = nan", "signal must be finite"),
        ("signal = 3.0", "signal = inf", "signal must be finite"),
        ("signal = 3.0", "noise = nan", "noise must be finite"),
        ("signal = 3.0", "noise = -inf", "noise must be finite"),
        ("signal = 3.0", "task = b\nrotation = inf", "rotation must be finite"),
        ("signal = 3.0", "rotation = nan", "rotation must be finite"),
    ],
)
def test_cmd_bad_data_section_exits_2(config_path, capsys, old, new, key):
    config_path.write_text(config_path.read_text().replace(old, new))
    for command in ("train", "grad-check", "matrix"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [data]") and key in err and "Traceback" not in err, err


def test_cmd_grad_check_more_classes_than_probe_images(tmp_path, capsys):
    path = tmp_path / "g.cfg"
    path.write_text("[backbone]\ndim = 8\ndepth = 1\nheads = 2\npatch = 4\nimage = 8\nclasses = 10\n")
    assert main(["grad-check", "--config", str(path)]) == 0
    assert "RESULT: PASS" in capsys.readouterr().out


def test_cmd_train_seed_override_changes_metrics(config_path, tmp_path, capsys):
    out1, out2, out3 = (tmp_path / n for n in ("o1", "o2", "o3"))
    main(["train", "--config", str(config_path), "--out", str(out1)])
    main(["train", "--config", str(config_path), "--out", str(out2)])
    main(["train", "--config", str(config_path), "--out", str(out3), "--seed", "1"])
    capsys.readouterr()

    def metrics_wo_time(p):
        recs = [json.loads(l) for l in (p / "metrics.jsonl").read_text().splitlines()]
        return [{k: v for k, v in r.items() if k != "elapsed_sec"} for r in recs]

    assert metrics_wo_time(out1) == metrics_wo_time(out2)
    assert metrics_wo_time(out1) != metrics_wo_time(out3)
    assert (out1 / "model.rtck").read_bytes() == (out2 / "model.rtck").read_bytes()


def test_cmd_count_params_toy(config_path, capsys):
    assert main(["count-params", "--config", str(config_path), "--json"]) == 0
    result = json.loads(capsys.readouterr().out.strip())
    # dim=16, r=2, h=2, no biases: per tuner 16*12 + 4*16 = 256
    assert result["total"] == 2 * 256
    assert result["analytic_total"] == result["total"]


def test_cmd_count_params_empty_tuners(tmp_path, capsys):
    path = tmp_path / "plain.cfg"
    path.write_text("[backbone]\ndim = 16\ndepth = 2\nheads = 2\npatch = 4\nimage = 8\n")
    assert main(["count-params", "--config", str(path), "--json"]) == 0
    result = json.loads(capsys.readouterr().out.strip())
    assert result["total"] == 0


@pytest.mark.parametrize(
    "tuners, reference",
    [
        ("[tuner]\nkind = res_attn\nop = mha\nrank = 8\nheads = 8\n", 2.35e6),
        ("[tuner]\nkind = res_attn\nop = mha\nblocks = 0\nrank = 8\nheads = 8\n"
         "[tuner]\nkind = prefix\nop = mha\nblocks = 1,2,3,4,5,6,7,8,9,10,11\n", None),
        ("[tuner]\nkind = res_attn\nop = mha\nblocks = 0,2,3,4,5,6,7,8,9,10,11\nrank = 8\nheads = 8\n"
         "[tuner]\nkind = res_attn\nop = mha\nblocks = 1\nrank = 2\nheads = 8\n", None),
    ],
    ids=["uniform", "mixed_kinds", "mixed_ranks"],
)
def test_reference_count_only_for_a_published_row(tmp_path, tuners, reference):
    """A published count is reported only where every block's MHA has a
    ``res_attn`` with the same options, not where the first spec alone
    matches a row."""
    path = tmp_path / "wide.cfg"
    path.write_text("[backbone]\ndim = 768\ndepth = 12\nheads = 12\n" + tuners)
    assert cli._reference_count(load_run_config(path)) == reference


def test_cmd_grad_check_pass_and_corrupt(config_path, capsys, monkeypatch):
    assert main(["grad-check", "--config", str(config_path), "--tol", "1e-4"]) == 0
    out = capsys.readouterr().out
    assert "eps=1e-05" in out and "tol=0.0001" in out
    assert "RESULT: PASS" in out

    # a deliberately wrong GELU derivative must be caught
    monkeypatch.setattr(T, "_gelu_grad", lambda x, cdf, out: np.ones_like(x))
    assert main(["grad-check", "--config", str(config_path)]) == 1
    assert "RESULT: FAIL" in capsys.readouterr().out


_NOT_FLOAT32 = r"error: dataset item \d+ has a pixel value that is not a finite float32\n"


def test_cmd_grad_check_prints_no_overflow_warning(config_path, capsys):
    """Pixels of 1e300 are beyond float32, the one pixel precision, so
    grad-check exits 2 naming the item before any model runs, and numpy
    prints no warning (the suite makes a RuntimeWarning an error)."""
    config_path.write_text(config_path.read_text().replace("signal = 3.0", "signal = 1e300"))
    assert main(["grad-check", "--config", str(config_path)]) == 2
    captured = capsys.readouterr()
    assert re.fullmatch(_NOT_FLOAT32, captured.err), captured.err
    assert captured.out == ""


def test_matrix_zero_init_identity_holds_at_vit_tiny_width():
    """The matrix compares each zero-init cell's probe logits with the
    frozen backbone's by bytes, so the backbone must run the same products
    whichever tuners are attached. At vit-tiny width (head dim 64) a
    two-row attention differs from those rows of the whole one in the last
    bits, so a forward whose last attention ran two rows for the frozen
    model but every row beside a token-mixing FFN tuner failed the check
    for a correct model."""
    cfg = BackboneConfig(dim=192, depth=2, heads=3, patch=4, image_size=32,
                         in_channels=3, num_classes=10, seed=0)
    images = np.random.default_rng(3).normal(size=(2, 3, 32, 32))
    frozen = cli._zero_init_probe(build_backbone(cfg), images).tobytes()
    failed = []
    for grid, key, specs in cli._matrix_cells(cfg.depth):
        model = build_backbone(cfg)
        attach(model, specs)
        if cli._zero_init_probe(model, images).tobytes() != frozen:
            failed.append((grid, key))
    assert failed == []


def test_cmd_matrix_smoke(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RES_TUNER_THREADS", "abc")  # no longer read
    path = tmp_path / "m.cfg"
    path.write_text(
        "[backbone]\ndim = 8\ndepth = 1\nheads = 2\npatch = 4\nimage = 8\nclasses = 4\n"
        "[train]\nepochs = 2\nbatch = 16\nlr = 0.01\n"
        "[data]\nsize = 32\nsignal = 3.0\n"
        f"[output]\ndir = {tmp_path / 'mx'}\n"
    )
    assert main(["matrix", "--config", str(path)]) == 0
    payload = json.loads((tmp_path / "mx" / "matrix.json").read_text())
    assert len(payload["single"]) == 12
    assert len(payload["dual"]) == 16
    assert all(v["zero_init_identity"] for v in payload["single"].values())
    assert all(isinstance(v["eval_accuracy"], float) for v in payload["single"].values())


def _refuse_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_cmd_matrix_without_an_eval_split_writes_strict_json(tmp_path):
    """With ``train_fraction = 1.0`` there is no eval split, so each cell's
    ``eval_accuracy`` is ``null``: a strict parser, one that refuses
    ``NaN`` and ``Infinity``, reads the file."""
    path = tmp_path / "m.cfg"
    path.write_text(
        "[backbone]\ndim = 8\ndepth = 1\nheads = 2\npatch = 4\nimage = 8\nclasses = 4\n"
        "[train]\nepochs = 1\nbatch = 16\nlr = 0.01\n"
        "[data]\nsize = 16\nsignal = 3.0\ntrain_fraction = 1.0\n"
        f"[output]\ndir = {tmp_path / 'mx'}\n"
    )
    assert main(["matrix", "--config", str(path)]) == 0
    payload = json.loads((tmp_path / "mx" / "matrix.json").read_text(), parse_constant=_refuse_constant)
    cells = [*payload["single"].values(), *payload["dual"].values()]
    assert len(cells) == 28
    assert all(cell["eval_accuracy"] is None for cell in cells)
    assert all(0.0 <= cell["train_accuracy"] <= 1.0 for cell in cells)


_TUNER_CONFIG = (
    "[backbone]\ndim = 16\ndepth = 2\nheads = 2\npatch = 4\nimage = 8\nclasses = 4\n"
    "[tuner]\nkind = {kind}\nop = mha\n{name} = 0\n"
)


@pytest.mark.parametrize("kind", sorted(TUNERS))
def test_cmd_count_params_invalid_tuner_option_exits_2(tmp_path, capsys, kind):
    int_opts = [k for k, v in TUNERS[kind].defaults().items() if type(v) is int]
    assert int_opts, kind
    path = tmp_path / "t.cfg"
    for name in int_opts:
        path.write_text(_TUNER_CONFIG.format(kind=kind, name=name))
        assert main(["count-params", "--config", str(path), "--json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err, err


@pytest.mark.parametrize("key", ["heads", "patch"])
def test_cmd_zero_backbone_size_exits_2(tmp_path, capsys, key):
    path = tmp_path / "b.cfg"
    path.write_text(f"[backbone]\ndim = 16\n{key} = 0\n")
    assert main(["count-params", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [backbone]") and key in err, err


@pytest.mark.parametrize("flag, value", [("--eps", "0"), ("--eps", "-1e-5"), ("--eps", "nan"),
                                         ("--tol", "0"), ("--tol", "-1")])
def test_cmd_grad_check_rejects_non_positive_eps_tol(config_path, capsys, flag, value):
    assert main(["grad-check", "--config", str(config_path), f"{flag}={value}"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and flag in err, err


def test_matrix_json_independent_of_blas_threads(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import restuner

    path = tmp_path / "m.cfg"
    path.write_text(
        "[backbone]\ndim = 8\ndepth = 1\nheads = 2\npatch = 4\nimage = 8\nclasses = 4\n"
        "[train]\nepochs = 2\nbatch = 16\nlr = 0.01\n"
        "[data]\nsize = 32\nsignal = 3.0\n"
    )
    src = str(Path(restuner.__file__).resolve().parents[1])
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in thread_vars}
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    outputs = []
    for threads in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        subprocess.run(
            [sys.executable, "-m", "restuner.cli", "matrix", "--config", str(path)],
            cwd=tmp_path, env={**env, **threads}, check=True, capture_output=True,
        )
        outputs.append((tmp_path / "runs" / "out" / "matrix.json").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["train", "matrix"])
def test_cmd_empty_train_split_exits_2(config_path, capsys, command):
    text = config_path.read_text().replace("size = 64", "size = 4")
    config_path.write_text(text.replace("train_fraction = 0.75", "train_fraction = 0.1"))
    assert main([command, "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [data]") and "train_fraction" in err, err


def test_cmd_grad_check_reads_data_file(config_path, tmp_path, capsys):
    data = tmp_path / "probe.rtds"
    text = config_path.read_text().replace("[data]\n", f"[data]\nsource = file\npath = {data}\n")
    config_path.write_text(text)
    assert main(["grad-check", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "probe.rtds" in err, err

    spec = DatasetSpec(num_classes=4, shape=(1, 8, 8), size=16, signal=3.0)
    save_binary_dataset(synth_dataset(spec), data)
    assert main(["grad-check", "--config", str(config_path)]) == 0
    assert "RESULT: PASS" in capsys.readouterr().out


_FOUR_KIND_CONFIG = """
[backbone]
dim = 16
depth = 2
heads = 2
patch = 4
image = 8
classes = 4
seed = 0
[tuner]
kind = res_attn
op = mha
blocks = 0
qkv_bias = true
[tuner]
kind = prefix
op = mha
blocks = 1
[tuner]
kind = adapter
op = ffn
[tuner]
kind = prompt
op = block
[train]
epochs = 3
batch = 16
lr = 0.01
[data]
size = 48
signal = 3.0
"""


def test_fused_ops_train_the_checkpoint_their_primitive_chains_train(tmp_path, monkeypatch, capsys):
    """One run with the fused ops, one with each replaced by the primitive
    chain it fuses: the two checkpoints must be the same bytes."""
    import restuner.layers
    from primitives import composed_ffn, composed_layer_norm, composed_linear, composed_mha_attention

    path = tmp_path / "four.cfg"
    path.write_text(_FOUR_KIND_CONFIG)
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "fused")]) == 0

    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(T, "linear", counted("linear", composed_linear))
    monkeypatch.setattr(T, "ffn", counted("ffn", composed_ffn))
    monkeypatch.setattr(restuner.layers, "layer_norm", counted("layer_norm", composed_layer_norm))
    monkeypatch.setattr(T, "attention", counted("attention", composed_mha_attention))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "chain")]) == 0
    assert sorted(calls) == ["attention", "ffn", "layer_norm", "linear"]
    fused = (tmp_path / "fused" / "model.rtck").read_bytes()
    assert (tmp_path / "chain" / "model.rtck").read_bytes() == fused


def test_cmd_train_smoothing_writes_the_checkpoint_of_a_hand_loop(config_path, tmp_path):
    """``[train] smoothing = 0.1`` reaches the loss: ``restuner train``
    writes the checkpoint of a hand-written loop over
    ``cross_entropy(..., 0.1)`` that steps at the cosine schedule's closed
    form, which reaches 0 at the last step."""
    from restuner.tensor import Tensor, cross_entropy
    from restuner.training import make_optimizer

    text = config_path.read_text().replace("seed = 0\n\n[data]", "seed = 0\nsmoothing = 0.1\n\n[data]")
    config_path.write_text(text)
    assert main(["train", "--config", str(config_path)]) == 0
    run = load_run_config(config_path)
    assert run.train.label_smoothing == 0.1
    ds = load_binary_dataset(tmp_path / "run" / "train.rtds")
    model = build_backbone(run.backbone, run.tuner_specs)
    opt = make_optimizer(model, run.train)
    rng = np.random.default_rng(run.train.seed)
    n, batch = len(ds), run.train.batch_size
    total, step = math.ceil(n / batch) * run.train.epochs, 0
    for _ in range(run.train.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, batch):
            idx = order[lo : lo + batch]
            opt.zero_grad()
            cross_entropy(model(Tensor(ds.images[idx])), ds.labels[idx], 0.1).backward()
            opt.step(run.train.lr * 0.5 * (1.0 + math.cos(math.pi * step / (total - 1))))
            step += 1
    save_checkpoint(model, tmp_path / "hand.rtck")
    assert (tmp_path / "hand.rtck").read_bytes() == (tmp_path / "run" / "model.rtck").read_bytes()


@pytest.mark.parametrize("command", ["train", "matrix"])
def test_cmd_non_finite_loss_exits_2(config_path, tmp_path, capsys, command):
    config_path.write_text(config_path.read_text().replace("lr = 0.01", "lr = 1e200"))
    assert main([command, "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert re.match(r"error: training diverged: loss is (nan|inf) at epoch 0, step \d+\n$", err), err
    assert "Traceback" not in err and "Warning" not in err, err
    assert not (tmp_path / "run" / "model.rtck").exists()
    assert not (tmp_path / "run" / "matrix.json").exists()


def test_cmd_train_signal_beyond_float32_exits_2_before_writing_a_dataset(config_path, tmp_path, capsys):
    """``synth_dataset`` names the item whose pixels float32 cannot hold, so
    no dataset file is written, and numpy prints no overflow warning."""
    config_path.write_text(config_path.read_text().replace("signal = 3.0", "signal = 1e150"))
    assert main(["train", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(_NOT_FLOAT32, err), err
    assert not list((tmp_path / "run").glob("*.rtds"))


def test_cmd_matrix_overflowing_signal_exits_2_with_one_line(config_path, capsys):
    """Pixels of 1e300 are beyond float32, so the matrix stops at its
    dataset, naming the item, before any cell trains."""
    config_path.write_text(config_path.read_text().replace("signal = 3.0", "signal = 1e300"))
    assert main(["matrix", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(_NOT_FLOAT32, err), err


@pytest.mark.parametrize("line", ["noise = 1e308", "signal = 1e39"])
@pytest.mark.parametrize("command", ["train", "matrix", "grad-check"])
def test_cmd_pixels_float32_cannot_hold_exit_2_with_one_line(config_path, tmp_path, capsys, command, line):
    """Every command trains on ``synth_dataset``'s float32 pixels, so each
    stops at the same item with the same line and writes nothing."""
    config_path.write_text(config_path.read_text().replace("signal = 3.0", line))
    assert main([command, "--config", str(config_path)]) == 2
    captured = capsys.readouterr()
    assert re.fullmatch(_NOT_FLOAT32, captured.err), captured.err
    assert captured.out == ""
    assert not list((tmp_path / "run").glob("*"))


@pytest.mark.parametrize(
    "line, key",
    [("lr = nan", "lr"), ("lr = inf", "lr"), ("weight_decay = nan", "weight_decay"),
     ("momentum = -inf", "momentum"), ("beta1 = 1.0", "beta1"), ("beta2 = 1.0", "beta2"),
     ("beta2 = -0.5", "beta2")],
)
def test_cmd_non_finite_or_out_of_range_train_float_exits_2(config_path, capsys, line, key):
    config_path.write_text(config_path.read_text().replace("lr = 0.01", line))
    assert main(["train", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: [train]: {key} must be"), err


@pytest.mark.parametrize(
    "section, anchor",
    [("backbone", "classes = 4\n"), ("train", "batch = 16\n"), ("data", "train_fraction = 0.75\n")],
)
def test_cmd_negative_config_seed_exits_2(config_path, capsys, section, anchor):
    text = config_path.read_text()
    assert anchor + "seed = 0" in text
    config_path.write_text(text.replace(anchor + "seed = 0", anchor + "seed = -1"))
    for command in ("train", "matrix"):
        assert main([command, "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: [{section}]: seed must be >= 0"), err


def test_cmd_train_negative_seed_flag_exits_2(config_path, tmp_path, capsys):
    assert main(["train", "--config", str(config_path), "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "error: argument --seed: must be >= 0" in err, err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("epochs", ["0", "-3"])
@pytest.mark.parametrize("command", ["train", "matrix"])
def test_cmd_epochs_below_one_exits_2(config_path, tmp_path, capsys, command, epochs):
    config_path.write_text(config_path.read_text().replace("epochs = 6", f"epochs = {epochs}"))
    assert main([command, "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: [train]: epochs must be >= 1, got {epochs}"), err
    assert not (tmp_path / "run").exists()


def test_cli_import_loads_no_scipy():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import restuner

    src = str(Path(restuner.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, restuner.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True, capture_output=True, text=True)
    assert out.stdout.strip() == "[]", out.stdout


# -- heap policy ----------------------------------------------------------


class _RecordingLibc:
    """Stands in for ``ctypes.CDLL``: records every ``mallopt`` call."""

    calls: list = []

    def __init__(self, name, *args, **kwargs):
        self.mallopt = lambda param, value: self.calls.append(("mallopt", param, value)) or 1


def test_main_sets_heap_policy_once_before_dispatch(config_path, monkeypatch):
    events = []
    monkeypatch.setattr(_RecordingLibc, "calls", events)
    monkeypatch.setattr(ctypes, "CDLL", _RecordingLibc)
    monkeypatch.setattr(cli, "cmd_count_params", lambda args: events.append("dispatch") or 0)
    assert main(["count-params", "--config", str(config_path)]) == 0
    assert events == [("mallopt", cli.M_TOP_PAD, cli.HEAP_TOP_PAD), "dispatch"]


class _NoMallopt:
    def __init__(self, name, *args, **kwargs):
        pass


def _no_libc(name, *args, **kwargs):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [_NoMallopt, _no_libc])
def test_main_runs_where_mallopt_is_missing(config_path, monkeypatch, capsys, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert main(["count-params", "--config", str(config_path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["total"] > 0


def test_library_never_sets_heap_policy(tmp_path):
    """Importing restuner and calling its functions leaves the allocator
    alone; only ``cli.main``, the process entry point, calls ``mallopt``."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import restuner

    src = str(Path(restuner.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = f"""
import ctypes
calls = []
class Recording(ctypes.CDLL):
    @property
    def mallopt(self):
        return lambda *args: calls.append(args) or 1
ctypes.CDLL = Recording
import restuner, restuner.cli
from restuner import (BackboneConfig, DatasetSpec, TrainConfig, attach, build_backbone,
                      evaluate, grad_check, load_checkpoint, save_checkpoint, synth_dataset, train)
from restuner.tuners import AttachSpec
ds = synth_dataset(DatasetSpec(num_classes=2, shape=(1, 4, 4), size=8))
model = build_backbone(BackboneConfig(dim=8, depth=1, heads=2, patch=2, image_size=4,
                                      in_channels=1, num_classes=2))
attach(model, [AttachSpec(block_index=0, op="ffn", kind="adapter")])
train(model, ds, TrainConfig(epochs=1, batch_size=4), quiet=True)
evaluate(model, ds)
grad_check(model, ds.images[:2], ds.labels[:2])
save_checkpoint(model, {str(tmp_path / "m.rtck")!r})
load_checkpoint({str(tmp_path / "m.rtck")!r})
library_calls = len(calls)
restuner.cli.main(["eval", "--checkpoint", {str(tmp_path / "missing.rtck")!r}, "--data", "x"])
print(library_calls, len(calls))
"""
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True, capture_output=True, text=True)
    assert out.stdout.split() == ["0", "1"], out.stdout + out.stderr
