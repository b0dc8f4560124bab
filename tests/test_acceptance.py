"""Acceptance suite: one test per release criterion, one printed verdict each.

Tolerances are fixed here, not tuned at runtime. Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import json

import numpy as np
import pytest

from restuner.backbone import BackboneConfig, build_backbone
from restuner.cli import REFERENCE_COUNTS, main
from restuner.data_io import (
    DatasetSpec,
    FormatError,
    load_checkpoint,
    save_checkpoint,
    synth_dataset,
)
from restuner.layers import make_linear
from restuner.tensor import Tensor
from restuner.training import TrainConfig, grad_check, train
from restuner.tuners import AttachSpec, attach, count_trainable_params

from test_tuners import merged_q, naive_prefix, naive_prompt, naive_res_attn

TOY = BackboneConfig(dim=16, depth=2, heads=2, patch=4, image_size=8,
                     in_channels=1, num_classes=4, seed=0)


def verdict(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_zero_init_identity():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(2, 1, 8, 8)))
    baseline = build_backbone(TOY)(x).data
    failures = []
    for kind in ("adapter", "prefix", "prompt", "res_attn"):
        for op in ("mha", "ffn", "block"):
            m = build_backbone(TOY)
            attach(m, [AttachSpec(b, op, kind) for b in range(TOY.depth)])
            if not np.array_equal(m(x).data, baseline):
                failures.append((kind, op))
    verdict(1, "zero-init identity", not failures, f"failures={failures}")


def test_criterion_2_oracle_equivalence():
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(5000 + trial)
        N = int(rng.integers(1, 7))
        rank = int(rng.integers(1, 5))
        heads = int(rng.integers(1, 5))
        hd = int(rng.integers(2, 5))
        dim = heads * hd
        B, L = int(rng.integers(1, 3)), int(rng.integers(1, 5))

        from restuner.layers import MultiHeadAttention
        from restuner.tuners import (
            PrefixTuner, PrefixTunerConfig, PromptTuner,
            ResAttnConfig, ResAttnTuner,
        )

        t = ResAttnTuner(ResAttnConfig(dim, rank=rank, heads=heads), rng)
        t.o.W.data[...] = rng.normal(size=t.o.W.data.shape)
        x = rng.normal(size=(B, N, dim))
        exp = naive_res_attn(x, t.qkv.W.data, None, t.o.W.data, t.o.b.data, rank, heads)
        worst = max(worst, float(np.abs(t(Tensor(x)).data - exp).max()))

        p = PrefixTuner(PrefixTunerConfig(dim, heads, length=L), rng)
        p.o.W.data[...] = rng.normal(size=(dim, dim))
        q = rng.normal(size=(B, heads, N, hd))
        q_in = Tensor(merged_q(q))
        exp = naive_prefix(q, p.K.data, p.V.data, p.o.W.data, p.o.b.data)
        worst = max(worst, float(np.abs(p(q_in).data - exp).max()))

        mha = MultiHeadAttention(dim, heads, rng)
        pr = PromptTuner(PrefixTunerConfig(dim, heads, length=L), rng)
        pr.bind(mha)
        pr.P.data[...] = rng.normal(size=(L, dim))
        exp = naive_prompt(q, pr.P.data, mha.qkv.W.data, mha.proj.W.data)
        worst = max(worst, float(np.abs(pr(q_in).data - exp).max()))
    verdict(2, "oracle equivalence", worst < 1e-10, f"max_abs={worst:.2e}")


def test_criterion_3_gradient_correctness():
    m = build_backbone(TOY)
    attach(m, [
        AttachSpec(0, "mha", "res_attn", {"rank": 2, "heads": 2}),
        AttachSpec(0, "ffn", "adapter", {"bottleneck": 2}),
        AttachSpec(1, "mha", "prefix", {"length": 3}),
        AttachSpec(1, "ffn", "prompt", {"length": 3}),
    ])
    ds = synth_dataset(DatasetSpec(num_classes=4, shape=(1, 8, 8), size=4, seed=0, signal=3.0))
    report, ok = grad_check(m, ds.images, ds.labels, eps=1e-5, tol=1e-4)
    worst = max(v["rel_err"] for v in report.values())
    verdict(3, "gradient correctness", ok, f"worst_rel_err={worst:.2e} over {len(report)} tensors")


@pytest.mark.slow
def test_criterion_4_parameter_accounting():
    cfg = BackboneConfig(dim=768, depth=12, heads=12, patch=16, image_size=224,
                         in_channels=3, num_classes=100, seed=0)
    model = build_backbone(cfg)
    details = []
    ok = True
    for (rank, heads), ref in REFERENCE_COUNTS.items():
        model.tuners.clear()
        attach(model, [AttachSpec(b, "mha", "res_attn", {"rank": rank, "heads": heads})
                       for b in range(12)])
        _, total, analytic = count_trainable_params(model)
        dev = abs(total - ref) / ref
        details.append(f"{rank}x{heads}: {total} (dev {dev * 100:.1f}%)")
        ok &= total == analytic
        if (rank, heads) == (8, 8):
            ok &= total == 2_359_296 and dev < 0.01
        else:
            ok &= dev < 0.15
    verdict(4, "parameter accounting", ok, "; ".join(details))


def test_criterion_5_attach_matrix(tmp_path, capsys):
    cfg_path = tmp_path / "matrix.cfg"
    cfg_path.write_text(
        "[backbone]\ndim = 16\ndepth = 2\nheads = 2\npatch = 4\nimage = 8\nclasses = 4\nseed = 0\n"
        "[train]\nepochs = 40\nbatch = 16\nlr = 0.002\nseed = 0\n"
        "[data]\nsize = 64\nsignal = 3.0\ntrain_fraction = 1.0\n"
        f"[output]\ndir = {tmp_path / 'mx'}\n"
    )
    rc = main(["matrix", "--config", str(cfg_path)])
    capsys.readouterr()
    payload = json.loads((tmp_path / "mx" / "matrix.json").read_text())
    single, dual = payload["single"], payload["dual"]
    ok = rc == 0 and len(single) == 4 * 3 and len(dual) == 4 * 4
    min_acc = min(v["train_accuracy"] for v in [*single.values(), *dual.values()])
    ok &= min_acc >= 0.85
    ok &= all(v["zero_init_identity"] for v in [*single.values(), *dual.values()])
    verdict(5, "attach-matrix", ok, f"grids 4x3/4x4, min_train_acc={min_acc:.3f}")


def test_criterion_6_transfer_beats_linear_probe():
    seed = 0
    cfg = BackboneConfig(dim=16, depth=2, heads=2, patch=4, image_size=8,
                         in_channels=1, num_classes=4, seed=seed)
    spec = DatasetSpec(num_classes=4, shape=(1, 8, 8), size=160, seed=seed,
                       signal=3.0, noise=0.3, rotation_deg=90.0)
    ds_a = synth_dataset(spec, "a")
    ds_b = synth_dataset(spec, "b")

    pretrained = build_backbone(cfg)
    for p in pretrained.parameters():  # pre-train the whole backbone on task A
        p.requires_grad = True
    train(pretrained, ds_a, TrainConfig(epochs=30, batch_size=32, lr=1e-2, seed=seed), quiet=True)
    snapshot = {n: p.data.copy() for n, p in pretrained.named_parameters()}

    def fresh(specs):
        m = build_backbone(cfg)
        for n, p in m.named_parameters():  # the backbone stays frozen as built
            p.data[...] = snapshot[n]
        m.head = make_linear(np.random.default_rng(seed + 99), cfg.dim, cfg.num_classes)
        attach(m, specs)
        return m

    tune_cfg = TrainConfig(epochs=30, batch_size=32, lr=1e-2, seed=seed)
    probe_acc = train(fresh([]), ds_b, tune_cfg, quiet=True)[-1]["accuracy"]
    tuner_acc = train(
        fresh([AttachSpec(b, "mha", "res_attn") for b in range(cfg.depth)]),
        ds_b, tune_cfg, quiet=True,
    )[-1]["accuracy"]
    ok = tuner_acc >= probe_acc + 0.05
    verdict(6, "transfer beats linear probe",
            ok, f"probe={probe_acc:.3f} tuner={tuner_acc:.3f}")


def test_criterion_7_determinism_and_persistence(tmp_path, capsys):
    cfg_text = (
        "[backbone]\ndim = 16\ndepth = 2\nheads = 2\npatch = 4\nimage = 8\nclasses = 4\nseed = 0\n"
        "[tuner]\nkind = res_attn\nop = mha\nrank = 2\nheads = 2\n"
        "[train]\nepochs = 4\nbatch = 16\nlr = 0.01\nseed = 0\n"
        "[data]\nsize = 48\nsignal = 3.0\n"
    )
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(cfg_text)
    main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "r1")])
    main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "r2")])
    capsys.readouterr()
    ck1 = (tmp_path / "r1" / "model.rtck").read_bytes()
    ck2 = (tmp_path / "r2" / "model.rtck").read_bytes()
    ok = ck1 == ck2

    model = load_checkpoint(tmp_path / "r1" / "model.rtck")
    reload_path = tmp_path / "resaved.rtck"
    save_checkpoint(model, reload_path)
    back = load_checkpoint(reload_path)
    x = Tensor(np.random.default_rng(0).normal(size=(2, 1, 8, 8)))
    ok &= np.array_equal(model(x).data, back(x).data)

    blob = bytearray(ck1)
    blob[len(blob) // 3] ^= 0x01
    corrupt = tmp_path / "corrupt.rtck"
    corrupt.write_bytes(bytes(blob))
    try:
        load_checkpoint(corrupt)
        crc_caught = False
    except FormatError:
        crc_caught = True
    ok &= crc_caught
    verdict(7, "determinism & persistence", ok,
            f"identical_ckpt={ck1 == ck2} crc_caught={crc_caught}")


def test_criterion_8_frozen_immutability():
    m = build_backbone(TOY)
    attach(m, [
        AttachSpec(0, "mha", "res_attn", {"rank": 2, "heads": 2}),
        AttachSpec(1, "ffn", "adapter"),
    ])
    frozen_before = {n: p.data.tobytes() for n, p in m.named_parameters() if not p.requires_grad}
    ds = synth_dataset(DatasetSpec(num_classes=4, shape=(1, 8, 8), size=64, seed=0, signal=3.0))
    train(m, ds, TrainConfig(epochs=8, batch_size=16, lr=1e-2, seed=0), quiet=True)
    changed = [n for n, p in m.named_parameters()
               if not p.requires_grad and p.data.tobytes() != frozen_before[n]]
    verdict(8, "frozen immutability", not changed, f"changed={changed}")
