import hashlib

import numpy as np
import pytest

from restuner.backbone import BackboneConfig, build_backbone
from restuner.data_io import (
    _CHUNK_BYTES,
    Dataset,
    DatasetSpec,
    FormatError,
    load_binary_dataset,
    load_checkpoint,
    read_checkpoint,
    save_binary_dataset,
    save_checkpoint,
    split_dataset,
    synth_dataset,
)
from restuner.tensor import Tensor
from restuner.training import TrainConfig, evaluate, train
from restuner.tuners import AttachSpec, attach

TOY = BackboneConfig(dim=16, depth=2, heads=2, patch=4, image_size=8,
                     in_channels=1, num_classes=4, seed=0)
SPEC = DatasetSpec(num_classes=4, shape=(1, 8, 8), size=64, seed=0)
# sha256 of ``_tuned_model``'s checkpoint after ``_nudge_trainable``, pinned
# so that its tensor list and bytes cannot drift
PROMPT_CHECKPOINT_SHA256 = "f6efe9c3479b7b681db0c1af633e25dc14e4a64d861615c494f68601ad48aca6"
# sha256 of that checkpoint with its echo's tuners sorted by (block, op), as
# files were written before the echo took the forward's slot order
ALPHABETICAL_ECHO_SHA256 = "ee827cc2ae8629a5084e0a5b102f5fa33394566e1c14ed47571c0c379d3235ae"


# -- synthetic data -----------------------------------------------------


def test_synth_deterministic():
    a = synth_dataset(SPEC)
    b = synth_dataset(SPEC)
    assert a.images.tobytes() == b.images.tobytes()
    assert a.labels.tobytes() == b.labels.tobytes()


def test_synth_balanced_labels():
    ds = synth_dataset(DatasetSpec(num_classes=3, shape=(1, 8, 8), size=64, seed=1))
    counts = np.bincount(ds.labels, minlength=3)
    assert counts.max() - counts.min() <= 1


def test_synth_linear_probe():
    # train accuracy of a closed-form least-squares linear probe on raw pixels
    ds = synth_dataset(SPEC)
    n = len(ds.labels)
    x = np.concatenate([ds.images.reshape(n, -1), np.ones((n, 1))], axis=1)
    w, *_ = np.linalg.lstsq(x, np.eye(4)[ds.labels], rcond=None)
    assert ((x @ w).argmax(axis=1) == ds.labels).mean() >= 0.9


def test_synth_tasks_differ():
    a = synth_dataset(SPEC, task="a")
    b = synth_dataset(SPEC, task="b")
    assert a.images.tobytes() != b.images.tobytes()
    with pytest.raises(ValueError):
        synth_dataset(SPEC, task="c")


def test_spec_validation():
    with pytest.raises(ValueError):
        DatasetSpec(num_classes=0)
    with pytest.raises(ValueError):
        DatasetSpec(num_classes=8, size=4)
    # unchecked, signal=nan made all-NaN images and rotation_deg=inf warned in cos
    for field, key in (("signal", "signal"), ("noise", "noise"), ("rotation_deg", "rotation")):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"{key} must be finite"):
                DatasetSpec(**{field: value})


@pytest.mark.parametrize("field, value", [("signal", 1e39), ("noise", 1e308), ("signal", -1e300)])
def test_synth_images_are_float32_and_a_pixel_beyond_it_names_its_item(field, value):
    assert synth_dataset(SPEC).images.dtype == np.float32
    with pytest.raises(FormatError, match=r"^dataset item \d+ has a pixel value that is not a finite float32$"):
        synth_dataset(DatasetSpec(num_classes=4, shape=(1, 8, 8), size=64, seed=0, **{field: value}))


def test_split_fractions():
    ds = synth_dataset(SPEC)
    train, test = split_dataset(ds, 0.75, seed=0)
    assert len(train) == 48 and len(test) == 16


@pytest.mark.parametrize("fraction, n, cut", [
    (0.65, 10, 6), (0.75, 10, 8), (0.25, 10, 2), (0.5, 7, 4),  # halves round to even
    (0.29, 100, 29), (0.7, 10, 7), (0.0, 5, 0), (1.0, 5, 5),  # products just off an integer
])
def test_split_cut_rounds_half_to_even(fraction, n, cut):
    """The cut is ``round(fraction * n)``, Python's round half to even."""
    ds = synth_dataset(DatasetSpec(num_classes=2, shape=(1, 2, 2), size=n, seed=0))
    train, test = split_dataset(ds, fraction, seed=0)
    assert (len(train), len(test)) == (cut, n - cut)


# -- dataset binary format ----------------------------------------------


def test_dataset_round_trip(tmp_path):
    ds = synth_dataset(SPEC)
    path = tmp_path / "d.rtds"
    save_binary_dataset(ds, path)
    back = load_binary_dataset(path)
    # f32 on disk: round-trip equals the f32-cast original exactly
    assert np.array_equal(back.images, ds.images.astype(np.float32).astype(np.float64))
    assert np.array_equal(back.labels, ds.labels)
    assert back.num_classes == ds.num_classes
    save_binary_dataset(back, tmp_path / "again.rtds")  # a loaded dataset saves as it was read
    assert (tmp_path / "again.rtds").read_bytes() == path.read_bytes()


def _file_pixels(blob: bytes) -> np.ndarray:
    """The pixels of every whole item in an RTDS file's bytes: float32 ``[n, C, H, W]``."""
    import struct

    _, _, _, c, h, w = struct.unpack_from("<IIIIII", blob, 4)
    n = (len(blob) - 28) // (4 + 4 * c * h * w)
    rec = np.frombuffer(blob, np.dtype([("label", "<u4"), ("pixels", "<f4", (c * h * w,))]), n, 28)
    return rec["pixels"].reshape(n, c, h, w)


def test_loaded_images_are_the_files_float32_and_train_like_their_float64_widening(tmp_path):
    """Each read of a loaded dataset's images is a fresh float32 ``[k, C, H,
    W]`` array with the file's pixels, in the requested order, for slices,
    runs and shuffled index arrays, and ``np.asarray`` reads every item,
    never a view. The model widens each batch exactly, so training and
    evaluating on them give the checkpoint bytes and the (accuracy, loss)
    of their float64 widening."""
    path = tmp_path / "d.rtds"
    save_binary_dataset(synth_dataset(SPEC), path)
    ds = load_binary_dataset(path)
    pixels = _file_pixels(path.read_bytes())
    assert ds.images.dtype == np.float32 and ds.images.shape == pixels.shape == (64, 1, 8, 8)
    order = np.random.default_rng(3).permutation(64)
    reads = [slice(None), slice(5, 6), slice(60, 99), slice(None, None, -3), slice(7, 7),
             np.arange(10, 30), np.array([3, 4, 5, 9, 10, 1, 2, 63, 62, 0]), order, order[:17],
             np.array([], dtype=np.int64)]
    for idx in reads:
        batch = ds.images[idx]
        assert type(batch) is np.ndarray and batch.dtype == np.float32, idx
        assert batch.flags.writeable and batch.flags.c_contiguous and batch.base is None, idx
        assert batch.shape == pixels[idx].shape and batch.tobytes() == pixels[idx].tobytes(), idx
    assert not np.shares_memory(ds.images[:8], ds.images[:8])
    assert np.asarray(ds.images).tobytes() == pixels.tobytes()
    assert np.array_equal(np.asarray(ds.images, np.float64), pixels.astype(np.float64))
    with pytest.raises(ValueError):
        np.asarray(ds.images, copy=False)
    for idx in (np.array([64]), np.array([0, -1]), np.array([[0]]), np.array([0.0]), 3):
        with pytest.raises(IndexError):
            ds.images[idx]

    results = []
    for data in (ds, Dataset(ds.images[:].astype(np.float64), ds.labels, ds.num_classes)):
        model = build_backbone(TOY)
        attach(model, FOUR_KINDS)
        train(model, data, TrainConfig(epochs=2, batch_size=16), eval_dataset=data, quiet=True)
        save_checkpoint(model, tmp_path / "m.rtck")
        results.append(((tmp_path / "m.rtck").read_bytes(), evaluate(model, data)))
    assert results[0] == results[1]


# eval-mix's image shape; 2,048 such items fill many validation chunks
MIX_SHAPE = (3, 16, 16)
MIX_RECORD = 4 + 4 * 3 * 16 * 16
# a one-block model that takes them
MIX_SMALL = BackboneConfig(dim=16, depth=1, heads=2, patch=4, image_size=16, in_channels=3,
                           num_classes=10, seed=0)


def _mix_file(tmp_path, n: int):
    path = tmp_path / f"mix{n}.rtds"
    save_binary_dataset(synth_dataset(DatasetSpec(num_classes=10, shape=MIX_SHAPE, size=n, seed=0)), path)
    return path


def _patch(path, at: int, fmt: str, value) -> None:
    import struct

    blob = bytearray(path.read_bytes())
    struct.pack_into(fmt, blob, at, value)
    path.write_bytes(bytes(blob))


def test_every_chunk_is_checked_and_a_bad_label_wins_over_a_bad_pixel(tmp_path):
    """A save and a load check every chunk of items: a bad pixel or label in
    the last item is found, and a load reports a bad label anywhere before a
    non-finite pixel in an earlier item, as a whole-file check reports them."""
    path = _mix_file(tmp_path, 2048)
    blob = path.read_bytes()
    assert len(blob) > 8 * _CHUNK_BYTES
    images = _file_pixels(blob).copy()
    images[2047, 2, 15, 15] = np.nan
    with pytest.raises(FormatError, match="^dataset item 2047 has a pixel"):
        save_binary_dataset(Dataset(images, np.zeros(2048, np.int64), 10), tmp_path / "nan.rtds")
    _patch(path, 28 + 2047 * MIX_RECORD + 4 + 4 * 700, "<f", np.nan)
    with pytest.raises(FormatError, match="^dataset item 2047 has a pixel value that is not a finite float32$"):
        load_binary_dataset(path)
    _patch(path, 28 + 5 * MIX_RECORD + 4, "<f", np.inf)
    with pytest.raises(FormatError, match="^dataset item 5 has a pixel"):
        load_binary_dataset(path)
    _patch(path, 28 + 2040 * MIX_RECORD, "<I", 10)
    with pytest.raises(FormatError, match="^label 10 >= class count 10 in item 2040$"):
        load_binary_dataset(path)
    path.write_bytes(blob)
    _patch(path, 28 + 2046 * MIX_RECORD, "<I", 12)
    with pytest.raises(FormatError, match="^label 12 >= class count 10 in item 2046$"):
        load_binary_dataset(path)


def test_a_file_changed_after_its_load_fails_the_batch_that_reads_it(tmp_path, capsys, monkeypatch):
    """A batch read checks what it reads: a file cut short after its load
    raises FormatError naming the first item it cannot read whole, and a
    pixel rewritten to NaN names its item. ``restuner eval`` on a file cut
    after its load exits 2 with one ``error:`` line and no traceback."""
    import restuner.cli as cli

    path = _mix_file(tmp_path, 300)
    blob = path.read_bytes()
    ds = load_binary_dataset(path)
    path.write_bytes(blob[: 28 + 200 * MIX_RECORD + 9])
    assert ds.images[:200].tobytes() == _file_pixels(blob)[:200].tobytes()
    for idx, item in ((slice(150, 250), 200), (np.array([7, 200, 3]), 200), (np.array([299]), 299)):
        with pytest.raises(FormatError, match=f"^truncated dataset item {item} at byte {28 + item * MIX_RECORD}$"):
            ds.images[idx]
    path.write_bytes(blob)
    _patch(path, 28 + 123 * MIX_RECORD + 4 + 4 * 767, "<f", np.nan)
    with pytest.raises(FormatError, match="^dataset item 123 has a pixel value that is not a finite float32$"):
        ds.images[np.array([0, 123, 124])]

    path.write_bytes(blob)
    save_checkpoint(build_backbone(MIX_SMALL), tmp_path / "m.rtck")
    load = cli.load_binary_dataset

    def load_then_cut(data):
        loaded = load(data)
        path.write_bytes(blob[: 28 + 200 * MIX_RECORD + 9])
        return loaded

    monkeypatch.setattr(cli, "load_binary_dataset", load_then_cut)
    assert cli.main(["eval", "--checkpoint", str(tmp_path / "m.rtck"), "--data", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: truncated dataset item 200 at byte {28 + 200 * MIX_RECORD}\n"


def test_dataset_truncated(tmp_path):
    ds = synth_dataset(SPEC)
    path = tmp_path / "d.rtds"
    save_binary_dataset(ds, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(FormatError, match="truncated.*byte"):
        load_binary_dataset(path)


def test_dataset_bad_magic(tmp_path):
    path = tmp_path / "d.rtds"
    path.write_bytes(b"XXXX" + b"\0" * 64)
    with pytest.raises(FormatError, match="magic"):
        load_binary_dataset(path)


def test_dataset_empty_count(tmp_path):
    import struct

    path = tmp_path / "d.rtds"
    path.write_bytes(b"RTDS" + struct.pack("<IIIIII", 1, 0, 4, 1, 8, 8))
    with pytest.raises(FormatError, match="zero items"):
        load_binary_dataset(path)


def test_dataset_label_out_of_range(tmp_path):
    ds = Dataset(np.zeros((2, 1, 2, 2)), np.array([0, 1]), num_classes=4)
    path = tmp_path / "d.rtds"
    save_binary_dataset(ds, path)
    _patch(path, 28 + (4 + 4 * 4), "<I", 9)  # item 1's label
    with pytest.raises(FormatError, match="^label 9 >= class count 4 in item 1$"):
        load_binary_dataset(path)


@pytest.mark.parametrize("labels, message", [
    ([0, -1, 5], "^label -1 is not in \\[0, 2\\) in item 1$"),
    ([0, 1, 2], "^label 2 is not in \\[0, 2\\) in item 2$"),
])
def test_save_dataset_rejects_a_label_out_of_range_before_writing(tmp_path, labels, message):
    """A label the load would refuse is refused at the save, before any
    byte is written, and before a bad pixel, as the load orders them."""
    ds = Dataset(np.zeros((3, 1, 2, 2)), np.array(labels), num_classes=2)
    ds.images[0, 0, 0, 0] = np.nan
    path = tmp_path / "d.rtds"
    with pytest.raises(FormatError, match=message):
        save_binary_dataset(ds, path)
    assert not path.exists()


@pytest.mark.parametrize("value", [1e39, -1e300, np.inf, np.nan])
def test_save_dataset_rejects_a_pixel_float32_cannot_hold_before_writing(tmp_path, value):
    ds = Dataset(np.zeros((7, 1, 2, 2)), np.zeros(7, dtype=np.int64), num_classes=4)
    ds.images[5, 0, 1, 0] = value
    path = tmp_path / "d.rtds"
    with pytest.raises(FormatError, match="^dataset item 5 has a pixel value that is not a finite float32$"):
        save_binary_dataset(ds, path)
    assert not path.exists()


# -- checkpoints --------------------------------------------------------


def _tuned_model():
    m = build_backbone(TOY)
    attach(m, [
        AttachSpec(0, "mha", "res_attn", {"rank": 2, "heads": 2}),
        AttachSpec(1, "ffn", "adapter", {"bottleneck": 2}),
        AttachSpec(1, "block", "prompt", {"length": 3}),
    ])
    return m


def _nudge_trainable(m):
    rng = np.random.default_rng(0)
    for _, p in m.named_parameters():
        if p.requires_grad:
            p.data += rng.normal(size=p.data.shape) * 0.01
    return rng


def test_checkpoint_round_trip_forward_identical(tmp_path):
    m = _tuned_model()
    rng = _nudge_trainable(m)
    path = tmp_path / "m.rtck"
    save_checkpoint(m, path)
    back = load_checkpoint(path)
    x = Tensor(rng.normal(size=(2, 1, 8, 8)))
    assert np.array_equal(m(x).data, back(x).data)
    for (n1, p1), (n2, p2) in zip(m.named_parameters(), back.named_parameters()):
        assert n1 == n2
        assert p1.data.tobytes() == p2.data.tobytes()


def test_loaded_prompt_reads_its_block_through_views_and_resaves_as_written(tmp_path):
    """A loaded prompt's frozen projections are views of its block's MHA
    weights, bound at attach and kept valid by the load's in-place writes.
    The file's digest pins its tensor names, order and bytes, and the loaded
    model re-saves them unchanged."""
    m = _tuned_model()
    _nudge_trainable(m)
    path = tmp_path / "m.rtck"
    save_checkpoint(m, path)
    blob = path.read_bytes()
    assert hashlib.sha256(blob).hexdigest() == PROMPT_CHECKPOINT_SHA256
    back = load_checkpoint(path)
    prompt, mha = back.tuners[(1, "block")], back.blocks[1].mha
    W_k, W_v, W_o = prompt.frozen
    assert np.shares_memory(W_k.data, mha.qkv.W.data) and np.shares_memory(W_v.data, mha.qkv.W.data)
    assert np.shares_memory(W_o.data, mha.proj.W.data)
    save_checkpoint(back, tmp_path / "again.rtck")
    assert (tmp_path / "again.rtck").read_bytes() == blob


def test_alphabetical_echo_loads_and_resaves_in_slot_order(tmp_path):
    """A file whose echo lists a block's tuners alphabetically (``block`` <
    ``ffn`` < ``mha``), as files were written before the echo followed the
    forward's slot order, loads to the same model and re-saves in slot order."""
    m = _tuned_model()
    rng = _nudge_trainable(m)
    path = tmp_path / "old.rtck"
    save_checkpoint(m, path)
    _rewrite_echo(path, lambda c: c["tuners"].sort(key=lambda t: (t["block_index"], t["op"])))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == ALPHABETICAL_ECHO_SHA256
    back = load_checkpoint(path)
    x = Tensor(rng.normal(size=(2, 1, 8, 8)))
    assert np.array_equal(back(x).data, m(x).data)
    save_checkpoint(back, tmp_path / "again.rtck")
    assert hashlib.sha256((tmp_path / "again.rtck").read_bytes()).hexdigest() == PROMPT_CHECKPOINT_SHA256


def test_checkpoint_detects_byte_flip(tmp_path):
    m = _tuned_model()
    path = tmp_path / "m.rtck"
    save_checkpoint(m, path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="CRC"):
        load_checkpoint(path)


def test_checkpoint_shape_mismatch_names_tensor(tmp_path):
    # rewrite the config echo to claim a wider tuner; tensors then mismatch
    import json
    import struct
    import zlib

    m = _tuned_model()
    path = tmp_path / "m.rtck"
    save_checkpoint(m, path)
    blob = path.read_bytes()
    payload = bytearray(blob[4:-4])
    (cfg_len,) = struct.unpack_from("<I", payload, 4)
    config = json.loads(payload[8 : 8 + cfg_len].decode())
    adapter = next(t for t in config["tuners"] if t["kind"] == "adapter")
    adapter["options"]["bottleneck"] = 4  # was 2
    new_cfg = json.dumps(config, sort_keys=True).encode()
    new_payload = payload[:4] + struct.pack("<I", len(new_cfg)) + new_cfg + payload[8 + cfg_len :]
    path.write_bytes(b"RTCK" + new_payload + struct.pack("<I", zlib.crc32(bytes(new_payload))))
    with pytest.raises(FormatError, match="shape mismatch for 'tuners"):
        load_checkpoint(path)


def test_checkpoint_unknown_tensor(tmp_path):
    m = _tuned_model()
    plain = build_backbone(TOY)
    path = tmp_path / "m.rtck"
    save_checkpoint(m, path)
    cfg, tensors = read_checkpoint(path)
    # a checkpoint whose config lacks the tuners cannot place their tensors
    path2 = tmp_path / "plain.rtck"
    save_checkpoint(plain, path2)
    import json
    import struct
    import zlib

    blob = path.read_bytes()
    payload = bytearray(blob[4:-4])
    (cfg_len,) = struct.unpack_from("<I", payload, 4)
    config = json.loads(payload[8 : 8 + cfg_len].decode())
    config["tuners"] = []
    new_cfg = json.dumps(config, sort_keys=True).encode()
    new_payload = payload[:4] + struct.pack("<I", len(new_cfg)) + new_cfg + payload[8 + cfg_len :]
    path.write_bytes(b"RTCK" + new_payload + struct.pack("<I", zlib.crc32(bytes(new_payload))))
    with pytest.raises(FormatError, match="unknown tensor name"):
        load_checkpoint(path)


def _with_crc(payload: bytes) -> bytes:
    import struct
    import zlib

    return b"RTCK" + payload + struct.pack("<I", zlib.crc32(payload))


def _first_dtype_byte(payload: bytes) -> int:
    """Offset in the payload of the first tensor's dtype byte."""
    import struct

    (cfg_len,) = struct.unpack_from("<I", payload, 4)
    (name_len,) = struct.unpack_from("<H", payload, 12 + cfg_len)
    return 14 + cfg_len + name_len


def test_checkpoint_fuzz_raises_only_format_error(tmp_path):
    tiny = BackboneConfig(dim=4, depth=1, heads=1, patch=4, image_size=4,
                          in_channels=1, num_classes=2, seed=0)
    m = build_backbone(tiny)
    attach(m, [AttachSpec(0, "ffn", "adapter", {"bottleneck": 2})])
    path = tmp_path / "m.rtck"
    save_checkpoint(m, path)
    payload = path.read_bytes()[4:-4]
    bad = tmp_path / "bad.rtck"
    # every truncation of the body, each with a valid CRC
    for cut in range(len(payload)):
        bad.write_bytes(_with_crc(payload[:cut]))
        with pytest.raises(FormatError):
            read_checkpoint(bad)
    bad.write_bytes(_with_crc(payload + b"\0"))
    with pytest.raises(FormatError, match="trailing"):
        read_checkpoint(bad)
    # the first tensor's dtype byte set to codes the format does not define
    dtype_at = _first_dtype_byte(payload)
    assert payload[dtype_at] == 0
    for code in (1, 2, 255):
        mutated = bytearray(payload)
        mutated[dtype_at] = code
        bad.write_bytes(_with_crc(bytes(mutated)))
        with pytest.raises(FormatError, match=f"unknown dtype code {code}"):
            read_checkpoint(bad)


def test_dataset_trailing_bytes(tmp_path):
    ds = Dataset(np.zeros((3, 1, 2, 2)), np.array([0, 1, 2]), num_classes=3)
    path = tmp_path / "d.rtds"
    save_binary_dataset(ds, path)
    path.write_bytes(path.read_bytes() + b"\0" * 10)
    with pytest.raises(FormatError, match="10 trailing bytes"):
        load_binary_dataset(path)


def test_dataset_every_truncation_raises_format_error(tmp_path):
    ds = Dataset(np.arange(12.0).reshape(3, 1, 2, 2), np.array([0, 1, 2]), num_classes=3)
    path = tmp_path / "d.rtds"
    save_binary_dataset(ds, path)
    blob = path.read_bytes()
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(FormatError):
            load_binary_dataset(path)


# -- checkpoint config echo ---------------------------------------------


def _rewrite_echo(path, edit) -> None:
    """Apply edit to the checkpoint's config echo and recompute the CRC."""
    import json
    import struct

    payload = path.read_bytes()[4:-4]
    (cfg_len,) = struct.unpack_from("<I", payload, 4)
    config = json.loads(payload[8 : 8 + cfg_len].decode())
    edit(config)
    new_cfg = json.dumps(config, sort_keys=True).encode()
    path.write_bytes(_with_crc(payload[:4] + struct.pack("<I", len(new_cfg)) + new_cfg
                               + payload[8 + cfg_len :]))


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda c: c["backbone"].update(depth=0), "depth"),
        (lambda c: c["backbone"].update(bogus=1), "bogus"),
        (lambda c: c.pop("tuners"), "tuners"),
        (lambda c: c["tuners"][0]["options"].update(rank=0), "rank"),
    ],
)
def test_checkpoint_bad_echo_exits_2(tmp_path, capsys, edit, field):
    from restuner.cli import main

    path = tmp_path / "m.rtck"
    save_checkpoint(_tuned_model(), path)
    _rewrite_echo(path, edit)
    with pytest.raises(FormatError, match=field):
        load_checkpoint(path)
    data = tmp_path / "d.rtds"
    save_binary_dataset(synth_dataset(DatasetSpec(num_classes=4, shape=(1, 8, 8), size=8)), data)
    assert main(["eval", "--checkpoint", str(path), "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err, err


def test_checkpoint_echo_round_trips_non_default_options(tmp_path):
    from restuner.data_io import model_config_blob
    from restuner.tuners import TUNERS

    m = build_backbone(TOY)
    specs = []
    for i, (kind, cls) in enumerate(sorted(TUNERS.items())):
        opts = {k: (not v) if isinstance(v, bool) else v + 1 for k, v in cls.defaults().items()}
        specs.append(AttachSpec(i // 3, ("mha", "ffn", "block")[i % 3], kind, opts))
    attach(m, specs)
    path = tmp_path / "m.rtck"
    save_checkpoint(m, path)
    back = load_checkpoint(path)
    assert model_config_blob(back) == model_config_blob(m)
    for spec in specs:
        tuner = back.tuners[(spec.block_index, spec.op)]
        assert tuner.kind == spec.kind and tuner.options() == spec.options


# -- streamed writer, zero-copy reader ----------------------------------

FOUR_KINDS = [
    AttachSpec(0, "mha", "res_attn", {"rank": 1, "heads": 1, "qkv_bias": True}),
    AttachSpec(1, "mha", "prefix", {"length": 1}),
    AttachSpec(0, "ffn", "adapter", {"bottleneck": 1}),
    AttachSpec(1, "block", "prompt", {"length": 1}),
]
# the smallest backbone that takes all four kinds, one slot each
MINI = BackboneConfig(dim=2, depth=2, heads=1, patch=2, image_size=2, in_channels=1,
                      num_classes=2, seed=0, mlp_ratio=1)
# vit-style widths with more than 8 MiB of parameters
BIG = BackboneConfig(dim=128, depth=6, heads=4, patch=4, image_size=8, in_channels=3,
                     num_classes=10, seed=0)


def _four_kind_model(cfg=TOY):
    m = build_backbone(cfg)
    attach(m, FOUR_KINDS)
    rng = np.random.default_rng(1)
    for _, p in m.named_parameters():
        p.data += rng.normal(size=p.data.shape) * 0.01
    return m


def _reference_checkpoint_bytes(model, dtype_code: int = 0) -> bytes:
    """The checkpoint format built in memory, as one bytearray."""
    import struct
    import zlib

    from restuner.data_io import model_config_blob

    payload = bytearray()
    config = model_config_blob(model).encode()
    payload += struct.pack("<I", 1)
    payload += struct.pack("<I", len(config)) + config
    tensors = list(model.named_parameters())
    payload += struct.pack("<I", len(tensors))
    for name, p in tensors:
        nb = name.encode()
        payload += struct.pack("<H", len(nb)) + nb
        payload += struct.pack("<BB", dtype_code, p.data.ndim)
        payload += struct.pack(f"<{p.data.ndim}Q", *p.data.shape)
        payload += np.asarray(p.data, dtype="<f8").tobytes()
    crc = zlib.crc32(bytes(payload))
    return b"RTCK" + bytes(payload) + struct.pack("<I", crc)


def _param_bytes(model) -> int:
    return sum(p.data.nbytes for p in model.parameters())


def _traced_peak(fn):
    """(fn(), peak bytes traced above the level when fn was called)."""
    import tracemalloc

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("cfg", [TOY, BIG], ids=["toy-4-kinds", "big"])
def test_streamed_checkpoint_matches_in_memory_reference(tmp_path, cfg):
    m = _four_kind_model(cfg)
    path = tmp_path / "m.rtck"
    save_checkpoint(m, path)
    ref = _reference_checkpoint_bytes(m)
    if cfg is BIG:
        assert len(ref) >= 8 << 20
    assert path.read_bytes() == ref


def test_loaded_model_draws_nothing_and_reproduces_the_saved_model(tmp_path, monkeypatch):
    """A load builds its model from zeros, drawing no weight, and takes every
    tensor from the file: the loaded model's forward pass and its re-saved
    bytes are the saved model's."""
    m = _four_kind_model()
    save_checkpoint(m, tmp_path / "m.rtck")

    def no_draws(*_):
        raise AssertionError("load_checkpoint drew from a generator")

    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", no_draws)
        back = load_checkpoint(tmp_path / "m.rtck")
    x = Tensor(np.random.default_rng(2).normal(size=(2, 1, 8, 8)))
    assert np.array_equal(back(x).data, m(x).data)
    save_checkpoint(back, tmp_path / "again.rtck")
    assert (tmp_path / "again.rtck").read_bytes() == (tmp_path / "m.rtck").read_bytes()


def test_save_checkpoint_holds_no_payload_copy(tmp_path):
    m = build_backbone(BIG)
    assert _param_bytes(m) >= 8 << 20
    path = tmp_path / "m.rtck"
    _, peak = _traced_peak(lambda: save_checkpoint(m, path))
    assert peak < 1 << 20, peak


def test_save_binary_dataset_holds_its_records_once(tmp_path):
    """At 2,048 eval-mix items a save peaks at its records, which are the
    pixel bytes and 4 bytes an item, not twice that."""
    ds = synth_dataset(DatasetSpec(num_classes=10, shape=MIX_SHAPE, size=2048, seed=0))
    _, peak = _traced_peak(lambda: save_binary_dataset(ds, tmp_path / "d.rtds"))
    assert peak < 1.1 * ds.images.nbytes, (peak, ds.images.nbytes)


def test_load_checkpoint_peak_is_file_plus_model(tmp_path):
    path = tmp_path / "m.rtck"
    save_checkpoint(build_backbone(BIG), path)
    model, peak = _traced_peak(lambda: load_checkpoint(path))
    bound = 1.1 * (path.stat().st_size + _param_bytes(model))
    assert peak < bound, (peak, bound)


def test_read_checkpoint_holds_one_copy_of_the_file(tmp_path):
    path = tmp_path / "m.rtck"
    save_checkpoint(build_backbone(BIG), path)
    _, peak = _traced_peak(lambda: read_checkpoint(path))
    assert peak < 1.1 * path.stat().st_size, (peak, path.stat().st_size)


def test_load_binary_dataset_holds_a_chunk_and_the_labels_not_the_file(tmp_path):
    """A load reads the file a chunk of records at a time and keeps only its
    labels: at 256 and at 2,048 eval-mix items (0.8 and 6.3 MB files) its
    traced peak is under two chunks, and the larger file adds only its
    labels (8 bytes an item) and a little slack."""
    peaks = []
    for n in (256, 2048):
        path = _mix_file(tmp_path, n)
        peaks.append(_traced_peak(lambda: load_binary_dataset(path))[1])
    assert max(peaks) < 2 * _CHUNK_BYTES, peaks
    assert peaks[1] - peaks[0] < 8 * (2048 - 256) + (16 << 10), peaks


def test_a_batch_read_holds_its_pixels_once_and_one_record_buffer(tmp_path):
    """A 64-item read of eval-mix items (192 KiB of pixels) takes its runs
    through one 64 KiB record buffer, freed before the finite check masks
    the batch: the traced peak is the returned batch plus that buffer, for
    one run and for shuffled items, and the pixels are the file's. A read
    that takes a whole run into a record array (two copies of the pixels)
    fails the bound."""
    path = _mix_file(tmp_path, 256)
    pixels = _file_pixels(path.read_bytes())
    ds = load_binary_dataset(path)
    for idx in (slice(100, 164), np.random.default_rng(4).permutation(256)[:64]):
        batch, peak = _traced_peak(lambda: ds.images[idx])
        assert batch.tobytes() == pixels[idx].tobytes()
        assert batch.nbytes == 64 * 3 * 16 * 16 * 4
        assert peak <= batch.nbytes + (64 << 10) + (16 << 10), peak


def test_evaluate_of_a_loaded_file_holds_its_batches_not_the_file(tmp_path):
    """``restuner eval``'s load and ``evaluate`` in one traced window hold the
    model's forward and the batches in flight, read from the file as they
    run: at 256 and at 2,048 eval-mix items the peak is about 2.2 MiB, less
    or more as the two workers' batches overlap, and under 3 MiB, though
    the larger file alone is 6.3 MB."""
    model = build_backbone(MIX_SMALL)
    for n in (256, 2048):
        path = _mix_file(tmp_path, n)
        evaluate(model, load_binary_dataset(path))  # the first call loads the thread pool's modules
        _, peak = _traced_peak(lambda: evaluate(model, load_binary_dataset(path)))
        assert peak < 3 << 20, (n, peak)


def test_build_backbone_peak_is_parameter_bytes():
    model, peak = _traced_peak(lambda: build_backbone(BIG))
    assert peak < 1.25 * _param_bytes(model), (peak, _param_bytes(model))


@pytest.mark.parametrize("dtype_code", [0])
def test_read_checkpoint_returns_float64_for_each_dtype_code(tmp_path, dtype_code):
    m = _four_kind_model()
    path = tmp_path / "m.rtck"
    path.write_bytes(_reference_checkpoint_bytes(m, dtype_code))
    _, tensors = read_checkpoint(path)
    params = dict(m.named_parameters())
    assert list(tensors) == list(params)
    for name, values in tensors.items():
        assert values.dtype == np.float64, name
        assert values.tobytes() == params[name].data.tobytes(), name
    back = load_checkpoint(path)
    for name, p in back.named_parameters():
        assert p.data.tobytes() == tensors[name].tobytes()
        assert p.data.flags.writeable and p.data.dtype == np.float64


def test_failed_save_leaves_old_checkpoint_in_place(tmp_path):
    m = _four_kind_model()
    path = tmp_path / "model.rtck"
    save_checkpoint(m, path)
    old = path.read_bytes()
    name, last = list(m.named_parameters())[-1]
    last.data = np.full(last.data.shape, "x")  # its values cannot be written as f8
    with pytest.raises(ValueError):
        save_checkpoint(m, path)
    assert path.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.rtck"]
    with pytest.raises(ValueError):
        save_checkpoint(m, tmp_path / "new.rtck")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.rtck"]


@pytest.mark.parametrize("ndim", [65, 130, 255])
def test_checkpoint_ndim_above_64_exits_2(tmp_path, capsys, ndim):
    from restuner.cli import main

    path = tmp_path / "m.rtck"
    save_checkpoint(build_backbone(TOY), path)
    payload = bytearray(path.read_bytes()[4:-4])
    at = _first_dtype_byte(payload) + 1
    assert payload[at] == 2  # patch_embed.W is [patch_dim, dim]
    payload[at] = ndim
    path.write_bytes(_with_crc(bytes(payload)))
    with pytest.raises(FormatError, match=f"'patch_embed.W' has {ndim} dims"):
        read_checkpoint(path)
    data = tmp_path / "d.rtds"
    save_binary_dataset(synth_dataset(DatasetSpec(num_classes=4, shape=(1, 8, 8), size=8)), data)
    assert main(["eval", "--checkpoint", str(path), "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "patch_embed.W" in err, err


def test_checkpoint_zero_size_dims_numpy_cannot_hold(tmp_path):
    import struct

    path = tmp_path / "m.rtck"
    save_checkpoint(build_backbone(TOY), path)
    payload = bytearray(path.read_bytes()[4:-4])
    at = _first_dtype_byte(payload) + 2
    struct.pack_into("<2Q", payload, at, 0, 2**63)  # zero values, so none to read
    path.write_bytes(_with_crc(bytes(payload)))
    with pytest.raises(FormatError, match="'patch_embed.W' cannot have dims"):
        read_checkpoint(path)


FLIPS = (lambda b: b ^ 0x01, lambda b: b ^ 0x80, lambda b: 0x00, lambda b: 0xFF)


@pytest.mark.slow
def test_checkpoint_single_byte_flips_raise_only_format_error(tmp_path):
    # freshly built: its zero biases and zero-init tuners are runs of zero
    # bytes, which a flipped dim byte makes the reader parse as headers
    m = build_backbone(MINI)
    attach(m, FOUR_KINDS)
    path = tmp_path / "m.rtck"
    save_checkpoint(m, path)
    payload = path.read_bytes()[4:-4]
    bad = tmp_path / "bad.rtck"
    for i in range(len(payload)):
        for flip in FLIPS:
            mutated = bytearray(payload)
            mutated[i] = flip(payload[i])
            bad.write_bytes(_with_crc(bytes(mutated)))
            try:
                load_checkpoint(bad)
            except FormatError:
                pass


def test_dataset_single_byte_flips_raise_only_format_error(tmp_path):
    ds = Dataset(np.arange(12.0).reshape(3, 1, 2, 2), np.array([0, 1, 2]), num_classes=3)
    path = tmp_path / "d.rtds"
    save_binary_dataset(ds, path)
    blob = path.read_bytes()
    for i in range(len(blob)):
        for flip in FLIPS:
            mutated = bytearray(blob)
            mutated[i] = flip(blob[i])
            path.write_bytes(bytes(mutated))
            try:
                load_binary_dataset(path)
            except FormatError:
                pass
