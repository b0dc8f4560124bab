"""Datasets and bit-exact persistence.

Two little-endian binary formats:

Checkpoint (magic ``RTCK``): u32 version, u32 config length + UTF-8 config
JSON, u32 tensor count, then per tensor u16 name length + name, u8 dtype
(0 = f64), u8 ndim, ndim x u64 dims, raw values; finally a CRC32
of every byte after the magic.

Dataset (magic ``RTDS``): u32 version, u32 count, u32 classes, u32 C, H,
W, then count x (u32 label + C*H*W f32 pixels).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from .backbone import BackboneConfig, ModelGraph, build_backbone
from .tuners import AttachSpec

CHECKPOINT_MAGIC = b"RTCK"
CHECKPOINT_VERSION = 1
DATASET_MAGIC = b"RTDS"
DATASET_VERSION = 1


class FormatError(ValueError):
    pass


@dataclass
class Dataset:
    """Images and labels. ``images`` is float32 from ``synth_dataset`` and,
    from ``load_binary_dataset``, a read-only view of the file's bytes:
    ``Tensor`` widens each batch exactly where it enters the model."""

    images: np.ndarray  # [n, C, H, W] float32
    labels: np.ndarray  # [n] int64
    num_classes: int

    def __len__(self):
        return len(self.labels)

    def subset(self, idx) -> "Dataset":
        return Dataset(self.images[idx], self.labels[idx], self.num_classes)


@dataclass
class DatasetSpec:
    num_classes: int = 4
    shape: tuple = (1, 8, 8)  # C, H, W
    size: int = 128
    seed: int = 0
    signal: float = 1.0
    noise: float = 0.1
    rotation_deg: float = 90.0  # task-B feature rotation

    def __post_init__(self):
        if self.num_classes < 1:
            raise ValueError("need at least one class")
        if self.size < self.num_classes:
            raise ValueError(f"size {self.size} is below the class count {self.num_classes}")
        if 2 * self.num_classes > int(np.prod(self.shape)):
            raise ValueError(f"image too small for {self.num_classes} classes: {self.shape}")
        for key, value in (("signal", self.signal), ("noise", self.noise), ("rotation", self.rotation_deg)):
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")


def _class_directions(spec: DatasetSpec) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal per-class pixel directions for tasks A and B.

    Task B rotates each class direction toward an orthogonal complement,
    so B is a genuinely different (but related) feature layout.
    """
    d = int(np.prod(spec.shape))
    k = spec.num_classes
    rng = np.random.default_rng(spec.seed)
    q, _ = np.linalg.qr(rng.normal(size=(d, 2 * k)))
    theta = np.deg2rad(spec.rotation_deg)
    dirs_a = q[:, :k].T
    dirs_b = np.cos(theta) * q[:, :k].T + np.sin(theta) * q[:, k:].T
    return dirs_a, dirs_b


def synth_dataset(spec: DatasetSpec, task: str = "a") -> Dataset:
    """Class-conditional float32 Gaussian blobs along per-class directions.

    Deterministic per (spec, task); labels balanced within one. A pixel
    float32 cannot hold raises FormatError naming its item."""
    if task not in ("a", "b"):
        raise ValueError(f"task must be 'a' or 'b', got {task!r}")
    dirs_a, dirs_b = _class_directions(spec)
    dirs = dirs_a if task == "a" else dirs_b
    k = spec.num_classes
    rng = np.random.default_rng(spec.seed + (0 if task == "a" else 1_000_003))
    labels = np.arange(spec.size) % k
    rng.shuffle(labels)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        flat = spec.signal * dirs[labels] + spec.noise * rng.normal(size=(spec.size, dirs.shape[1]))
        flat = flat.astype(np.float32)
    _check_finite(flat)
    return Dataset(flat.reshape(spec.size, *spec.shape), labels.astype(np.int64), k)


def split_dataset(ds: Dataset, train_fraction: float, seed: int = 0):
    """(train, eval) of a seeded permutation, cut after
    ``round(train_fraction * len(ds))`` items. That is the contract: Python's
    ``round`` takes a half to the even side, so 0.65 x 10 gives 6 and
    0.75 x 10 gives 8."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ds))
    cut = int(round(train_fraction * len(ds)))
    return ds.subset(order[:cut]), ds.subset(order[cut:])


# -- dataset binary format ----------------------------------------------


def _dataset_record(pixels: int) -> np.dtype:
    return np.dtype([("label", "<u4"), ("pixels", "<f4", (pixels,))])


def _check_finite(pixels: np.ndarray) -> None:
    """Raise FormatError naming the first item with a pixel that is not a finite float32."""
    for i, row in enumerate(pixels):  # one record at a time: no full-size mask
        if not np.isfinite(row).all():
            raise FormatError(f"dataset item {i} has a pixel value that is not a finite float32")


def save_binary_dataset(ds: Dataset, path) -> None:
    """Write ``ds`` to ``path``. A pixel that is not a finite float32 raises
    FormatError naming its item before any byte is written."""
    n, c, h, w = ds.images.shape
    rec = np.empty(n, dtype=_dataset_record(c * h * w))
    rec["label"] = ds.labels
    with np.errstate(over="ignore"):  # a value beyond float32's range becomes inf, reported below
        rec["pixels"] = ds.images.reshape(n, c * h * w)
    _check_finite(rec["pixels"])
    with open(path, "wb") as f:
        f.write(DATASET_MAGIC)
        f.write(struct.pack("<IIIIII", DATASET_VERSION, n, ds.num_classes, c, h, w))
        f.write(rec.tobytes())


def load_binary_dataset(path) -> Dataset:
    """Read an RTDS file. The images are its float32 pixels as a read-only,
    zero-copy view of the file's bytes, never widened to a float64 copy."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != DATASET_MAGIC:
        raise FormatError(f"bad dataset magic {blob[:4]!r} at byte 0")
    try:
        version, count, classes, c, h, w = struct.unpack_from("<IIIIII", blob, 4)
    except struct.error:
        raise FormatError("truncated dataset header at byte 4")
    if version != DATASET_VERSION:
        raise FormatError(f"unsupported dataset version {version}")
    if count == 0:
        raise FormatError("dataset file contains zero items")
    item = 4 + 4 * c * h * w
    end = 28 + count * item
    if len(blob) < end:
        i = (len(blob) - 28) // item
        raise FormatError(f"truncated dataset item {i} at byte {28 + i * item}")
    if len(blob) > end:
        raise FormatError(f"{len(blob) - end} trailing bytes after the last item at byte {end}")
    rec = np.frombuffer(blob, dtype=_dataset_record(c * h * w), count=count, offset=28)
    bad = np.flatnonzero(rec["label"] >= classes)
    if bad.size:
        i = int(bad[0])
        raise FormatError(f"label {rec['label'][i]} >= class count {classes} in item {i}")
    _check_finite(rec["pixels"])
    images = rec["pixels"].reshape(count, c, h, w)  # a view of the file's bytes
    return Dataset(images, rec["label"].astype(np.int64), classes)


# -- checkpoints --------------------------------------------------------


def model_config_blob(model: ModelGraph) -> str:
    tuners = [
        {"block_index": block, "op": op, "kind": t.kind, "options": t.options()}
        for (block, op), t in model.tuners.items()
    ]
    return json.dumps({"backbone": asdict(model.cfg), "tuners": tuners}, sort_keys=True)


def save_checkpoint(model: ModelGraph, path) -> None:
    """Stream the checkpoint into a temporary file beside ``path``, then
    rename it over ``path``: a save that fails leaves any old file as it was."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            _write_checkpoint(model, f)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _write_checkpoint(model: ModelGraph, f) -> None:
    """Write each header field and each tensor's values straight to ``f``,
    folding every chunk into the CRC; no payload copy is ever built."""
    crc = 0

    def put(chunk) -> None:
        nonlocal crc
        f.write(chunk)
        crc = zlib.crc32(chunk, crc)

    f.write(CHECKPOINT_MAGIC)
    config = model_config_blob(model).encode()
    tensors = list(model.named_parameters())
    put(struct.pack("<II", CHECKPOINT_VERSION, len(config)) + config)
    put(struct.pack("<I", len(tensors)))
    for name, p in tensors:
        nb = name.encode()
        shape = p.data.shape
        put(struct.pack(f"<H{len(nb)}sBB{len(shape)}Q", len(nb), nb, 0, len(shape), *shape))
        put(memoryview(np.ascontiguousarray(p.data, dtype="<f8")))
    f.write(struct.pack("<I", crc))


_MAX_NDIM = 64  # numpy's limit on array dimensions


class _Cursor:
    """Bounds-checked reads from a checkpoint payload; offsets are file offsets."""

    def __init__(self, payload: bytes):
        self.payload = memoryview(payload)
        self.off = 0

    def take(self, n: int, what: str) -> memoryview:
        if n > len(self.payload) - self.off:
            raise FormatError(f"truncated checkpoint: {what} at byte {4 + self.off}")
        chunk = self.payload[self.off : self.off + n]
        self.off += n
        return chunk

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def text(self, n: int, what: str) -> str:
        at = 4 + self.off
        try:
            return str(self.take(n, what), "utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{what} at byte {at} is not UTF-8")


def read_checkpoint(path):
    """Parse a checkpoint file -> (config dict, {name: float64 array}).

    Each tensor is a read-only view into the file's bytes."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"bad checkpoint magic {blob[:4]!r}")
    payload, crc_bytes = memoryview(blob)[4:-4], blob[-4:]
    (crc,) = struct.unpack("<I", crc_bytes)
    if zlib.crc32(payload) != crc:
        raise FormatError("checkpoint CRC mismatch (corrupt file)")
    cur = _Cursor(payload)
    (version,) = cur.unpack("<I", "version")
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    (cfg_len,) = cur.unpack("<I", "config length")
    try:
        config = json.loads(cur.text(cfg_len, "config"))
    except json.JSONDecodeError as e:
        raise FormatError(f"checkpoint config is not valid JSON: {e}")
    (count,) = cur.unpack("<I", "tensor count")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = cur.unpack("<H", "tensor name length")
        name = cur.text(name_len, "tensor name")
        dtype_code, ndim = cur.unpack("<BB", f"dtype of {name!r}")
        if dtype_code != 0:
            raise FormatError(f"unknown dtype code {dtype_code} for tensor {name!r}")
        if ndim > _MAX_NDIM:
            raise FormatError(f"tensor {name!r} has {ndim} dims; at most {_MAX_NDIM} allowed")
        dims = cur.unpack(f"<{ndim}Q", f"dims of {name!r}")
        raw = cur.take(8 * math.prod(dims), f"values of {name!r}")
        values = np.frombuffer(raw, dtype="<f8")
        if name in tensors:
            raise FormatError(f"duplicate tensor name {name!r}")
        if not np.isfinite(values).all():
            raise FormatError(f"tensor {name!r} has a non-finite value")
        try:
            tensors[name] = values.reshape(dims)
        except ValueError as e:  # zero values but a dim numpy cannot hold
            raise FormatError(f"tensor {name!r} cannot have dims {dims}: {e}")
    if cur.off != len(payload):
        raise FormatError(f"{len(payload) - cur.off} trailing bytes after the last tensor")
    return config, tensors


def load_checkpoint(path) -> ModelGraph:
    """Rebuild the model from its config echo with ``build_backbone``, which
    draws no weight (``draw=False``), and restore every tensor."""
    config, tensors = read_checkpoint(path)
    try:
        model = build_backbone(BackboneConfig(**config["backbone"]),
                               [AttachSpec(**t) for t in config["tuners"]], draw=False)
    except KeyError as e:
        raise FormatError(f"checkpoint config echo has no {e} key")
    except (TypeError, ValueError) as e:
        raise FormatError(f"bad checkpoint config echo: {e}")
    params = dict(model.named_parameters())
    for name, values in tensors.items():
        if name not in params:
            raise FormatError(f"unknown tensor name {name!r} in checkpoint")
        p = params[name]
        if tuple(values.shape) != tuple(p.data.shape):
            raise FormatError(
                f"shape mismatch for {name!r}: file {values.shape} vs model {p.data.shape}"
            )
        p.data[...] = values  # in place, so views bound at attach stay valid
    missing = set(params) - set(tensors)
    if missing:
        raise FormatError(f"checkpoint missing tensors: {sorted(missing)}")
    return model

