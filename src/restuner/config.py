"""Run-config file: INI-like sections, strict keys.

Grammar: ``[section]`` headers, ``key = value`` lines, ``#`` comments and
blank lines ignored. ``[tuner]`` may repeat; all other sections appear at
most once. Unknown sections or keys are hard errors — a silent typo in a
tuner option would invalidate an experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .backbone import BackboneConfig, ConfigError
from .data_io import DatasetSpec
from .training import TrainConfig
from .tuners import TUNERS, AttachSpec


@dataclass
class DataSection:
    source: str = "synthetic"
    path: str = ""
    size: int = 128
    train_fraction: float = 0.75
    seed: int = 0
    signal: float = 1.0
    noise: float = 0.1
    rotation_deg: float = 90.0
    task: str = "a"

    def __post_init__(self):
        if self.source not in ("synthetic", "file"):
            raise ConfigError(f"[data] source must be 'synthetic' or 'file', got {self.source!r}")
        if self.task not in ("a", "b"):
            raise ConfigError(f"[data] task must be 'a' or 'b', got {self.task!r}")
        if not 0.0 < self.train_fraction <= 1.0:
            raise ConfigError(f"[data] train_fraction must be in (0, 1], got {self.train_fraction}")


@dataclass
class RunConfig:
    backbone: BackboneConfig
    tuner_specs: list
    train: TrainConfig
    data: DataSection
    out_dir: str = "runs/out"

    def dataset_spec(self) -> DatasetSpec:
        """The synthetic dataset that the [data] and [backbone] sections describe."""
        b, d = self.backbone, self.data
        return DatasetSpec(
            num_classes=b.num_classes,
            shape=(b.in_channels, b.image_size, b.image_size),
            size=d.size,
            train_fraction=d.train_fraction,
            seed=d.seed,
            signal=d.signal,
            noise=d.noise,
            rotation_deg=d.rotation_deg,
        )


def parse_sections(text: str):
    """Raw parse -> list of (section name, {key: raw string value})."""
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = (line[1:-1].strip(), {})
            sections.append(current)
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, value = (s.strip() for s in line.split("=", 1))
        if key in current[1]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{current[0]}]")
        current[1][key] = value
    return sections


def _coerce(section: str, raw: dict, schema: dict) -> dict:
    out = {}
    for key, value in raw.items():
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} in [{section}]")
        kind = schema[key]
        try:
            if kind is bool:
                if value.lower() not in ("true", "false"):
                    raise ValueError
                out[key] = value.lower() == "true"
            else:
                out[key] = kind(value)
        except ValueError:
            raise ConfigError(f"[{section}] {key}: cannot parse {value!r} as {kind.__name__}")
    return out


_BACKBONE_SCHEMA = {
    "dim": int, "depth": int, "heads": int, "patch": int, "image": int,
    "channels": int, "classes": int, "seed": int, "qkv_bias": bool, "mlp_ratio": int,
}
_TRAIN_SCHEMA = {
    "optimizer": str, "lr": float, "weight_decay": float, "epochs": int,
    "batch": int, "seed": int, "schedule": str, "smoothing": float,
    "momentum": float, "beta1": float, "beta2": float,
}
_DATA_SCHEMA = {
    "source": str, "path": str, "size": int, "train_fraction": float,
    "seed": int, "signal": float, "noise": float, "rotation": float, "task": str,
}
_TUNER_SCHEMA = {
    "kind": str, "op": str, "blocks": str,
    **{name: type(value) for cls in TUNERS.values() for name, value in cls.defaults().items()},
}
_OUTPUT_SCHEMA = {"dir": str}

_BACKBONE_RENAME = {"image": "image_size", "channels": "in_channels", "classes": "num_classes"}
_TRAIN_RENAME = {"batch": "batch_size", "smoothing": "label_smoothing"}
_DATA_RENAME = {"rotation": "rotation_deg"}


def _build_tuner_specs(raw: dict, depth: int) -> list:
    vals = _coerce("tuner", raw, _TUNER_SCHEMA)
    if "kind" not in vals or "op" not in vals:
        raise ConfigError("[tuner] requires 'kind' and 'op' keys")
    blocks_raw = vals.pop("blocks", "all")
    if blocks_raw == "all":
        blocks = list(range(depth))
    else:
        try:
            blocks = [int(b) for b in blocks_raw.split(",")]
        except ValueError:
            raise ConfigError(f"[tuner] blocks: expected 'all' or comma list, got {blocks_raw!r}")
    kind = vals.pop("kind")
    op = vals.pop("op")
    return [AttachSpec(block_index=b, op=op, kind=kind, options=dict(vals)) for b in blocks]


def load_run_config(path) -> RunConfig:
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    sections = parse_sections(text)
    known = {"backbone", "tuner", "train", "data", "output"}
    seen_once = set()
    backbone = None
    train = None
    data = None
    out_dir = "runs/out"
    tuner_raws = []
    for name, raw in sections:
        if name not in known:
            raise ConfigError(f"unknown section [{name}]")
        if name != "tuner":
            if name in seen_once:
                raise ConfigError(f"duplicate section [{name}]")
            seen_once.add(name)
        if name == "backbone":
            vals = _coerce(name, raw, _BACKBONE_SCHEMA)
            vals = {_BACKBONE_RENAME.get(k, k): v for k, v in vals.items()}
            try:
                backbone = BackboneConfig(**vals)
            except ValueError as e:
                raise ConfigError(f"[backbone]: {e}")
        elif name == "train":
            vals = _coerce(name, raw, _TRAIN_SCHEMA)
            vals = {_TRAIN_RENAME.get(k, k): v for k, v in vals.items()}
            try:
                train = TrainConfig(**vals)
            except ValueError as e:
                raise ConfigError(f"[train]: {e}")
        elif name == "data":
            vals = _coerce(name, raw, _DATA_SCHEMA)
            vals = {_DATA_RENAME.get(k, k): v for k, v in vals.items()}
            data = DataSection(**vals)
        elif name == "output":
            out_dir = _coerce(name, raw, _OUTPUT_SCHEMA).get("dir", out_dir)
        else:
            tuner_raws.append(raw)
    if backbone is None:
        raise ConfigError("missing required section [backbone]")
    specs = []
    for raw in tuner_raws:
        specs.extend(_build_tuner_specs(raw, backbone.depth))
    run = RunConfig(
        backbone=backbone,
        tuner_specs=specs,
        train=train or TrainConfig(),
        data=data or DataSection(),
        out_dir=out_dir,
    )
    if run.data.source == "synthetic":
        try:
            run.dataset_spec()
        except ValueError as e:
            raise ConfigError(f"[data]: {e}")
    return run
