"""Run-config file: INI-like sections, strict keys.

Grammar: ``[section]`` headers, ``key = value`` lines, ``#`` comments and
blank lines ignored. ``[tuner]`` may repeat; all other sections appear at
most once. Unknown sections or keys are hard errors — a silent typo in a
tuner option would invalidate an experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .backbone import BackboneConfig, ConfigError
from .data_io import DatasetSpec
from .training import TrainConfig
from .tuners import TUNERS, AttachSpec


@dataclass
class DataSection:
    source: str = "synthetic"
    path: str = ""
    size: int = DatasetSpec.size
    train_fraction: float = 0.75
    seed: int = DatasetSpec.seed
    signal: float = DatasetSpec.signal
    noise: float = DatasetSpec.noise
    rotation_deg: float = DatasetSpec.rotation_deg
    task: str = "a"

    def __post_init__(self):
        if self.source not in ("synthetic", "file"):
            raise ConfigError(f"source must be 'synthetic' or 'file', got {self.source!r}")
        if self.task not in ("a", "b"):
            raise ConfigError(f"task must be 'a' or 'b', got {self.task!r}")
        if not 0.0 < self.train_fraction <= 1.0:
            raise ConfigError(f"train_fraction must be in (0, 1], got {self.train_fraction}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class OutputSection:
    dir: str = "runs/out"


@dataclass
class RunConfig:
    backbone: BackboneConfig
    tuner_specs: list
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataSection = field(default_factory=DataSection)
    output: OutputSection = field(default_factory=OutputSection)

    def dataset_spec(self) -> DatasetSpec:
        """The synthetic dataset that the [data] and [backbone] sections describe."""
        b, d = self.backbone, self.data
        return DatasetSpec(
            num_classes=b.num_classes,
            shape=(b.in_channels, b.image_size, b.image_size),
            size=d.size,
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


_TUNER_SCHEMA = {
    "kind": str, "op": str, "blocks": str,
    **{name: type(value) for cls in TUNERS.values() for name, value in cls.defaults().items()},
}
_SECTIONS = {"backbone": BackboneConfig, "train": TrainConfig, "data": DataSection, "output": OutputSection}
# config key -> dataclass field, where the two names differ
_RENAME = {"image": "image_size", "channels": "in_channels", "classes": "num_classes",
           "batch": "batch_size", "smoothing": "label_smoothing", "rotation": "rotation_deg"}


def _build_section(name: str, raw: dict):
    """Build one ``_SECTIONS`` section; each key takes its field default's type."""
    cls = _SECTIONS[name]
    key_of = {f: key for key, f in _RENAME.items()}
    schema = {key_of.get(f.name, f.name): type(f.default) for f in fields(cls)}
    vals = _coerce(name, raw, schema)
    try:
        return cls(**{_RENAME.get(k, k): v for k, v in vals.items()})
    except ValueError as e:
        raise ConfigError(f"[{name}]: {e}")


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
    built = {}
    tuner_raws = []
    for name, raw in parse_sections(text):
        if name == "tuner":
            tuner_raws.append(raw)
        elif name not in _SECTIONS:
            raise ConfigError(f"unknown section [{name}]")
        elif name in built:
            raise ConfigError(f"duplicate section [{name}]")
        else:
            built[name] = _build_section(name, raw)
    if "backbone" not in built:
        raise ConfigError("missing required section [backbone]")
    specs = []
    for raw in tuner_raws:
        specs.extend(_build_tuner_specs(raw, built["backbone"].depth))
    run = RunConfig(tuner_specs=specs, **built)
    if run.data.source == "synthetic":
        try:
            run.dataset_spec()
        except ValueError as e:
            raise ConfigError(f"[data]: {e}")
    return run
