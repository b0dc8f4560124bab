"""The three benchmark workloads: their configs, data files and commands.

Standard library only: the orchestrator imports this module, and so does
the input generator in ``helper.py``. Paths in configs and commands are
relative to the workload's run directory, which is every child's cwd.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

MATRIX_CONFIG = """\
# acceptance criterion 5, verbatim (its 0.85 accuracy bound depends on it)
[backbone]
dim = 16
depth = 2
heads = 2
patch = 4
image = 8
classes = 4
seed = 0
[train]
epochs = 40
batch = 16
lr = 0.002
seed = 0
[data]
size = 64
signal = 3.0
train_fraction = 1.0
[output]
dir = out
"""

VIT_CONFIG = """\
# vit-tiny-32px, res_attn (rank 4, 2 heads) on every MHA slot, B=1
[backbone]
dim = 192
depth = 12
heads = 3
patch = 4
image = 32
channels = 3
classes = 10
seed = {backbone}
[tuner]
kind = res_attn
op = mha
rank = 4
heads = 2
[train]
epochs = {epochs}
batch = 1
seed = {train}
[data]
source = file
path = train.rtds
train_fraction = 1.0
seed = {split}
"""

MIX_CONFIG = """\
# prefix@mha, adapter@ffn, prompt@block on a width-64, 4-block backbone
[backbone]
dim = 64
depth = 4
heads = 4
patch = 4
image = 16
channels = 3
classes = 10
seed = {backbone}
[tuner]
kind = prefix
op = mha
length = 10
[tuner]
kind = adapter
op = ffn
bottleneck = 8
[tuner]
kind = prompt
op = block
length = 10
[train]
epochs = 1
batch = 16
seed = {train}
[data]
source = file
path = train.rtds
train_fraction = 1.0
seed = {split}
"""

VIT_EPOCHS = 1
VIT_IMAGES = 64
MIX_TRAIN_IMAGES = 128
MIX_EVAL_IMAGES = 1024


@dataclass(frozen=True)
class Workload:
    config: str  # template; fields come from derived_seeds()
    config_file: str
    command: tuple  # restuner CLI argv of the timed command
    images: int  # images pushed through the model per timed command
    setup_commands: tuple = ()  # CLI argvs run during set-up
    classes: int = 0
    image_shape: tuple = ()
    data: dict = field(default_factory=dict)  # file name -> image count

    def config_text(self, seeds: dict) -> str:
        return self.config.format(**seeds, epochs=VIT_EPOCHS)


WORKLOADS = {
    "matrix-toy": Workload(
        config=MATRIX_CONFIG,
        config_file="matrix.cfg",
        command=("matrix", "--config", "matrix.cfg"),
        images=28 * 64 * 40,
    ),
    "train-vit": Workload(
        config=VIT_CONFIG,
        config_file="train.cfg",
        command=("train", "--config", "train.cfg", "--out", "out"),
        images=VIT_IMAGES * VIT_EPOCHS,
        classes=10,
        image_shape=(3, 32, 32),
        data={"train.rtds": VIT_IMAGES},
    ),
    "eval-mix": Workload(
        config=MIX_CONFIG,
        config_file="train.cfg",
        command=("eval", "--checkpoint", "ckpt/model.rtck", "--data", "eval.rtds"),
        images=MIX_EVAL_IMAGES,
        setup_commands=(("train", "--config", "train.cfg", "--out", "ckpt"),),
        classes=10,
        image_shape=(3, 16, 16),
        data={"train.rtds": MIX_TRAIN_IMAGES, "eval.rtds": MIX_EVAL_IMAGES},
    ),
}


def derived_seeds(workload: str, seed: int) -> dict:
    """Data, backbone, train-order and split seeds, all from the workload seed."""
    rng = random.Random(f"{workload}:{seed}")
    return {k: rng.randrange(2**31) for k in ("data", "backbone", "train", "split")}
