"""Residual tuners on a frozen transformer backbone, with verified numerics."""

from .tensor import Tensor, finite_diff_grad, rel_error
from .layers import LayerNorm, LinearLayer, MHAConfig, MLP, MultiHeadAttention, Parameter
from .backbone import (
    BackboneConfig,
    ModelGraph,
    build_backbone,
    trainable_parameters,
    unfreeze_backbone,
)
from .tuners import (
    AdapterConfig,
    AdapterTuner,
    AttachSpec,
    PrefixTuner,
    PrefixTunerConfig,
    PromptTuner,
    ResAttnConfig,
    ResAttnTuner,
    attach,
    count_trainable_params,
)
from .training import TrainConfig, cross_entropy, evaluate, grad_check, train
from .data_io import (
    Dataset,
    DatasetSpec,
    load_binary_dataset,
    load_checkpoint,
    save_binary_dataset,
    save_checkpoint,
    synth_dataset,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
