"""From-scratch CNN engine and CLI for 16-class plate-character recognition."""

from .tensor import (
    Tensor,
    conv2d_backward,
    conv2d_valid,
    maxpool2x2,
    maxpool2x2_backward,
    pool_argmax,
    sigmoid_map,
    tensor_create,
)
from .layers import (
    LayerSpec,
    LayerState,
    dropout_mask,
    layer_backward,
    layer_forward,
    mse_loss,
)
from .network import (
    Network,
    NetworkConfig,
    ParamCountReport,
    build_network,
    count_parameters,
    network_backward,
    network_forward,
    predict,
)
from .data import (
    Dataset,
    LabelMap,
    Sample,
    SynthSpec,
    generate_synthetic,
    load_dataset_dir,
    normalize_image,
    one_hot,
)
from .training import (
    EvalReport,
    TrainConfig,
    TrainingReport,
    evaluate,
    sgd_update,
    split_dataset,
    train,
)
from .checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "Tensor", "conv2d_backward", "conv2d_valid", "maxpool2x2",
    "maxpool2x2_backward", "pool_argmax", "sigmoid_map", "tensor_create",
    "LayerSpec", "LayerState", "dropout_mask",
    "layer_backward", "layer_forward", "mse_loss",
    "Network", "NetworkConfig", "ParamCountReport", "build_network",
    "count_parameters", "network_backward", "network_forward", "predict",
    "Dataset", "LabelMap", "Sample", "SynthSpec", "generate_synthetic",
    "load_dataset_dir", "normalize_image", "one_hot",
    "EvalReport", "TrainConfig", "TrainingReport", "evaluate", "sgd_update",
    "split_dataset", "train",
    "load_checkpoint", "save_checkpoint",
]
