"""The six-layer character-recognition network: two convolutions, two 2x2
max-pools, a hidden fully connected layer with dropout, and a 16-way
sigmoid classification layer.

Parameter counting is reported under two conventions. "standard" counts
the actual trainables (one bias per output map or unit); "paper" is an
alternative bookkeeping that tallies one bias term per kernel window and
replicates it across map pairs, which yields larger counts for the second
convolution and the hidden layer.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import prod
from typing import Optional

import numpy as np

from .layers import (
    CONV,
    EVAL,
    FC,
    POOL,
    ForwardTrace,
    LayerSpec,
    LayerState,
    layer_backward,
    layer_forward,
)
from .tensor import Tensor, as_tensor

LAYER_NAMES = ("C1", "S1", "C2", "S2", "F1", "F2")

PAPER = "paper"
STANDARD = "standard"


@dataclass(frozen=True)
class NetworkConfig:
    input_shape: tuple = (1, 32, 32)
    conv1_maps: int = 6
    conv2_maps: int = 12
    kernel_size: int = 5
    hidden_units: int = 300
    class_count: int = 16
    dropout_rate: float = 0.5

    def layer_specs(self) -> tuple[LayerSpec, ...]:
        return _specs_for(self)

    def shape_chain(self) -> list[tuple]:
        """Per-layer output shapes, input first; raises on an invalid chain."""
        cin, h, w = self.input_shape
        k = self.kernel_size
        shapes = [(cin, h, w)]
        for maps in (self.conv1_maps, self.conv2_maps):
            if k > h or k > w:
                raise ValueError(f"kernel {k}x{k} does not fit input {h}x{w}")
            h, w = h - k + 1, w - k + 1
            shapes.append((maps, h, w))
            if h % 2 or w % 2:
                raise ValueError(
                    f"feature map {h}x{w} reaching a 2x2 pool must be even"
                )
            h, w = h // 2, w // 2
            shapes.append((maps, h, w))
        shapes.append((self.hidden_units,))
        shapes.append((self.class_count,))
        return shapes

    def flatten_size(self) -> int:
        c, h, w = self.shape_chain()[4]
        return c * h * w

    def param_shapes(self) -> list[Optional[tuple]]:
        """Per-layer weight shape, None for pooling; each bias count is shape[0]."""
        k = self.kernel_size
        return [
            (self.conv1_maps, self.input_shape[0], k, k),
            None,
            (self.conv2_maps, self.conv1_maps, k, k),
            None,
            (self.hidden_units, self.flatten_size()),
            (self.class_count, self.hidden_units),
        ]


@lru_cache(maxsize=None)
def _specs_for(config: "NetworkConfig") -> tuple[LayerSpec, ...]:
    return (
        LayerSpec(CONV, config.conv1_maps, config.kernel_size, apply_sigmoid=True),
        LayerSpec(POOL),
        LayerSpec(CONV, config.conv2_maps, config.kernel_size, apply_sigmoid=True),
        LayerSpec(POOL),
        LayerSpec(
            FC,
            config.hidden_units,
            apply_sigmoid=True,
            dropout_rate=config.dropout_rate,
        ),
        LayerSpec(FC, config.class_count, apply_sigmoid=True),
    )


@dataclass
class Network:
    config: NetworkConfig
    states: list = field(default_factory=list)


def build_network(config: NetworkConfig, seed: int) -> Network:
    """Instantiate the network with uniform +/-sqrt(6/(fan_in+fan_out)) weights
    and zero biases, deterministically from the seed."""
    rng = np.random.default_rng(seed)
    states: list[Optional[LayerState]] = []
    for shape in config.param_shapes():
        if shape is None:
            states.append(None)  # pooling has no trainables
            continue
        fan_in, fan_out = prod(shape[1:]), shape[0] * prod(shape[2:])
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=shape)
        states.append(LayerState(weights=w, biases=np.zeros(shape[0])))
    return Network(config=config, states=states)


def network_forward(
    net: Network,
    image: Tensor,
    mode: str = EVAL,
    rng: Optional[np.random.Generator] = None,
) -> tuple[Tensor, list[ForwardTrace]]:
    """Chain all six layers; returns the 16 class scores and the traces."""
    image = as_tensor(image)
    if image.shape != tuple(net.config.input_shape):
        raise ValueError(
            f"expected input shape {tuple(net.config.input_shape)}, "
            f"got {image.shape}"
        )
    if not np.isfinite(image).all():
        raise ValueError("input image contains NaN or infinite values")
    traces = []
    out = image
    for spec, state in zip(net.config.layer_specs(), net.states):
        out, trace = layer_forward(spec, state, out, mode, rng)
        traces.append(trace)
    return out, traces


def network_backward(
    net: Network, traces: list[ForwardTrace], target: Tensor
) -> list:
    """Gradients of the half-sum-of-squares loss w.r.t. every weight and bias."""
    target = as_tensor(target)
    scores_shape = traces[-1].output_shape
    if target.shape != scores_shape:
        raise ValueError(
            f"target shape {target.shape} does not match scores {scores_shape}"
        )
    grad = traces[-1].post_activation - target
    specs = net.config.layer_specs()
    grads: list[Optional[LayerState]] = [None] * len(traces)
    for i in range(len(traces) - 1, -1, -1):
        # Nothing reads the gradient w.r.t. the image, so C1 skips it.
        grad, grads[i] = layer_backward(
            specs[i], net.states[i], traces[i], grad, input_grad=i > 0
        )
    return grads


def predict(net: Network, image: Tensor) -> tuple[int, Tensor]:
    """Evaluation-mode class readout; ties break toward the lowest index."""
    scores, _ = network_forward(net, image, mode=EVAL)
    return int(np.argmax(scores)), scores


@dataclass(frozen=True)
class LayerCount:
    name: str
    operation: str
    feature_maps: int
    map_size: str
    window_size: str
    parameters: int


@dataclass(frozen=True)
class ParamCountReport:
    convention: str
    layers: tuple
    total: int


def count_parameters(config: NetworkConfig, convention: str) -> ParamCountReport:
    """Per-layer parameter counts under the requested convention.

    standard: C = (k*k*cin + 1)*maps, F = (inputs + 1)*units.
    paper:    C1 = (k*k+1)*m1, C2 = ((k*k+1)*m1)*m2,
              F1 = units*m2*(k*k+1), F2 = classes*(units+1).
    """
    if convention not in (PAPER, STANDARD):
        raise ValueError(f"convention must be {PAPER!r} or {STANDARD!r}")
    shapes = config.shape_chain()
    k = config.kernel_size
    m1, m2 = config.conv1_maps, config.conv2_maps
    units, classes = config.hidden_units, config.class_count
    if convention == PAPER:
        counts = [
            (k * k + 1) * m1,
            0,
            ((k * k + 1) * m1) * m2,
            0,
            units * m2 * (k * k + 1),
            classes * (units + 1),
        ]
    else:
        counts = [
            0 if shape is None else prod(shape) + shape[0]
            for shape in config.param_shapes()
        ]
    ops = ("Convolution", "Max-Pooling", "Convolution", "Max-Pooling",
           "Fully Connected", "Fully Connected")
    windows = (f"{k}x{k}", "2x2", f"{k}x{k}", "2x2", "N/A", "N/A")
    rows = []
    for i, name in enumerate(LAYER_NAMES):
        shape = shapes[i + 1]
        if len(shape) == 3:
            maps, size = shape[0], f"{shape[1]}x{shape[2]}"
        else:
            maps, size = shape[0], "1x1"
        rows.append(LayerCount(name, ops[i], maps, size, windows[i], counts[i]))
    return ParamCountReport(
        convention=convention, layers=tuple(rows), total=sum(counts)
    )
