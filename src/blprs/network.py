"""The six-layer character-recognition network: two convolutions, two 2x2
max-pools, a hidden fully connected layer with dropout, and a 16-way
sigmoid classification layer.

Parameter counting is reported under two conventions. "standard" counts
the actual trainables (one bias per output map or unit); "paper" is an
alternative bookkeeping that tallies one bias term per kernel window and
replicates it across map pairs, which yields larger counts for the second
convolution and the hidden layer.

The forward pass keeps every layer's output and dropout mask, and the
backward pass differentiates from those alone. It decides in one place where
each sigmoid derivative is taken: for a convolution at the pooling layer
above, on the pooled maps, and for a fully connected layer at the layer.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Optional

import numpy as np

from .data import CLASS_COUNT, IMAGE_SIZE
from .layers import (
    CONV,
    FC,
    POOL,
    LayerSpec,
    LayerState,
    layer_backward,
    layer_forward,
)
from .tensor import Tensor, as_tensor

LAYER_NAMES = ("C1", "S1", "C2", "S2", "F1", "F2")

PAPER = "paper"
STANDARD = "standard"
_OPERATIONS = {CONV: "Convolution", POOL: "Max-Pooling", FC: "Fully Connected"}


@dataclass(frozen=True)
class NetworkConfig:
    input_shape: tuple = (1, IMAGE_SIZE, IMAGE_SIZE)
    conv1_maps: int = 6
    conv2_maps: int = 12
    kernel_size: int = 5
    hidden_units: int = 300
    class_count: int = CLASS_COUNT
    dropout_rate: float = 0.5
    layer_specs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "layer_specs", (
            LayerSpec(CONV, self.conv1_maps, self.kernel_size),
            LayerSpec(POOL),
            LayerSpec(CONV, self.conv2_maps, self.kernel_size),
            LayerSpec(POOL),
            LayerSpec(FC, self.hidden_units, dropout_rate=self.dropout_rate),
            LayerSpec(FC, self.class_count),
        ))

    def shape_chain(self) -> list[tuple]:
        """Per-layer output shapes, input first; raises on an invalid chain."""
        shapes = [tuple(self.input_shape)]
        if len(shapes[0]) != 3 or min(shapes[0]) < 1:
            raise ValueError(f"input shape must be (C,H,W), each >= 1, got {shapes[0]}")
        for spec in self.layer_specs:
            if spec.kind == FC:
                shapes.append((spec.out_maps,))
                continue
            c, h, w = shapes[-1]
            if spec.kind == CONV:
                k = spec.kernel_size
                if k > h or k > w:
                    raise ValueError(f"kernel {k}x{k} does not fit input {h}x{w}")
                shapes.append((spec.out_maps, h - k + 1, w - k + 1))
            else:
                if h % 2 or w % 2:
                    raise ValueError(
                        f"feature map {h}x{w} reaching a 2x2 pool must be even"
                    )
                shapes.append((c, h // 2, w // 2))
        return shapes

    def param_shapes(self) -> list[Optional[tuple]]:
        """Per-layer weight shape, None for pooling; each bias count is shape[0]."""
        shapes = []
        for spec, shape_in in zip(self.layer_specs, self.shape_chain()):
            if spec.kind == CONV:
                k = spec.kernel_size
                shapes.append((spec.out_maps, shape_in[0], k, k))
            elif spec.kind == FC:
                shapes.append((spec.out_maps, prod(shape_in)))
            else:
                shapes.append(None)
        return shapes


@dataclass
class Network:
    config: NetworkConfig
    states: list


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
    rng: Optional[np.random.Generator] = None,
) -> tuple[Tensor, list[Tensor], list[Optional[Tensor]]]:
    """Chain all six layers; returns the 16 class scores, every layer's
    output with the image first, and every layer's dropout mask.

    Dropout applies exactly when an rng is given: a layer with dropout then
    draws a mask, and the next layer reads its output times the mask. The
    outputs are kept as the layers returned them, before any mask; a layer
    without one has None in the masks.
    """
    image = as_tensor(image)
    if image.shape != tuple(net.config.input_shape):
        raise ValueError(
            f"expected input shape {tuple(net.config.input_shape)}, "
            f"got {image.shape}"
        )
    if not np.isfinite(image).all():
        raise ValueError("input image contains NaN or infinite values")
    outputs, masks = [image], []
    x = image
    for spec, state in zip(net.config.layer_specs, net.states, strict=True):
        out, mask = layer_forward(spec, state, x, rng)
        outputs.append(out)
        masks.append(mask)
        x = out if mask is None else out * mask
    return x, outputs, masks


def network_backward(
    net: Network,
    outputs: list[Tensor],
    masks: list[Optional[Tensor]],
    target: Tensor,
    previous: Optional[list] = None,
) -> list:
    """Gradients of the half-sum-of-squares loss w.r.t. every weight and bias.

    Takes one image's outputs, masks and target, or a mini-batch's, each
    list entry stacked along a leading axis, with the stacked targets; a
    batch's gradients are summed over its images. Given ``previous``, the
    list an earlier call returned, the fully connected weight gradients are
    written into that list's arrays, so each mini-batch overwrites the last
    one's; without it, every call returns new arrays.
    """
    target = as_tensor(target)
    if target.shape != outputs[-1].shape:
        raise ValueError(
            f"target shape {target.shape} does not match scores {outputs[-1].shape}"
        )
    specs = net.config.layer_specs
    # What each layer read: the output below it, times that layer's mask.
    inputs = [x if m is None else x * m for x, m in zip(outputs, [None, *masks])]
    grad = outputs[-1] - target
    grads: list[Optional[LayerState]] = [None] * len(specs)
    layers = zip(specs, net.states, inputs[:-1], outputs[1:], masks,
                 [None] * len(specs) if previous is None else previous, strict=True)
    for i, (spec, state, x, y, mask, prev) in reversed(list(enumerate(layers))):
        # Every convolution and fully connected layer ends in a sigmoid. A
        # convolution's derivative is taken at the pooling layer above it,
        # on the pooled maps: a quarter of the values, the same bytes.
        # Nothing reads the gradient w.r.t. the image, so C1 skips it.
        grad, grads[i] = layer_backward(
            spec, state, x, grad, None if spec.kind == CONV else y, mask,
            input_grad=i > 0, previous=prev,
        )
    return grads


def predict(net: Network, image: Tensor) -> tuple[int, Tensor]:
    """Class readout without dropout; ties break toward the lowest index."""
    scores = network_forward(net, image)[0]
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
    rows = []
    for name, spec, shape, count in zip(LAYER_NAMES, config.layer_specs,
                                        shapes[1:], counts):
        size = f"{shape[1]}x{shape[2]}" if len(shape) == 3 else "1x1"
        if spec.kind == CONV:
            window = f"{spec.kernel_size}x{spec.kernel_size}"
        else:
            window = "2x2" if spec.kind == POOL else "N/A"
        rows.append(LayerCount(name, _OPERATIONS[spec.kind], shape[0], size,
                               window, count))
    return ParamCountReport(
        convention=convention, layers=tuple(rows), total=sum(counts)
    )
