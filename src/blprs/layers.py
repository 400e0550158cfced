"""Layer units composing the kernels into forward/backward passes.

Three layer kinds: convolution (valid 5x5-style), 2x2 max-pooling, and
fully connected. Sigmoid is the only nonlinearity; dropout applies exactly
when an rng is given, with inverted scaling so no rng means the identity.

``layer_forward`` runs one image. ``layer_backward`` runs one image or a
mini-batch: a trace whose arrays carry a leading batch axis gives
parameter gradients summed over that batch. Given the gradients an
earlier call returned, it overwrites their fully connected weight array.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .tensor import (
    Tensor,
    as_tensor,
    conv2d_backward,
    conv2d_valid,
    maxpool2x2,
    maxpool2x2_backward,
    pool_argmax,
    sigmoid_map,
)

CONV = "conv"
POOL = "pool"
FC = "fc"


@dataclass(frozen=True)
class LayerSpec:
    """Declarative description of one layer.

    ``out_maps`` is the output feature-map count for convolutions and the
    unit count for fully connected layers; pooling layers ignore it.
    """

    kind: str
    out_maps: Optional[int] = None
    kernel_size: Optional[int] = None
    apply_sigmoid: bool = False
    dropout_rate: float = 0.0

    def __post_init__(self):
        if self.kind not in (CONV, POOL, FC):
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.kind == CONV:
            if not self.out_maps or not self.kernel_size:
                raise ValueError("convolution needs out_maps and kernel_size")
        elif self.kernel_size is not None:
            raise ValueError("kernel_size only applies to convolutions")
        if self.kind == FC and not self.out_maps:
            raise ValueError("fully connected layer needs a unit count")
        if self.kind == POOL and self.apply_sigmoid:
            raise ValueError("pooling layers carry no nonlinearity")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0,1), got {self.dropout_rate}")


@dataclass
class LayerState:
    """Trainable weights and biases; also reused as the gradient container."""

    weights: Optional[Tensor] = None
    biases: Optional[np.ndarray] = None


@dataclass
class ForwardTrace:
    """The values the matching backward call needs.

    ``post_activation`` holds the sigmoid outputs whose derivative the
    backward pass takes first. A pooling layer that ``network_forward``
    hands its input's activation to holds its pooled maps there, so the
    derivative is taken on a quarter of the values and the convolution
    below, which then holds none, gets a gradient already past its sigmoid.
    Pooling also keeps its ``input``: the backward pass builds the argmax
    mask from it, once per call, so a forward-only pass never builds one.
    """

    input: Tensor
    post_activation: Optional[Tensor] = None
    dropout_mask: Optional[Tensor] = None
    output_shape: tuple = ()


def dropout_mask(shape, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted-dropout mask: 0 with probability ``rate``, else 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0,1), got {rate}")
    if rate == 0.0:
        return np.ones(shape, dtype=np.float64)
    return (rng.random(shape) >= rate) / (1.0 - rate)


def layer_forward(
    spec: LayerSpec,
    state: Optional[LayerState],
    x: Tensor,
    rng: Optional[np.random.Generator] = None,
) -> tuple[Tensor, ForwardTrace]:
    """Run one layer forward; dropout applies exactly when an rng is given."""
    x = as_tensor(x)
    trace = ForwardTrace(input=x)

    if spec.kind == CONV:
        out = conv2d_valid(x, state.weights, state.biases)
        if spec.apply_sigmoid:
            out = sigmoid_map(out)
            trace.post_activation = out
    elif spec.kind == POOL:
        out = maxpool2x2(x)
    else:  # FC
        v = x.ravel()
        if state.weights.shape[1] != v.size:
            raise ValueError(
                f"fully connected layer expects {state.weights.shape[1]} inputs, "
                f"got {v.size}"
            )
        out = state.weights @ v + state.biases
        if spec.apply_sigmoid:
            out = sigmoid_map(out)
            trace.post_activation = out

    if spec.dropout_rate > 0.0 and rng is not None:
        trace.dropout_mask = dropout_mask(out.shape, spec.dropout_rate, rng)
        out = out * trace.dropout_mask

    trace.output_shape = out.shape
    return out, trace


def layer_backward(
    spec: LayerSpec,
    state: Optional[LayerState],
    trace: ForwardTrace,
    grad_out: Tensor,
    input_grad: bool = True,
    previous: Optional[LayerState] = None,
) -> tuple[Optional[Tensor], Optional[LayerState]]:
    """Backpropagate through one layer; returns (grad_input, param grads).

    A trace with a leading batch axis takes a ``grad_out`` with the same
    axis and gives parameter gradients summed over it in image order. With
    ``input_grad=False`` a convolution skips grad_input and returns None.
    A fully connected layer given ``previous``, the gradients an earlier
    call returned, writes its weight gradient into ``previous.weights``;
    without it, into a new array.
    """
    grad_out = as_tensor(grad_out)
    if grad_out.shape != trace.output_shape:
        raise ValueError(
            f"grad_out shape {grad_out.shape} does not match forward "
            f"output {trace.output_shape}"
        )
    g = grad_out
    if trace.dropout_mask is not None:
        g = g * trace.dropout_mask
    y = trace.post_activation
    if y is not None:
        g = g * y
        g *= 1.0 - y

    if spec.kind == CONV:
        grad_input, grad_w, grad_b = conv2d_backward(
            trace.input, state.weights, g, input_grad=input_grad
        )
        return grad_input, LayerState(weights=grad_w, biases=grad_b)
    if spec.kind == POOL:
        mask = pool_argmax(trace.input, y)
        return maxpool2x2_backward(g, mask, trace.input.shape), None
    # FC. Rows are images. The einsum adds the per-image outer products in
    # image order from +0.0; one G.T @ V GEMM would round differently.
    g = g.reshape(-1, state.weights.shape[0])
    v = trace.input.reshape(len(g), -1)
    grad_w = np.einsum("ni,nj->ij", g, v,
                       out=None if previous is None else previous.weights)
    grad_input = np.matmul(state.weights.T, g[:, :, None]).reshape(trace.input.shape)
    return grad_input, LayerState(weights=grad_w, biases=g.sum(axis=0, initial=0.0))


def mse_loss(output: Tensor, target: Tensor) -> tuple[float, Tensor]:
    """Half sum-of-squares loss and its gradient w.r.t. the output."""
    output = as_tensor(output)
    target = as_tensor(target)
    if output.shape != target.shape:
        raise ValueError(
            f"output shape {output.shape} does not match target {target.shape}"
        )
    diff = output - target
    return 0.5 * float(np.dot(diff.ravel(), diff.ravel())), diff
