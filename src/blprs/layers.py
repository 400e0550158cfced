"""Layer units composing the kernels into forward/backward passes.

Three layer kinds: convolution (valid 5x5-style), 2x2 max-pooling, and
fully connected. Sigmoid is the only nonlinearity. Dropout is inverted, so
no mask is the identity; ``layer_forward`` draws one exactly when an rng
is given and returns it beside the layer's output, which the next layer
reads times the mask.

``layer_forward`` runs one image. ``layer_backward`` runs one image or a
mini-batch from the values a forward pass keeps: the layer's input, its
output and its mask. Arrays with a leading batch axis give parameter
gradients summed over that batch. Given the gradients an earlier call
returned, it overwrites their fully connected weight array.
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
    """Declares one layer; each convolution and fully connected layer ends in a sigmoid.

    ``out_maps`` is the output feature-map count for convolutions and the
    unit count for fully connected layers; pooling layers ignore it.
    """

    kind: str
    out_maps: Optional[int] = None
    kernel_size: Optional[int] = None
    dropout_rate: float = 0.0

    def __post_init__(self):
        if self.kind not in (CONV, POOL, FC):
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.kind != POOL and (self.out_maps or 0) < 1:
            raise ValueError(f"{self.kind} layer needs out_maps >= 1, got {self.out_maps}")
        if self.kind == CONV and (self.kernel_size or 0) < 1:
            raise ValueError(f"convolution needs kernel_size >= 1, got {self.kernel_size}")
        if self.kind != CONV and self.kernel_size is not None:
            raise ValueError("kernel_size only applies to convolutions")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0,1), got {self.dropout_rate}")

    @property
    def apply_sigmoid(self) -> bool:
        return self.kind != POOL


@dataclass
class LayerState:
    """Trainable weights and biases; also reused as the gradient container."""

    weights: Optional[Tensor] = None
    biases: Optional[np.ndarray] = None


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
) -> tuple[Tensor, Optional[Tensor]]:
    """Run one layer forward; returns its output and its dropout mask.

    The mask is drawn exactly when the layer has dropout and an rng is
    given, and is None otherwise. The next layer reads the output times it.
    """
    x = as_tensor(x)
    if spec.kind == CONV:
        out = conv2d_valid(x, state.weights, state.biases)
    elif spec.kind == POOL:
        out = maxpool2x2(x)
    else:  # FC; a wrong input size fails in the matmul
        out = state.weights @ x.ravel() + state.biases
    if spec.apply_sigmoid:
        out = sigmoid_map(out)
    if spec.dropout_rate > 0.0 and rng is not None:
        return out, dropout_mask(out.shape, spec.dropout_rate, rng)
    return out, None


def layer_backward(
    spec: LayerSpec,
    state: Optional[LayerState],
    x: Tensor,
    grad_out: Tensor,
    y: Optional[Tensor] = None,
    mask: Optional[Tensor] = None,
    input_grad: bool = True,
    previous: Optional[LayerState] = None,
) -> tuple[Optional[Tensor], Optional[LayerState]]:
    """Backpropagate through one layer; returns (grad_input, param grads).

    ``x`` is the layer's input and ``grad_out`` the gradient w.r.t. what
    the next layer read: the output times ``mask``, the layer's dropout
    mask, if it drew one. The derivative of the sigmoid outputs ``y`` is
    taken next, and none without them: a layer passes its own output, and a
    pooling layer its pooled maps, which are then the sigmoid outputs of
    the layer below and give its argmax mask as well.

    Arrays with a leading batch axis give parameter gradients summed over
    it in image order. With ``input_grad=False`` a convolution skips
    grad_input and returns None. A fully connected layer given
    ``previous``, the gradients an earlier call returned, writes its weight
    gradient into ``previous.weights``; without it, into a new array.
    """
    x, grad_out = as_tensor(x), as_tensor(grad_out)
    for held in (y, mask):
        if held is not None and held.shape != grad_out.shape:
            raise ValueError(f"grad_out shape {grad_out.shape} does not match {held.shape}")
    g = grad_out if mask is None else grad_out * mask
    if y is not None:
        g = g * y
        g *= 1.0 - y

    if spec.kind == CONV:
        grad_input, grad_w, grad_b = conv2d_backward(
            x, state.weights, g, input_grad=input_grad
        )
        return grad_input, LayerState(weights=grad_w, biases=grad_b)
    if spec.kind == POOL:
        return maxpool2x2_backward(g, pool_argmax(x, y), x.shape), None
    units, inputs = state.weights.shape
    if g.shape[-1:] != (units,) or g.size // units * inputs != x.size:
        raise ValueError(
            f"grad_out shape {g.shape} does not match {units} units on input {x.shape}"
        )
    # FC. Rows are images. The einsum adds the per-image outer products in
    # image order from +0.0; one G.T @ V GEMM would round differently.
    g = g.reshape(-1, units)
    v = x.reshape(len(g), -1)
    grad_w = np.einsum("ni,nj->ij", g, v,
                       out=None if previous is None else previous.weights)
    grad_input = np.matmul(state.weights.T, g[:, :, None]).reshape(x.shape)
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
