"""Dense float64 tensors and the raw numeric kernels all layers build on.

Tensors are plain C-contiguous ``numpy.ndarray`` values of dtype float64.
Every operation here is a pure function: valid convolution (stride 1, no
padding, every output map sums over all input maps), disjoint 2x2
max-pooling with an argmax mask for the backward pass, and the logistic
sigmoid.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

Tensor = np.ndarray

# Open-interval bounds for sigmoid: exp underflow would otherwise return
# exactly 0.0 / 1.0 at extreme inputs.
_SIGMOID_LO = np.nextafter(0.0, 1.0)
_SIGMOID_HI = np.nextafter(1.0, 0.0)


def tensor_create(shape: Sequence[int], values) -> Tensor:
    """Build a row-major float64 tensor from a flat value list or a scalar fill.

    Raises ValueError on non-positive dimensions or a length mismatch.
    """
    shape = tuple(int(d) for d in shape)
    if not shape or any(d < 1 for d in shape):
        raise ValueError(f"dimensions must all be >= 1, got {shape}")
    size = int(np.prod(shape))
    if np.isscalar(values):
        return np.full(shape, float(values), dtype=np.float64)
    flat = np.asarray(values, dtype=np.float64).ravel()
    if flat.size != size:
        raise ValueError(
            f"value count {flat.size} does not match shape {shape} (needs {size})"
        )
    return flat.reshape(shape).copy()


def as_tensor(values) -> Tensor:
    """Coerce to a C-contiguous float64 array without copying when possible."""
    return np.ascontiguousarray(values, dtype=np.float64)


@dataclass(frozen=True)
class ArgmaxMask:
    """Winning (row, col) offset inside each 2x2 pooling window.

    ``rows`` and ``cols`` are boolean arrays of the pooled output's shape:
    True marks the bottom row and the right column.
    """

    rows: np.ndarray
    cols: np.ndarray

    @property
    def shape(self) -> tuple:
        return self.rows.shape


def _im2col(x: Tensor, k: int) -> np.ndarray:
    """Unfold (C,H,W) into the (C*k*k, OH*OW) matrix of sliding windows."""
    c, h, w = x.shape
    oh, ow = h - k + 1, w - k + 1
    s0, s1, s2 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x, shape=(c, k, k, oh, ow), strides=(s0, s1, s2, s1, s2)
    )
    return windows.reshape(c * k * k, oh * ow)


def conv2d_valid(x: Tensor, kernels: Tensor, biases: Sequence[float]) -> Tensor:
    """Valid cross-correlation, stride 1: (Cin,H,W) -> (Cout,H-k+1,W-k+1).

    out[o,y,x] = bias[o] + sum_{c,dy,dx} x[c,y+dy,x+dx] * kernels[o,c,dy,dx]
    """
    x = as_tensor(x)
    kernels = as_tensor(kernels)
    if x.ndim != 3 or kernels.ndim != 4:
        raise ValueError(
            f"expected input (Cin,H,W) and kernels (Cout,Cin,k,k), "
            f"got {x.shape} and {kernels.shape}"
        )
    cout, cin, k, k2 = kernels.shape
    if k != k2:
        raise ValueError(f"kernels must be square, got {k}x{k2}")
    if cin != x.shape[0]:
        raise ValueError(
            f"channel mismatch: input has {x.shape[0]} maps, kernels expect {cin}"
        )
    _, h, w = x.shape
    if k > h or k > w:
        raise ValueError(f"kernel {k}x{k} larger than input {h}x{w}")
    b = np.asarray(biases, dtype=np.float64)
    if b.shape != (cout,):
        raise ValueError(f"need {cout} biases, got shape {b.shape}")
    out = kernels.reshape(cout, -1) @ _im2col(x, k)
    out += b[:, None]
    return out.reshape(cout, h - k + 1, w - k + 1)


def conv2d_backward(
    x: Tensor, kernels: Tensor, grad_out: Tensor, input_grad: bool = True
) -> tuple[Optional[Tensor], Tensor, np.ndarray]:
    """Analytic gradients of conv2d_valid w.r.t. input, kernels and biases.

    With ``input_grad=False`` the input gradient is skipped and returned as
    None; the first layer of a network has no use for it.
    """
    x = as_tensor(x)
    kernels = as_tensor(kernels)
    grad_out = as_tensor(grad_out)
    cout, cin, k, _ = kernels.shape
    oh, ow = x.shape[1] - k + 1, x.shape[2] - k + 1
    if grad_out.shape != (cout, oh, ow):
        raise ValueError(
            f"grad_out shape {grad_out.shape} does not match forward "
            f"output ({cout},{oh},{ow})"
        )
    g = grad_out.reshape(cout, -1)
    grad_kernels = (g @ _im2col(x, k).T).reshape(kernels.shape)
    grad_biases = g.sum(axis=1)
    if not input_grad:
        return None, grad_kernels, grad_biases
    # Input gradient = full correlation of grad_out with spatially flipped
    # kernels, summed over output maps.
    padded = np.zeros((cout, oh + 2 * (k - 1), ow + 2 * (k - 1)))
    padded[:, k - 1 : k - 1 + oh, k - 1 : k - 1 + ow] = grad_out
    flipped = kernels[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(cin, -1)
    grad_input = (flipped @ _im2col(padded, k)).reshape(x.shape)
    return grad_input, grad_kernels, grad_biases


def _quarters(x: Tensor) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """The four strided views of every 2x2 window, in row-major order."""
    return x[:, 0::2, 0::2], x[:, 0::2, 1::2], x[:, 1::2, 0::2], x[:, 1::2, 1::2]


def _takes(incumbent: Tensor, challenger: Tensor) -> np.ndarray:
    """Where ``challenger`` displaces ``incumbent`` under argmax's rule: it is
    strictly larger, or it is NaN and the incumbent is not.

    Both cases are "the incumbent is a number and not >= the challenger";
    on booleans ``a > b`` is ``a and not b``.
    """
    return (incumbent == incumbent) > (incumbent >= challenger)


def maxpool2x2(x: Tensor) -> tuple[Tensor, ArgmaxMask]:
    """Disjoint 2x2 max-pooling: (C,H,W) -> (C,H/2,W/2) plus argmax mask.

    Ties go to the first maximum in row-major order within the window; a NaN
    counts as the maximum, so it reaches the output.
    """
    x = as_tensor(x)
    if x.ndim != 3:
        raise ValueError(f"expected (C,H,W), got shape {x.shape}")
    c, h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"spatial dims must be even for 2x2 pooling, got {h}x{w}")
    top_left, top_right, bottom_left, bottom_right = _quarters(x)
    top_col = _takes(top_left, top_right)
    top = np.where(top_col, top_right, top_left)
    bottom_col = _takes(bottom_left, bottom_right)
    bottom = np.where(bottom_col, bottom_right, bottom_left)
    row = _takes(top, bottom)
    out = np.where(row, bottom, top)
    col = np.where(row, bottom_col, top_col)
    return out, ArgmaxMask(rows=row, cols=col)


def maxpool2x2_backward(
    grad_out: Tensor, mask: ArgmaxMask, input_shape: Sequence[int]
) -> Tensor:
    """Route each pooled gradient back to its recorded argmax position."""
    grad_out = as_tensor(grad_out)
    c, h, w = (int(d) for d in input_shape)
    if grad_out.shape != (c, h // 2, w // 2) or mask.shape != grad_out.shape:
        raise ValueError(
            f"grad_out {grad_out.shape} / mask {mask.shape} do not match "
            f"input shape {(c, h, w)}"
        )
    row, col = mask.rows, mask.cols
    # np.where, not a product with the mask: the product writes -0.0 where a
    # negative gradient meets a losing position.
    top = np.where(row, 0.0, grad_out)
    bottom = np.where(row, grad_out, 0.0)
    grad_input = np.empty((c, h, w))
    top_left, top_right, bottom_left, bottom_right = _quarters(grad_input)
    top_left[...] = np.where(col, 0.0, top)
    top_right[...] = np.where(col, top, 0.0)
    bottom_left[...] = np.where(col, 0.0, bottom)
    bottom_right[...] = np.where(col, bottom, 0.0)
    return grad_input


def sigmoid_map(t: Tensor) -> Tensor:
    """Elementwise logistic 1/(1+exp(-x)), computed in the stable branch form.

    Both branches share e = exp(-|x|): 1/(1+e) for x >= 0 and e/(1+e) below.
    Output is clamped to the largest representable open interval (0,1) so
    saturated values never collapse to exactly 0 or 1.
    """
    t = as_tensor(t)
    e = np.abs(t)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(t >= 0, 1.0, e)
    np.divide(out, e + 1.0, out=out)
    return np.clip(out, _SIGMOID_LO, _SIGMOID_HI, out=out)
