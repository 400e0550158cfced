"""Dense float64 tensors and the raw numeric kernels all layers build on.

Tensors are plain C-contiguous ``numpy.ndarray`` values of dtype float64.
Every operation here is a pure function: valid convolution (stride 1, no
padding, every output map sums over all input maps), disjoint 2x2
max-pooling, whose argmax mask ``pool_argmax`` builds for the backward pass
alone as a ``(rows, cols)`` pair of boolean arrays, and the logistic sigmoid.

Pooling and the backward kernels take images as ``(..., C, H, W)``: a
per-image call has no leading axis and a mini-batch has one. Parameter
gradients are summed over the batch in image order, starting from +0.0.

The mask is taken by equality with the pooled output. The backward pass
keeps every layer's output, the pooled maps among them, and passes those
in, so nothing is pooled twice. A sigmoid's derivative commutes with the
routing: taken on the pooled values and then routed, it gives the bytes
that routing first and differentiating the full map give, on a quarter of
the values.
"""
from __future__ import annotations

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


def _im2col(x: Tensor, k: int) -> np.ndarray:
    """Unfold (..., C,H,W) into (..., C*k*k, OH*OW) matrices of sliding windows."""
    *lead, c, h, w = x.shape
    oh, ow = h - k + 1, w - k + 1
    *lead_strides, s0, s1, s2 = x.strides
    # as_strided's view without its Python layers; needs x C-contiguous.
    windows = np.ndarray((*lead, c, k, k, oh, ow), np.float64, x, 0,
                         (*lead_strides, s0, s1, s2, s1, s2))
    return windows.reshape(*lead, c * k * k, oh * ow)


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

    ``x`` is (..., Cin,H,W) and ``grad_out`` the matching (..., Cout,OH,OW);
    the kernel and bias gradients are summed over the leading axis. With
    ``input_grad=False`` the input gradient is skipped and returned as
    None; the first layer of a network has no use for it.
    """
    x = as_tensor(x)
    kernels = as_tensor(kernels)
    grad_out = as_tensor(grad_out)
    cout, cin, k, _ = kernels.shape
    h, w = x.shape[-2:]
    oh, ow = h - k + 1, w - k + 1
    if grad_out.shape != (*x.shape[:-3], cout, oh, ow):
        raise ValueError(
            f"grad_out shape {grad_out.shape} does not match forward "
            f"output {(*x.shape[:-3], cout, oh, ow)}"
        )
    g = grad_out.reshape(-1, cout, oh * ow)
    cols = _im2col(x.reshape(-1, cin, h, w), k)
    grad_kernels = np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0, initial=0.0)
    grad_kernels = grad_kernels.reshape(kernels.shape)
    grad_biases = g.sum(axis=2).sum(axis=0, initial=0.0)
    if not input_grad:
        return None, grad_kernels, grad_biases
    # Input gradient = full correlation of grad_out with spatially flipped
    # kernels, summed over output maps. One image at a time: the batch's
    # unfolded padded gradients would not stay in cache.
    padded = np.zeros((len(g), cout, oh + 2 * (k - 1), ow + 2 * (k - 1)))
    padded[:, :, k - 1 : k - 1 + oh, k - 1 : k - 1 + ow] = g.reshape(-1, cout, oh, ow)
    flipped = kernels[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(cin, -1)
    grad_input = np.empty((len(g), cin, h * w))
    for image, out in zip(padded, grad_input):
        np.matmul(flipped, _im2col(image, k), out=out)
    return grad_input.reshape(x.shape), grad_kernels, grad_biases


def _quarters(x: Tensor) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """The four strided views of every 2x2 window, in row-major order."""
    if x.ndim < 3 or x.shape[-2] % 2 or x.shape[-1] % 2:
        raise ValueError(f"2x2 pooling needs (..., C,H,W), H and W even; got {x.shape}")
    return (x[..., 0::2, 0::2], x[..., 0::2, 1::2],
            x[..., 1::2, 0::2], x[..., 1::2, 1::2])


def maxpool2x2(x: Tensor) -> Tensor:
    """Disjoint 2x2 max-pooling: (..., C,H,W) -> (..., C,H/2,W/2).

    Ties go to the first maximum in row-major order within the window; a NaN
    counts as the maximum and reaches the output (of several, the last's bits).
    The backward pass's argmax mask is ``pool_argmax`` of the same input.
    """
    top_left, top_right, bottom_left, bottom_right = _quarters(as_tensor(x))
    # On a tie (+0.0 and -0.0 too) np.maximum returns its second operand.
    return np.maximum(np.maximum(bottom_right, bottom_left),
                      np.maximum(top_right, top_left))


def pool_argmax(x: Tensor, pooled: Optional[Tensor] = None) -> tuple[Tensor, Tensor]:
    """The (rows, cols) of each 2x2 window's maximum, chosen as ``maxpool2x2``
    chooses it: the first in row-major order on ties, a NaN over any number.

    ``rows`` and ``cols`` are boolean arrays of the pooled output's shape:
    True marks the bottom row and the right column. The winner is the first
    position equal to the pooled value, or, in a window whose maximum is
    NaN, the first NaN. ``pooled`` is ``maxpool2x2(x)``, for a caller that
    holds it already.
    """
    x = as_tensor(x)
    top_left, top_right, bottom_left, _ = _quarters(x)
    if pooled is None:
        pooled = maxpool2x2(x)
    elif pooled.shape != top_left.shape:
        raise ValueError(f"pooled shape {pooled.shape} does not match {top_left.shape}")

    def holds_max(v):
        held = v == pooled
        held |= v != v  # a NaN: then the window's maximum is NaN as well
        return held

    tl, tr, bl = holds_max(top_left), holds_max(top_right), holds_max(bottom_left)
    # Top-left wins where it holds the maximum, else top-right, else
    # bottom-left, else bottom-right.
    return ~(tl | tr), ~tl & (tr | ~bl)


def maxpool2x2_backward(
    grad_out: Tensor, mask: tuple[Tensor, Tensor], input_shape: Sequence[int]
) -> Tensor:
    """Route each pooled gradient back to its argmax position.

    ``mask`` is ``pool_argmax`` of the forward input, shaped ``input_shape``.
    A sigmoid's derivative may be taken on ``grad_out`` first, at the pooled
    values: every losing position gets +0.0 either way.
    """
    grad_out = as_tensor(grad_out)
    row, col = mask
    *lead, c, h, w = (int(d) for d in input_shape)
    if grad_out.shape != (*lead, c, h // 2, w // 2) or row.shape != grad_out.shape:
        raise ValueError(
            f"grad_out {grad_out.shape} / mask {row.shape} do not match "
            f"input shape {tuple(input_shape)}"
        )
    # np.where, not a product with the mask: the product writes -0.0 where a
    # negative gradient meets a losing position.
    top = np.where(row, 0.0, grad_out)
    bottom = np.where(row, grad_out, 0.0)
    grad_input = np.empty((*lead, c, h, w))
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
    # e <= 1: this is 1.0 where t >= 0, else e (NaN for a NaN t).
    out = np.maximum(e, t >= 0)
    e += 1.0
    np.divide(out, e, out=out)
    np.maximum(out, _SIGMOID_LO, out=out)
    return np.minimum(out, _SIGMOID_HI, out=out)
