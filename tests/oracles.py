"""Independent reference implementations the fast kernels are checked against.

Everything here is deliberately written as plain nested loops so it shares
no code path with the package under test, except the ``*_where_reference``
kernels, ``generate_synthetic_reference`` and the ``*_reference`` engine
below: verbatim copies of earlier vectorized code, kept so that the forms
that replaced them can be shown to give the same bytes.
"""
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from blprs.layers import CONV, POOL, LayerState, dropout_mask
from blprs.tensor import (
    conv2d_backward,
    conv2d_valid,
    maxpool2x2,
    maxpool2x2_backward,
    pool_argmax,
    sigmoid_map,
)


def conv2d_reference(x, kernels, biases):
    """Quadruple-nested-loop valid cross-correlation."""
    cout, cin, k, _ = kernels.shape
    _, h, w = x.shape
    oh, ow = h - k + 1, w - k + 1
    out = np.zeros((cout, oh, ow))
    for o in range(cout):
        for y in range(oh):
            for col in range(ow):
                acc = biases[o]
                for c in range(cin):
                    for dy in range(k):
                        for dx in range(k):
                            acc += x[c, y + dy, col + dx] * kernels[o, c, dy, dx]
                out[o, y, col] = acc
    return out


def maxpool_reference(x):
    """Per-window scan of disjoint 2x2 maxima."""
    c, h, w = x.shape
    out = np.zeros((c, h // 2, w // 2))
    for ch in range(c):
        for y in range(h // 2):
            for col in range(w // 2):
                window = x[ch, 2 * y : 2 * y + 2, 2 * col : 2 * col + 2]
                out[ch, y, col] = max(window[0, 0], window[0, 1],
                                      window[1, 0], window[1, 1])
    return out


def maxpool_mask_reference(x):
    """Per-window scan for the (row, col) of the first maximum in row-major order."""
    c, h, w = x.shape
    rows = np.zeros((c, h // 2, w // 2), dtype=np.uint8)
    cols = np.zeros_like(rows)
    for ch in range(c):
        for y in range(h // 2):
            for col in range(w // 2):
                best = None
                for dy in range(2):
                    for dx in range(2):
                        v = x[ch, 2 * y + dy, 2 * col + dx]
                        if best is None or v > best:
                            best = v
                            rows[ch, y, col], cols[ch, y, col] = dy, dx
    return rows, cols


def sigmoid_reference(t):
    """Two-branch logistic: exp(-t) where t >= 0, exp(t) elsewhere, written
    through boolean masks, clamped to the open interval (0, 1)."""
    t = np.ascontiguousarray(t, dtype=np.float64)
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return np.clip(out, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))


def sigmoid_where_reference(t):
    """The sigmoid kernel as it was before the where/clip trim: one shared
    exp(-|t|), the branch picked with np.where, clamped with np.clip."""
    t = np.ascontiguousarray(t, dtype=np.float64)
    e = np.abs(t)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(t >= 0, 1.0, e)
    np.divide(out, e + 1.0, out=out)
    return np.clip(out, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0), out=out)


def _takes(incumbent, challenger):
    """Where ``challenger`` displaces ``incumbent``: it is strictly larger, or
    it is NaN and the incumbent is not."""
    return (incumbent == incumbent) > (incumbent >= challenger)


def maxpool_where_reference(x):
    """The pooling kernel as it was when the forward built the argmax mask:
    (..., C,H,W) -> (out, rows, cols), ties and NaNs to the first in
    row-major order, every choice made with np.where."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    top_left, top_right = x[..., 0::2, 0::2], x[..., 0::2, 1::2]
    bottom_left, bottom_right = x[..., 1::2, 0::2], x[..., 1::2, 1::2]
    top_col = _takes(top_left, top_right)
    top = np.where(top_col, top_right, top_left)
    bottom_col = _takes(bottom_left, bottom_right)
    bottom = np.where(bottom_col, bottom_right, bottom_left)
    row = _takes(top, bottom)
    out = np.where(row, bottom, top)
    col = np.where(row, bottom_col, top_col)
    return out, row, col


def pool_argmax_where_reference(x):
    """``pool_argmax`` as it was before the mask was taken by equality with
    the pooled output: the (rows, cols) of the _takes/np.where scan above."""
    _, rows, cols = maxpool_where_reference(x)
    return rows, cols


def _affine_warp_reference(img, angle_deg, scale, shear, tx_px, ty_px):
    """The one-image glyph warp as it was before images were rendered in
    chunks: every tap clipped into the glyph, then zeroed with np.where."""
    theta = math.radians(angle_deg)
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    shr = np.array([[1.0, shear], [0.0, 1.0]])
    fwd = rot @ shr @ np.array([[scale, 0.0], [0.0, scale]])
    inv = np.linalg.inv(fwd)
    n = img.shape[0]
    center = (n - 1) / 2.0
    ys, xs = np.meshgrid(np.arange(n, dtype=np.float64),
                         np.arange(n, dtype=np.float64), indexing="ij")
    rel = np.stack([xs - center - tx_px, ys - center - ty_px])
    src_x = inv[0, 0] * rel[0] + inv[0, 1] * rel[1] + center
    src_y = inv[1, 0] * rel[0] + inv[1, 1] * rel[1] + center
    x0 = np.floor(src_x).astype(np.intp)
    y0 = np.floor(src_y).astype(np.intp)
    wx = src_x - x0
    wy = src_y - y0
    out = np.zeros_like(img)
    for dy in (0, 1):
        for dx in (0, 1):
            yy, xx = y0 + dy, x0 + dx
            inside = (yy >= 0) & (yy < n) & (xx >= 0) & (xx < n)
            weight = (wy if dy else 1 - wy) * (wx if dx else 1 - wx)
            vals = np.where(inside, img[np.clip(yy, 0, n - 1),
                                        np.clip(xx, 0, n - 1)], 0.0)
            out += weight * vals
    return out


def generate_synthetic_reference(spec, base_glyph, class_count=16):
    """``generate_synthetic`` as it was when every image was warped on its
    own: a list of ((1,32,32) image, class index) pairs."""
    rng = np.random.default_rng(spec.seed)
    samples = []
    for class_index in range(class_count):
        base = base_glyph(class_index)
        for _ in range(spec.per_class_count):
            angle = rng.uniform(*spec.rotation_range_deg)
            scale = rng.uniform(*spec.scale_range)
            tx = rng.uniform(*spec.translate_range_px)
            ty = rng.uniform(*spec.translate_range_px)
            shear = rng.uniform(*spec.shear_range)
            img = _affine_warp_reference(base, angle, scale, shear, tx, ty)
            if spec.noise_std > 0:
                img = img + rng.normal(0.0, spec.noise_std, img.shape)
            samples.append((np.clip(img, 0.0, 1.0)[None, :, :], class_index))
    return samples


# The per-image engine as it was when every forward returned one trace object
# per layer and a mini-batch's traces were stacked for one backward pass. It
# runs on the package's kernels, which the loop oracles above pin, so what it
# pins is the wiring between them: which values are kept, where each sigmoid
# derivative is taken, the dropout draws and the order of every sum.


@dataclass
class ForwardTraceReference:
    """What one layer's backward read: its input, the sigmoid outputs whose
    derivative it took first, its dropout mask and its output shape."""

    input: np.ndarray
    post_activation: Optional[np.ndarray] = None
    dropout_mask: Optional[np.ndarray] = None
    output_shape: tuple = ()


def layer_forward_reference(spec, state, x, rng=None):
    """One layer on one image; returns (output after dropout, trace)."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    trace = ForwardTraceReference(input=x)
    if spec.kind == CONV:
        out = conv2d_valid(x, state.weights, state.biases)
        if spec.apply_sigmoid:
            out = sigmoid_map(out)
            trace.post_activation = out
    elif spec.kind == POOL:
        out = maxpool2x2(x)
    else:
        out = state.weights @ x.ravel() + state.biases
        if spec.apply_sigmoid:
            out = sigmoid_map(out)
            trace.post_activation = out
    if spec.dropout_rate > 0.0 and rng is not None:
        trace.dropout_mask = dropout_mask(out.shape, spec.dropout_rate, rng)
        out = out * trace.dropout_mask
    trace.output_shape = out.shape
    return out, trace


def layer_backward_reference(spec, state, trace, grad_out, input_grad=True, previous=None):
    """One layer's backward on one trace, batched or not; returns
    (grad_input, param grads), the FC weight gradient written into
    ``previous.weights`` when given."""
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
    g = g.reshape(-1, state.weights.shape[0])
    v = trace.input.reshape(len(g), -1)
    grad_w = np.einsum("ni,nj->ij", g, v,
                       out=None if previous is None else previous.weights)
    grad_input = np.matmul(state.weights.T, g[:, :, None]).reshape(trace.input.shape)
    return grad_input, LayerState(weights=grad_w, biases=g.sum(axis=0, initial=0.0))


def network_forward_reference(net, image, rng=None):
    """All six layers on one image; returns (scores, traces). A pooling layer
    takes over the sigmoid output of the convolution below as its pooled
    maps, so the derivative is taken on those."""
    traces = []
    out = np.ascontiguousarray(image, dtype=np.float64)
    for spec, state in zip(net.config.layer_specs, net.states):
        out, trace = layer_forward_reference(spec, state, out, rng)
        if spec.kind == POOL and traces and traces[-1].post_activation is trace.input:
            trace.post_activation, traces[-1].post_activation = out, None
        traces.append(trace)
    return out, traces


def stack_traces_reference(per_image):
    """One trace per layer with every image's values along a leading axis;
    an array two traces share is stacked once."""
    stacked = {}

    def stack(values):
        if values[0] is None:
            return None
        key = tuple(map(id, values))
        if key not in stacked:
            stacked[key] = np.stack(values)
        return stacked[key]

    return [
        ForwardTraceReference(
            input=stack([t.input for t in layer]),
            post_activation=stack([t.post_activation for t in layer]),
            dropout_mask=stack([t.dropout_mask for t in layer]),
            output_shape=(len(layer), *layer[0].output_shape),
        )
        for layer in zip(*per_image)
    ]


def network_backward_reference(net, traces, target, previous=None):
    """Gradients of the half-sum-of-squares loss, summed over a batch."""
    grad = traces[-1].post_activation - target
    grads = [None] * len(traces)
    for i in range(len(traces) - 1, -1, -1):
        grad, grads[i] = layer_backward_reference(
            net.config.layer_specs[i], net.states[i], traces[i], grad,
            input_grad=i > 0, previous=None if previous is None else previous[i],
        )
    return grads


def train_step_reference(net, images, targets, learning_rate, rng, previous=None):
    """One mini-batch of ``train``: per-image forwards, each drawing its
    dropout mask in turn, one backward on the stacked traces that writes
    into ``previous`` when given, the average over the batch, then plain
    SGD on ``net`` in place. Returns the images' losses and the gradients."""
    losses, traces = [], []
    for image, target in zip(images, targets):
        scores, image_traces = network_forward_reference(net, image, rng)
        diff = scores - target
        losses.append(0.5 * float(np.dot(diff.ravel(), diff.ravel())))
        traces.append(image_traces)
    grads = network_backward_reference(net, stack_traces_reference(traces), targets, previous)
    inv = 1.0 / len(images)
    for g in grads:
        if g is not None:
            g.weights *= inv
            g.biases *= inv
    for state, g in zip(net.states, grads):
        if state is not None:
            state.weights -= learning_rate * g.weights
            state.biases -= learning_rate * g.biases
    return losses, grads


def numeric_gradient(f, arr, step=1e-5):
    """Central finite differences of scalar f w.r.t. every entry of arr."""
    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + step
        f_plus = f()
        arr[idx] = orig - step
        f_minus = f()
        arr[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2.0 * step)
    return grad


def gradient_gap(analytic, numeric):
    """Max relative error with a unit floor so near-zero entries compare
    absolutely instead of dividing by noise."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))
