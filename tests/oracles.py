"""Independent reference implementations the fast kernels are checked against.

Everything here is deliberately written as plain nested loops so it shares
no code path with the package under test, except the ``*_where_reference``
kernels and ``generate_synthetic_reference``: verbatim copies of earlier
vectorized code, kept so that the forms that replaced them can be shown to
give the same bytes.
"""
import math

import numpy as np


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
