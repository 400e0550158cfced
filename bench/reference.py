"""Independent reference for the benchmark's correctness checks.

Plain numpy, importing nothing from ``blprs``: a batched forward pass of the
six-layer network (C1-S1-C2-S2-F1-F2, sigmoid after every convolution and
fully connected layer, no dropout), a reader for the ``BLPR`` v1 checkpoint
layout and a reader for the 8-bit binary PGM files the CLI writes.

The convolution sums shifted slices kernel tap by kernel tap instead of
unfolding windows into a matrix, and the sigmoid uses the tanh form, so the
arithmetic shares no code and little summation order with the package.
Scores agree with the package to within ``TOL``.
"""
from __future__ import annotations

import re
import struct
from pathlib import Path

import numpy as np

# Largest absolute score difference accepted between the package and this
# reference. Float64 forward passes that differ only in summation order agree
# to ~1e-15; 1e-9 leaves room for that and still catches any real change.
TOL = 1e-9


def sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def conv_valid(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(N,C,H,W) * (O,C,k,k) -> (N,O,H-k+1,W-k+1), stride 1, no padding."""
    n, _, h, wd = x.shape
    o, _, k, _ = w.shape
    oh, ow = h - k + 1, wd - k + 1
    out = np.broadcast_to(b[None, :, None, None], (n, o, oh, ow)).copy()
    for dy in range(k):
        for dx in range(k):
            out += np.einsum("nchw,oc->nohw", x[:, :, dy:dy + oh, dx:dx + ow], w[:, :, dy, dx])
    return out


def maxpool(x: np.ndarray) -> np.ndarray:
    n, c, h, w = x.shape
    return x.reshape(n, c, h // 2, 2, w // 2, 2).max(axis=(3, 5))


def forward(params, images: np.ndarray) -> np.ndarray:
    """Class scores (N,16) for images (N,1,32,32); params is
    [(W_C1, b_C1), (W_C2, b_C2), (W_F1, b_F1), (W_F2, b_F2)]."""
    (w1, b1), (w2, b2), (w3, b3), (w4, b4) = params
    x = np.asarray(images, dtype=np.float64)
    x = maxpool(sigmoid(conv_valid(x, w1, b1)))
    x = maxpool(sigmoid(conv_valid(x, w2, b2)))
    x = sigmoid(x.reshape(len(x), -1) @ w3.T + b3)
    return sigmoid(x @ w4.T + b4)


def confident(scores: np.ndarray) -> np.ndarray:
    """True where the top-two margin exceeds TOL, i.e. where the argmax is
    decided by more than rounding."""
    top2 = np.sort(scores, axis=1)[:, -2:]
    return top2[:, 1] - top2[:, 0] > TOL


def read_blpr(path):
    """Parse a ``BLPR`` v1 checkpoint into (params, labels)."""
    raw = Path(path).read_bytes()
    if raw[:5] != b"BLPR\x01":
        raise ValueError(f"{path}: not a BLPR v1 checkpoint")
    pos = 5

    def take(fmt):
        nonlocal pos
        values = struct.unpack_from(fmt, raw, pos)
        pos += struct.calcsize(fmt)
        return values

    take("<8Id")  # config; the shapes below carry everything the forward needs
    (layers,) = take("<I")
    params = []
    for _ in range(layers):
        (ndim,) = take("<I")
        dims = take(f"<{ndim}I")
        w = np.frombuffer(raw, "<f8", int(np.prod(dims)), pos).reshape(dims)
        pos += w.nbytes
        (nb,) = take("<I")
        b = np.frombuffer(raw, "<f8", nb, pos)
        pos += b.nbytes
        params.append((w.astype(np.float64), b.astype(np.float64)))
    (count,) = take("<I")
    labels = []
    for _ in range(count):
        (length,) = take("<I")
        labels.append(raw[pos:pos + length].decode("utf-8"))
        pos += length
    if pos != len(raw):
        raise ValueError(f"{path}: {len(raw) - pos} trailing bytes")
    return params, labels


def read_pgm(path) -> np.ndarray:
    """Read an 8-bit binary PGM with a comment-free header as (1,H,W) in [0,1]."""
    raw = Path(path).read_bytes()
    header = re.match(rb"P5\s+(\d+)\s+(\d+)\s+255\s", raw)
    if header is None:
        raise ValueError(f"{path}: not an 8-bit binary PGM")
    w, h = int(header[1]), int(header[2])
    pixels = np.frombuffer(raw, np.uint8, w * h, header.end())
    return pixels.reshape(1, h, w) / 255.0
