"""Bit-exact binary serialization of a trained network plus its label map.

File layout (all integers little-endian uint32, floats little-endian
IEEE-754 binary64):

    "BLPR" | version byte 0x01
    config: in_maps, in_h, in_w, conv1_maps, conv2_maps, kernel_size,
            hidden_units, class_count | dropout_rate (float64)
    layer_count, then per parametric layer:
        ndim, dims..., weight floats, bias_count, bias floats
    label_count, then per label: byte_length, UTF-8 bytes

Identical networks serialize to identical bytes, so a load(save(net))
round-trip reproduces every prediction bit-exactly. Loading rejects a file
whose weights or biases hold NaN or +/-inf, naming the file and the layer.
"""
from __future__ import annotations

import math
import os
import struct

import numpy as np

from .data import LabelMap, _atomic_write
from .layers import LayerState
from .network import LAYER_NAMES, Network, NetworkConfig

MAGIC = b"BLPR"
VERSION = 1
_CONFIG = struct.Struct("<8Id")


class CheckpointError(ValueError):
    """Base class for malformed checkpoint files."""


class BadMagicError(CheckpointError):
    pass


class UnsupportedVersionError(CheckpointError):
    pass


class TruncatedCheckpointError(CheckpointError):
    pass


class ShapeMismatchError(CheckpointError):
    pass


def save_checkpoint(net: Network, labels: LabelMap, path) -> None:
    """Serialize network + labels; writes via a temp file, renamed on success."""
    cfg = net.config
    parts = [
        MAGIC,
        bytes([VERSION]),
        _CONFIG.pack(
            *cfg.input_shape, cfg.conv1_maps, cfg.conv2_maps, cfg.kernel_size,
            cfg.hidden_units, cfg.class_count, cfg.dropout_rate,
        ),
    ]
    parametric = [s for s in net.states if s is not None]
    parts.append(struct.pack("<I", len(parametric)))
    for state in parametric:
        w = np.asarray(state.weights, dtype="<f8")
        b = np.asarray(state.biases, dtype="<f8")
        parts.append(struct.pack("<I", w.ndim))
        parts.append(struct.pack(f"<{w.ndim}I", *w.shape))
        parts.append(w.tobytes())
        parts.append(struct.pack("<I", b.size))
        parts.append(b.tobytes())
    parts.append(struct.pack("<I", len(labels)))
    for label in labels.labels:
        encoded = label.encode("utf-8")
        parts.append(struct.pack("<I", len(encoded)))
        parts.append(encoded)
    _atomic_write(path, b"".join(parts))


class _Reader:
    def __init__(self, file, path):
        # Arrays are read from the file straight into their own memory, so
        # each value is copied once.
        self.file = file
        self.size = os.fstat(file.fileno()).st_size
        self.pos = 0
        self.path = path

    def _advance(self, n: int) -> None:
        # Checked before anything is allocated, so a corrupt length cannot
        # ask for more memory than the file holds.
        if self.pos + n > self.size:
            raise TruncatedCheckpointError(
                f"{self.path}: truncated at byte {self.pos} (needed {n} more)"
            )
        self.pos += n

    def take(self, n: int) -> bytes:
        self._advance(n)
        return self.file.read(n)

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def floats(self, *shape: int) -> np.ndarray:
        self._advance(math.prod(shape) * 8)
        values = np.empty(shape, dtype="<f8")
        self.file.readinto(values)
        return values.astype(np.float64, copy=False)


def load_checkpoint(path):
    """Reconstruct (Network, LabelMap) from a checkpoint file."""
    with open(path, "rb") as file:
        return _read_checkpoint(_Reader(file, path), path)


def _read_checkpoint(r: _Reader, path):
    if r.take(4) != MAGIC:
        raise BadMagicError(f"{path}: bad magic, not a checkpoint file")
    version = r.take(1)[0]
    if version != VERSION:
        raise UnsupportedVersionError(f"{path}: unsupported version {version}")

    in_c, in_h, in_w, m1, m2, k, units, classes, dropout = _CONFIG.unpack(
        r.take(_CONFIG.size)
    )
    try:
        config = NetworkConfig(
            input_shape=(in_c, in_h, in_w),
            conv1_maps=m1,
            conv2_maps=m2,
            kernel_size=k,
            hidden_units=units,
            class_count=classes,
            dropout_rate=dropout,
        )
        shapes = config.param_shapes()
    except ValueError as exc:
        raise ShapeMismatchError(f"{path}: config describes no valid network: {exc}")

    layer_count = r.u32()
    expected_count = sum(shape is not None for shape in shapes)
    if layer_count != expected_count:
        raise ShapeMismatchError(
            f"{path}: config implies {expected_count} parametric layers, "
            f"file declares {layer_count}"
        )
    states = []
    for name, shape in zip(LAYER_NAMES, shapes):
        if shape is None:
            states.append(None)
            continue
        ndim = r.u32()
        dims = tuple(r.u32() for _ in range(ndim))
        if dims != shape:
            raise ShapeMismatchError(
                f"{path}: weight shape {dims} does not match config-implied "
                f"{shape}"
            )
        weights = r.floats(*dims)
        bias_count = r.u32()
        if bias_count != shape[0]:
            raise ShapeMismatchError(
                f"{path}: bias count {bias_count} does not match config-implied "
                f"{shape[0]}"
            )
        biases = r.floats(bias_count)
        if not (np.isfinite(weights).all() and np.isfinite(biases).all()):
            raise CheckpointError(f"{path}: layer {name} has NaN or infinite values")
        states.append(LayerState(weights=weights, biases=biases))

    label_bytes = [r.take(r.u32()) for _ in range(r.u32())]
    if r.pos != r.size:
        raise CheckpointError(f"{path}: {r.size - r.pos} trailing bytes")
    try:
        labels = LabelMap(tuple(b.decode("utf-8") for b in label_bytes))
    except ValueError as exc:
        raise CheckpointError(f"{path}: invalid label map: {exc}") from None
    if len(labels) != classes:
        raise ShapeMismatchError(
            f"{path}: config has {classes} classes but {len(labels)} labels"
        )
    return Network(config=config, states=states), labels
