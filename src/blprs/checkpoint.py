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
round-trip reproduces every prediction bit-exactly.
"""
from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .data import LabelMap, _atomic_write
from .layers import LayerState
from .network import Network, NetworkConfig

MAGIC = b"BLPR"
VERSION = 1


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
    parts = [MAGIC, bytes([VERSION])]
    parts.append(
        struct.pack(
            "<8I",
            cfg.input_shape[0], cfg.input_shape[1], cfg.input_shape[2],
            cfg.conv1_maps, cfg.conv2_maps, cfg.kernel_size,
            cfg.hidden_units, cfg.class_count,
        )
    )
    parts.append(struct.pack("<d", cfg.dropout_rate))
    parametric = [s for s in net.states if s is not None]
    parts.append(struct.pack("<I", len(parametric)))
    for state in parametric:
        w = np.ascontiguousarray(state.weights, dtype=np.float64)
        b = np.ascontiguousarray(state.biases, dtype=np.float64)
        parts.append(struct.pack("<I", w.ndim))
        parts.append(struct.pack(f"<{w.ndim}I", *w.shape))
        parts.append(w.astype("<f8").tobytes())
        parts.append(struct.pack("<I", b.size))
        parts.append(b.astype("<f8").tobytes())
    parts.append(struct.pack("<I", len(labels)))
    for label in labels.labels:
        encoded = label.encode("utf-8")
        parts.append(struct.pack("<I", len(encoded)))
        parts.append(encoded)
    _atomic_write(path, b"".join(parts))


class _Reader:
    def __init__(self, raw: bytes, path):
        self.raw = raw
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.raw):
            raise TruncatedCheckpointError(
                f"{self.path}: truncated at byte {self.pos} (needed {n} more)"
            )
        chunk = self.raw[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def floats(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take(count * 8), dtype="<f8").astype(np.float64)


def load_checkpoint(path):
    """Reconstruct (Network, LabelMap) from a checkpoint file."""
    raw = Path(path).read_bytes()
    r = _Reader(raw, path)
    if r.take(4) != MAGIC:
        raise BadMagicError(f"{path}: bad magic, not a checkpoint file")
    version = r.take(1)[0]
    if version != VERSION:
        raise UnsupportedVersionError(f"{path}: unsupported version {version}")

    in_c, in_h, in_w, m1, m2, k, units, classes = (r.u32() for _ in range(8))
    dropout = r.f64()
    config = NetworkConfig(
        input_shape=(in_c, in_h, in_w),
        conv1_maps=m1,
        conv2_maps=m2,
        kernel_size=k,
        hidden_units=units,
        class_count=classes,
        dropout_rate=dropout,
    )
    try:
        shapes = config.param_shapes()
        config.layer_specs()
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
    for shape in shapes:
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
        weights = r.floats(int(np.prod(dims))).reshape(dims)
        bias_count = r.u32()
        if bias_count != shape[0]:
            raise ShapeMismatchError(
                f"{path}: bias count {bias_count} does not match config-implied "
                f"{shape[0]}"
            )
        biases = r.floats(bias_count)
        states.append(LayerState(weights=weights, biases=biases))

    label_bytes = [r.take(r.u32()) for _ in range(r.u32())]
    if r.pos != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - r.pos} trailing bytes")
    try:
        labels = LabelMap(tuple(b.decode("utf-8") for b in label_bytes))
    except ValueError as exc:
        raise CheckpointError(f"{path}: invalid label map: {exc}") from None
    if len(labels) != classes:
        raise ShapeMismatchError(
            f"{path}: config has {classes} classes but {len(labels)} labels"
        )
    return Network(config=config, states=states), labels
