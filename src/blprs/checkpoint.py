"""Bit-exact binary serialization of a trained network plus its label map.

File layout (all integers little-endian uint32, floats little-endian
IEEE-754 binary64):

    "BLPR" | version byte 0x01
    config: in_maps, in_h, in_w, conv1_maps, conv2_maps, kernel_size,
            hidden_units, class_count | dropout_rate (float64)
    layer_count, then per parametric layer:
        ndim, dims..., weight floats, bias_count, bias floats
    label_count, then per label: byte_length, UTF-8 bytes

The config fixes every record but the floats and the label text: loading
checks each, and ``save_checkpoint`` refuses, leaving no file, a network
whose states do not fit the config. Identical networks serialize to
identical bytes, so a load(save(net)) round-trip reproduces every
prediction bit-exactly. Loading rejects NaN or +/-inf weights or biases.
Each error names the file, and the layer at fault.
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
# The config record: the input shape, then these fields in this order.
_CONFIG = struct.Struct("<8Id")
_CONFIG_FIELDS = ("conv1_maps", "conv2_maps", "kernel_size", "hidden_units",
                  "class_count", "dropout_rate")


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


def _u32(*values: int) -> bytes:
    return struct.pack(f"<{len(values)}I", *values)


def _layout(config: NetworkConfig) -> tuple[bytes, list]:
    """The layer-count record, and per layer each array's shape and the u32
    record before its floats: ndim then the dims for the weights, the count
    for the biases. A pooling layer has no arrays."""
    layers = [[] if shape is None else [(shape, _u32(len(shape), *shape)),
                                        (shape[:1], _u32(shape[0]))]
              for shape in config.param_shapes()]
    return _u32(sum(map(bool, layers))), layers


def save_checkpoint(net: Network, labels: LabelMap, path) -> None:
    """Serialize network + labels; writes via a temp file, renamed on success."""
    cfg = net.config
    count, layers = _layout(cfg)
    if len(net.states) != len(layers):
        raise ShapeMismatchError(
            f"{path}: config has {len(layers)} layers, network {len(net.states)} states"
        )
    parts = [
        MAGIC,
        bytes([VERSION]),
        _CONFIG.pack(*cfg.input_shape, *(getattr(cfg, f) for f in _CONFIG_FIELDS)),
        count,
    ]
    for name, layer, state in zip(LAYER_NAMES, layers, net.states):
        arrays = [] if state is None else [
            np.asarray(a, dtype="<f8") for a in (state.weights, state.biases)
        ]
        found, expected = [a.shape for a in arrays], [shape for shape, _ in layer]
        if found != expected:
            raise ShapeMismatchError(f"{path}: layer {name} holds arrays {found}, "
                                     f"config-implied {expected}")
        for (_, record), array in zip(layer, arrays):
            parts += [record, array.tobytes()]
    parts.append(_u32(len(labels)))
    for label in labels.labels:
        encoded = label.encode("utf-8")
        parts += [_u32(len(encoded)), encoded]
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

    def expect(self, record: bytes, what: str) -> None:
        """Read exactly one u32 record the config fixes, and require its bytes."""
        found = self.take(len(record))
        if found != record:
            u32s = f"<{len(record) // 4}I"
            raise ShapeMismatchError(
                f"{self.path}: {what} record {struct.unpack(u32s, found)} does not "
                f"match config-implied {struct.unpack(u32s, record)}"
            )

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

    in_c, in_h, in_w, *fields = _CONFIG.unpack(r.take(_CONFIG.size))
    try:
        config = NetworkConfig((in_c, in_h, in_w), **dict(zip(_CONFIG_FIELDS, fields)))
        count, layers = _layout(config)
    except (ValueError, struct.error) as exc:  # struct.error: a dim past u32
        raise ShapeMismatchError(f"{path}: config describes no valid network: {exc}")

    r.expect(count, "layer count")
    states = []
    for name, layer in zip(LAYER_NAMES, layers):
        arrays = []
        for shape, record in layer:
            r.expect(record, f"layer {name}")
            arrays.append(r.floats(*shape))
        if not all(np.isfinite(a).all() for a in arrays):
            raise CheckpointError(f"{path}: layer {name} has NaN or infinite values")
        states.append(LayerState(*arrays) if arrays else None)

    r.expect(_u32(config.class_count), "label count")
    label_bytes = [r.take(r.u32()) for _ in range(config.class_count)]
    if r.pos != r.size:
        raise CheckpointError(f"{path}: {r.size - r.pos} trailing bytes")
    try:
        labels = LabelMap(tuple(b.decode("utf-8") for b in label_bytes))
    except ValueError as exc:
        raise CheckpointError(f"{path}: invalid label map: {exc}") from None
    return Network(config=config, states=states), labels
