"""Outside-in tracing of the package for the benchmark's per-layer metrics.

A ``Tracer`` replaces, for the length of a ``with`` block, each name listed in
``TARGETS`` in the namespace of the module that calls it (for example
``blprs.network.layer_forward``, which is what ``network_forward`` looks up),
with a wrapper that records one span per call: calls, inclusive seconds, self
seconds (inclusive minus the time of traced calls made inside it) and an
optional count. On exit every name is put back exactly as it was. The package
itself is not edited.

A target whose module or name no longer exists is skipped and listed in
``absent``; a span never entered simply has no calls, and its metrics read 0.
That keeps the trace working when a rewrite renames or removes a function.
"""
from __future__ import annotations

import functools
import importlib
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("C1", "S1", "C2", "S2", "F1", "F2")
# Input shape of each layer, then the network output: the paper's network on
# 32x32 crops. A layer is named from the trailing dimensions of the array it
# receives, so batched (N, ...) arrays are named the same way.
_SHAPES = ((1, 32, 32), (6, 28, 28), (6, 14, 14), (12, 10, 10), (12, 5, 5), (300,), (16,))
_BY_INPUT = dict(zip(_SHAPES[:-1], LAYERS))
_BY_OUTPUT = dict(zip(_SHAPES[1:], LAYERS))


def _namer(table, index):
    def name(args):
        if len(args) <= index:
            return "other"
        shape = tuple(np.shape(args[index])) if not isinstance(args[index], tuple) else args[index]
        for layer_shape, layer in table.items():
            if shape[-len(layer_shape):] == layer_shape:
                return layer
        return "other"
    return name


def _subcommand(args):
    argv = args[0] if args else None
    return argv[0] if argv else "other"


def _file_bytes(index):
    def count(args):
        return Path(args[index]).stat().st_size
    return count


# (calling module, name there, span, layer namer or None, count or None).
# The benchmark's own calls go through ``blprs.<module>.<name>`` attribute
# lookups, so those rows trace them as well.
TARGETS = (
    ("blprs.layers", "conv2d_valid", "tensor.conv2d_valid", _namer(_BY_INPUT, 0), None),
    ("blprs.layers", "maxpool2x2", "tensor.maxpool2x2", _namer(_BY_INPUT, 0), None),
    ("blprs.layers", "sigmoid_map", "tensor.sigmoid_map", None, None),
    ("blprs.layers", "conv2d_backward", "tensor.conv2d_backward", _namer(_BY_INPUT, 0), None),
    ("blprs.layers", "maxpool2x2_backward", "tensor.maxpool2x2_backward", _namer(_BY_INPUT, 2), None),
    ("blprs.layers", "dropout_mask", "layers.dropout_mask", None, None),
    ("blprs.network", "layer_forward", "layers.forward", _namer(_BY_INPUT, 2), None),
    ("blprs.network", "layer_backward", "layers.backward", _namer(_BY_OUTPUT, 3), None),
    ("blprs.network", "network_forward", "network.forward", None, None),
    ("blprs.training", "network_forward", "network.forward", None, None),
    ("blprs.training", "network_backward", "network.backward", None, None),
    ("blprs.training", "mse_loss", "layers.mse_loss", None, None),
    ("blprs.training", "sgd_update", "training.sgd_update", None, None),
    ("blprs.training", "predict", "network.predict", None, None),
    ("blprs.cli", "predict", "network.predict", None, None),
    ("blprs.network", "predict", "network.predict", None, None),
    ("blprs.training", "train", "training.train", None, None),
    ("blprs.training", "evaluate", "training.evaluate", None, None),
    ("blprs.cli", "generate_synthetic", "data.generate_synthetic", None, None),
    ("blprs.cli", "write_pgm", "data.write_pgm", None, None),
    ("blprs.cli", "read_pnm", "data.read_pnm", None, None),
    ("blprs.data", "read_pnm", "data.read_pnm", None, None),
    ("blprs.cli", "normalize_image", "data.normalize_image", None, None),
    ("blprs.data", "normalize_image", "data.normalize_image", None, None),
    ("blprs.data", "load_dataset_dir", "data.load_dataset_dir", None, None),
    ("blprs.cli", "load_checkpoint", "checkpoint.load", None, _file_bytes(0)),
    ("blprs.checkpoint", "load_checkpoint", "checkpoint.load", None, _file_bytes(0)),
    ("blprs.checkpoint", "save_checkpoint", "checkpoint.save", None, _file_bytes(2)),
    ("blprs.cli", "main", "cli.main", _subcommand, None),
)


class Span:
    __slots__ = ("calls", "total", "self", "count")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.count = 0


class Tracer:
    """Context manager that installs the wrappers on entry and removes them on exit."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: dict[str, Span] = {}
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        self._saved: list = []

    def __enter__(self):
        for module_name, name, span, namer, count in self.targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, name, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{name}")
                continue
            self._saved.append((module, name, original))
            setattr(module, name, self._wrap(original, span, namer, count))
        return self

    def __exit__(self, *exc_info):
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)
        return False

    def _wrap(self, fn, span_name, namer, count):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                key = span_name if namer is None else f"{span_name}.{namer(args)}"
                span = spans.get(key)
                if span is None:
                    span = spans[key] = Span()
                span.calls += 1
                span.total += elapsed
                span.self += elapsed - frame[0]
            if count is not None:
                span.count += count(args)
            return result

        return traced

    def span(self, key: str) -> Span:
        return self.spans.get(key) or Span()


def _per(value, n):
    return value / n if n else 0.0


def layer_metrics(tracer: Tracer, counts) -> dict:
    """Per-layer metrics as {name: value}.

    ``counts`` holds the work done inside the traced block: ``forward``
    (images through a forward pass), ``backward`` (images back-propagated),
    ``eval`` (images evaluated), ``synth`` (images generated) and ``load``
    (images loaded). Time per image divides by these, so the figures stay
    comparable when a batched engine makes fewer, larger calls.
    """
    us = 1e6
    fwd, bwd = counts.get("forward", 0), counts.get("backward", 0)
    sp = tracer.span
    m = {}
    for layer in ("C1", "C2"):
        m[f"tensor.conv2d_valid.{layer}_us"] = _per(sp(f"tensor.conv2d_valid.{layer}").total * us, fwd)
        m[f"tensor.conv2d_backward.{layer}_us"] = _per(sp(f"tensor.conv2d_backward.{layer}").total * us, bwd)
    for layer in ("S1", "S2"):
        m[f"tensor.maxpool2x2.{layer}_us"] = _per(sp(f"tensor.maxpool2x2.{layer}").total * us, fwd)
        m[f"tensor.maxpool2x2_backward.{layer}_us"] = _per(
            sp(f"tensor.maxpool2x2_backward.{layer}").total * us, bwd)
    m["tensor.sigmoid_map.us_per_sample"] = _per(sp("tensor.sigmoid_map").total * us, fwd)
    for layer in LAYERS:
        m[f"layers.forward.{layer}_us"] = _per(sp(f"layers.forward.{layer}").total * us, fwd)
        m[f"layers.backward.{layer}_us"] = _per(sp(f"layers.backward.{layer}").total * us, bwd)
    m["layers.dropout_mask.us_per_sample"] = _per(sp("layers.dropout_mask").total * us, bwd)
    m["layers.mse_loss.us_per_sample"] = _per(sp("layers.mse_loss").total * us, bwd)
    forward_calls = sum(s.calls for k, s in tracer.spans.items() if k.startswith("layers.forward."))
    m["layers.forward.calls_per_sample"] = _per(forward_calls, fwd)
    m["network.forward_us_per_sample"] = _per(sp("network.forward").total * us, fwd)
    m["network.backward_us_per_sample"] = _per(sp("network.backward").total * us, bwd)
    m["network.predict_us"] = _per(sp("network.predict").total * us, sp("network.predict").calls)
    m["training.sgd_update.us_per_batch"] = _per(
        sp("training.sgd_update").total * us, sp("training.sgd_update").calls)
    m["training.train.self_us_per_sample"] = _per(sp("training.train").self * us, bwd)
    m["training.evaluate.self_us_per_sample"] = _per(
        sp("training.evaluate").self * us, counts.get("eval", 0))
    m["data.generate_synthetic.us_per_image"] = _per(
        sp("data.generate_synthetic").total * us, counts.get("synth", 0))
    for name in ("write_pgm", "read_pnm", "normalize_image"):
        s = sp(f"data.{name}")
        m[f"data.{name}.us"] = _per(s.total * us, s.calls)
    m["data.load_dataset_dir.self_us_per_image"] = _per(
        sp("data.load_dataset_dir").self * us, counts.get("load", 0))
    save, load = sp("checkpoint.save"), sp("checkpoint.load")
    m["checkpoint.bytes"] = _per(save.count + load.count, save.calls + load.calls)
    m["checkpoint.save_us"] = _per(save.total * us, save.calls)
    for command, name in (("predict", "cli.main.self_ms"), ("synth", "cli.main.synth_self_ms")):
        s = sp(f"cli.main.{command}")
        m[name] = _per(s.self * 1e3, s.calls)
    return m
