"""The benchmark's tracer still finds and names every span it reports.

``bench/tracing.py`` patches functions by the names the package looks them
up under and names each layer from the shape of one argument. A rewrite that
renames a function or moves an argument leaves the benchmark running but
reading 0 or ``.other`` for that layer; this test fails on it instead.
"""
import importlib.util
from pathlib import Path

import blprs.network
import blprs.training
from blprs.data import LabelMap, SynthSpec, generate_synthetic
from blprs.network import NetworkConfig, build_network
from blprs.training import TrainConfig

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_train_evaluate_and_predict_fill_every_layer_span():
    tracing = _tracing()
    dataset = generate_synthetic(SynthSpec(per_class_count=1, seed=2), LabelMap())
    net = build_network(NetworkConfig(), seed=2)
    with tracing.Tracer() as tracer:
        trained, _ = blprs.training.train(net, dataset, TrainConfig(epochs=1, seed=2))
        blprs.training.evaluate(trained, dataset)
        blprs.network.predict(trained, dataset.samples[0].image)

    assert tracer.absent == []
    expected = ([f"layers.{way}.{layer}" for way in ("forward", "backward")
                 for layer in tracing.LAYERS]
                + [f"tensor.maxpool2x2_backward.{layer}" for layer in ("S1", "S2")])
    assert [key for key in expected if tracer.span(key).calls == 0] == []
    assert [key for key in tracer.spans if key.endswith(".other")] == []
