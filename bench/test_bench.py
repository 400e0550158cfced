"""Tests of the benchmark's own parts: the reference forward pass, the
correctness checks and the tracer. Run from the checkout root with

    python3 -m pytest bench/test_bench.py
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import _env  # noqa: E402,F401

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import blprs.checkpoint  # noqa: E402
import blprs.data  # noqa: E402
import blprs.layers  # noqa: E402
import blprs.network  # noqa: E402
import reference  # noqa: E402
import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def net():
    """A random network with non-zero biases, so every term of the forward
    pass matters."""
    rng = np.random.default_rng(5)
    net = blprs.network.build_network(blprs.network.NetworkConfig(), seed=7)
    for state in net.states:
        if state is not None:
            state.biases = rng.normal(0.0, 0.5, state.biases.shape)
    return net


@pytest.fixture
def images():
    return np.random.default_rng(11).random((12, 1, 32, 32))


def params_of(net):
    return [(s.weights, s.biases) for s in net.states if s is not None]


def predict_all(net, images):
    return np.stack([blprs.network.predict(net, image)[1] for image in images])


def test_reference_forward_matches_package_on_random_network(net, images):
    ref = reference.forward(params_of(net), images)
    ours = predict_all(net, images)
    assert np.max(np.abs(ours - ref)) <= reference.TOL
    assert np.array_equal(ours.argmax(axis=1), ref.argmax(axis=1))


def test_reference_reads_checkpoint_and_pgm(net, tmp_path):
    labels = blprs.data.LabelMap()
    path = tmp_path / "net.blpr"
    blprs.checkpoint.save_checkpoint(net, labels, path)
    params, names = reference.read_blpr(path)
    assert names == list(labels.labels)
    for (w, b), (rw, rb) in zip(params_of(net), params):
        assert w.tobytes() == rw.tobytes() and b.tobytes() == rb.tobytes()

    # Pixel values that are whitespace bytes must not confuse the header parse.
    pixels = np.arange(32 * 32).reshape(32, 32) % 256
    pixels[0, :4] = (9, 10, 13, 32)
    blprs.data.write_pgm(tmp_path / "x.pgm", pixels)
    expected = blprs.data.normalize_image(blprs.data.read_pnm(tmp_path / "x.pgm"))
    assert np.array_equal(reference.read_pgm(tmp_path / "x.pgm"), expected)


def _perturbed(fn):
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        if isinstance(out, tuple):
            return (out[0] * (1 - 1e-6),) + out[1:]
        return out * (1 - 1e-6)
    return wrapper


@pytest.mark.parametrize("kernel", ["conv2d_valid", "maxpool2x2", "sigmoid_map"])
def test_score_check_fails_when_a_kernel_is_perturbed(kernel, net, images, tmp_path, monkeypatch):
    run = workloads.Run(0, tmp_path)
    workloads.check_scores(run, params_of(net), images,
                           workloads.measure_predict(run, net, images), "clean")
    assert run.problems == []

    monkeypatch.setattr(blprs.layers, kernel, _perturbed(getattr(blprs.layers, kernel)))
    workloads.check_scores(run, params_of(net), images,
                           workloads.measure_predict(run, net, images), "perturbed")
    assert any("perturbed" in p for p in run.problems)


def test_accuracy_check_fails_when_accuracy_disagrees(tmp_path):
    ref = np.eye(16)[np.arange(32) % 16]
    labels = np.arange(32) % 16
    run = workloads.Run(0, tmp_path)
    workloads.check_accuracy(run, 100.0, ref, labels, "same")
    assert run.problems == []
    workloads.check_accuracy(run, 96.875, ref, labels, "one off")
    assert any("one off" in p for p in run.problems)


def _namespaces():
    modules = {t[0] for t in tracing.TARGETS}
    return {m: dict(vars(sys.modules[m])) for m in modules}


def test_tracer_restores_every_name(net, images):
    before = _namespaces()
    with pytest.raises(RuntimeError):
        with tracing.Tracer() as tracer:
            assert blprs.network.layer_forward is not before["blprs.network"]["layer_forward"]
            blprs.network.predict(net, images[0])
            raise RuntimeError("leave the block early")
    after = _namespaces()
    assert before.keys() == after.keys()
    for module, names in before.items():
        assert names.keys() == after[module].keys()
        assert all(after[module][k] is v for k, v in names.items()), module
    assert tracer.spans["layers.forward.C1"].calls == 1


def test_tracer_reports_missing_targets_as_absent(net, images):
    extra = (("blprs.network", "no_such_function", "x", None, None),
             ("blprs.no_such_module", "f", "y", None, None))
    before = _namespaces()
    with tracing.Tracer(tracing.TARGETS + extra) as tracer:
        blprs.network.predict(net, images[0])
    assert tracer.absent == ["blprs.network.no_such_function", "blprs.no_such_module.f"]
    assert not hasattr(blprs.network, "no_such_function")
    assert _namespaces() == before


def test_tracer_names_layers_and_splits_self_time(net, images):
    with tracing.Tracer() as tracer:
        for image in images[:2]:
            blprs.network.predict(net, image)
    for layer in tracing.LAYERS:
        assert tracer.spans[f"layers.forward.{layer}"].calls == 2
    for kernel, layers in (("conv2d_valid", ("C1", "C2")), ("maxpool2x2", ("S1", "S2"))):
        for layer in layers:
            assert tracer.spans[f"tensor.{kernel}.{layer}"].calls == 2
    forward = tracer.spans["network.forward"]
    assert 0.0 < forward.self < forward.total
    metrics = tracing.layer_metrics(tracer, {"forward": 2})
    assert metrics["layers.forward.calls_per_sample"] == 6
    assert metrics["tensor.conv2d_backward.C1_us"] == 0.0


def _result(capsys, argv):
    assert bench_run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["train", "recognize", "ingest"])
def test_workload_runs_correct_and_reports_every_metric(workload, capsys):
    spec = json.loads(bench_run.SPEC.read_text())
    result = _result(capsys, ["--workload", workload, "--seed", "3", "--seconds", "0.1"])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric(capsys):
    spec = json.loads(bench_run.SPEC.read_text())
    result = _result(capsys, ["--workload", "recognize", "--seed", "3", "--seconds", "0.1",
                              "--trace", "1"])
    assert result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in spec["per_layer"]]
    assert result["metrics"]["layers.forward.calls_per_sample"]["value"] == 6
