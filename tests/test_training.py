import copy
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blprs
import blprs.training as training_module
from blprs.checkpoint import save_checkpoint
from blprs.data import Dataset, LabelMap, Sample, SynthSpec, generate_synthetic
from blprs.layers import LayerState
from blprs.network import NetworkConfig, build_network, predict
from blprs.training import (
    DivergenceError,
    TrainConfig,
    evaluate,
    sgd_update,
    split_dataset,
    train,
)
from oracles import network_forward_reference, train_step_reference

SMALL_NET = NetworkConfig(dropout_rate=0.5)


def _uniform_dataset(per_class, classes=16, seed=0):
    rng = np.random.default_rng(seed)
    samples = [
        Sample(rng.random((1, 32, 32)), c)
        for c in range(classes)
        for _ in range(per_class)
    ]
    return Dataset(samples=samples, labels=LabelMap())


class TestSplitDataset:
    def test_seventy_thirty(self):
        # ten populated classes of ten inside the 16-way label map
        ds = _uniform_dataset(10, classes=10)
        train_set, test_set = split_dataset(ds, 0.7, seed=1)
        assert len(train_set) == 70
        assert len(test_set) == 30

    def test_per_class_nine_one(self):
        ds = _uniform_dataset(10)
        train_set, test_set = split_dataset(ds, 0.9, seed=2)
        for c in range(16):
            assert sum(s.class_index == c for s in train_set.samples) == 9
            assert sum(s.class_index == c for s in test_set.samples) == 1

    def test_deterministic(self):
        ds = _uniform_dataset(7)
        a_train, a_test = split_dataset(ds, 0.8, seed=3)
        b_train, b_test = split_dataset(ds, 0.8, seed=3)
        assert all(np.array_equal(x.image, y.image)
                   for x, y in zip(a_train.samples, b_train.samples))
        assert all(np.array_equal(x.image, y.image)
                   for x, y in zip(a_test.samples, b_test.samples))

    def test_partition_is_exact(self):
        ds = _uniform_dataset(5, seed=9)
        train_set, test_set = split_dataset(ds, 0.6, seed=4)
        assert len(train_set) + len(test_set) == len(ds)
        seen = {id(s) for s in train_set.samples} | {id(s) for s in test_set.samples}
        assert len(seen) == len(ds)

    def test_proportions_within_one_sample(self):
        ds = _uniform_dataset(13, seed=5)
        for fraction in (0.3, 0.5, 0.7, 0.9):
            train_set, _ = split_dataset(ds, fraction, seed=6)
            for c in range(16):
                got = sum(s.class_index == c for s in train_set.samples)
                assert abs(got - 13 * fraction) <= 1.0

    def test_tiny_class_rejected(self):
        samples = [Sample(np.zeros((1, 32, 32)), 0),
                   Sample(np.zeros((1, 32, 32)), 0),
                   Sample(np.zeros((1, 32, 32)), 1)]
        ds = Dataset(samples=samples, labels=LabelMap())
        with pytest.raises(ValueError, match="class 1"):
            split_dataset(ds, 0.5, seed=0)

    def test_bad_fraction_rejected(self):
        ds = _uniform_dataset(4)
        for f in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                split_dataset(ds, f, seed=0)


class TestSgdUpdate:
    # sgd_update changes the net it is given, so each case updates a copy
    # and compares it against the untouched original.
    def test_zero_learning_rate_is_identity(self):
        net = build_network(SMALL_NET, 1)
        grads = [
            None if s is None else LayerState(np.ones_like(s.weights),
                                              np.ones_like(s.biases))
            for s in net.states
        ]
        updated = sgd_update(copy.deepcopy(net), grads, 0.0)
        for a, b in zip(net.states, updated.states):
            if a is not None:
                assert np.array_equal(a.weights, b.weights)
                assert np.array_equal(a.biases, b.biases)

    def test_single_step_arithmetic(self):
        net = build_network(SMALL_NET, 2)
        net.states[0].weights[0, 0, 0, 0] = 1.0
        grads = [
            None if s is None else LayerState(np.zeros_like(s.weights),
                                              np.zeros_like(s.biases))
            for s in net.states
        ]
        grads[0].weights[0, 0, 0, 0] = 0.5
        updated = sgd_update(copy.deepcopy(net), grads, 1.0)
        assert updated.states[0].weights[0, 0, 0, 0] == 0.5

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(7)
        net = build_network(SMALL_NET, 3)
        grads = [
            None if s is None else LayerState(rng.standard_normal(s.weights.shape),
                                              rng.standard_normal(s.biases.shape))
            for s in net.states
        ]
        lr = 0.37
        updated = sgd_update(copy.deepcopy(net), grads, lr)
        for s, g, u in zip(net.states, grads, updated.states):
            if s is None:
                continue
            assert np.max(np.abs(u.weights - (s.weights - lr * g.weights))) < 1e-15
            assert np.max(np.abs(u.biases - (s.biases - lr * g.biases))) < 1e-15

    def test_updates_the_given_arrays_in_place(self):
        net = build_network(SMALL_NET, 6)
        arrays = [a for s in net.states if s is not None for a in (s.weights, s.biases)]
        grads = [
            None if s is None else LayerState(np.ones_like(s.weights),
                                              np.ones_like(s.biases))
            for s in net.states
        ]
        assert sgd_update(net, grads, 0.25) is net
        after = [a for s in net.states if s is not None for a in (s.weights, s.biases)]
        assert all(a is b for a, b in zip(arrays, after))

    def test_two_half_steps_equal_one_full_step(self):
        # dyadic values (k/1024) with a power-of-two rate keep every IEEE
        # operation exact, so the linearity identity holds bitwise
        rng = np.random.default_rng(8)
        net = build_network(SMALL_NET, 4)
        for s in net.states:
            if s is not None:
                s.weights[:] = rng.integers(-1024, 1025, s.weights.shape) / 1024.0
                s.biases[:] = rng.integers(-1024, 1025, s.biases.shape) / 1024.0
        grads = [
            None if s is None else LayerState(
                rng.integers(-1024, 1025, s.weights.shape) / 1024.0,
                rng.integers(-1024, 1025, s.biases.shape) / 1024.0,
            )
            for s in net.states
        ]
        lr = 0.5
        once = sgd_update(copy.deepcopy(net), grads, lr)
        twice = sgd_update(sgd_update(copy.deepcopy(net), grads, lr / 2), grads, lr / 2)
        for a, b in zip(once.states, twice.states):
            if a is not None:
                assert np.array_equal(a.weights, b.weights)
                assert np.array_equal(a.biases, b.biases)

    def test_shape_mismatch_rejected(self):
        net = build_network(SMALL_NET, 5)
        before = copy.deepcopy(net)
        grads = [
            None if s is None else LayerState(np.ones_like(s.weights),
                                              np.ones_like(s.biases))
            for s in net.states
        ]
        grads[-1] = LayerState(np.zeros((1, 1)), np.zeros(1))
        with pytest.raises(ValueError):
            sgd_update(net, grads, 0.1)
        # the check runs before any array changes
        for a, b in zip(net.states, before.states):
            if a is not None:
                assert np.array_equal(a.weights, b.weights)
                assert np.array_equal(a.biases, b.biases)

    @pytest.mark.parametrize("count", [0, 3, 5, 7])
    def test_wrong_gradient_count_rejected(self, count):
        # Pairing must not stop at the shorter list: three gradients would
        # update C1 and C2 alone.
        net = build_network(SMALL_NET, 9)
        before = copy.deepcopy(net)
        grads = [
            None if s is None else LayerState(np.ones_like(s.weights),
                                              np.ones_like(s.biases))
            for s in net.states
        ]
        with pytest.raises(ValueError):
            sgd_update(net, (grads * 2)[:count], 0.1)
        for a, b in zip(net.states, before.states):
            if a is not None:
                assert np.array_equal(a.weights, b.weights)
                assert np.array_equal(a.biases, b.biases)


class TestTrain:
    def _tiny_run(self, epochs, seed=42):
        ds = generate_synthetic(SynthSpec(per_class_count=3, seed=1), LabelMap())
        net = build_network(SMALL_NET, seed)
        tc = TrainConfig(epochs=epochs, batch_size=8, seed=seed)
        return train(net, ds, tc)

    def test_report_lengths_match_epochs(self):
        _, report = self._tiny_run(epochs=5)
        assert len(report.per_epoch_error) == 5
        assert len(report.per_epoch_seconds) == 5

    def test_average_time_identity(self):
        _, report = self._tiny_run(epochs=4)
        assert report.avg_seconds_per_epoch == report.total_seconds / 4
        assert report.final_train_error == report.per_epoch_error[-1]

    def test_errors_nonnegative(self):
        _, report = self._tiny_run(epochs=3)
        assert all(e >= 0.0 for e in report.per_epoch_error)

    def test_bit_deterministic(self):
        net_a, rep_a = self._tiny_run(epochs=3, seed=11)
        net_b, rep_b = self._tiny_run(epochs=3, seed=11)
        assert rep_a.per_epoch_error == rep_b.per_epoch_error
        for a, b in zip(net_a.states, net_b.states):
            if a is not None:
                assert np.array_equal(a.weights, b.weights)
                assert np.array_equal(a.biases, b.biases)

    def test_input_network_left_bit_identical(self):
        ds = generate_synthetic(SynthSpec(per_class_count=2, seed=5), LabelMap())
        net = build_network(NetworkConfig(), seed=8)
        before = copy.deepcopy(net)
        trained, _ = train(net, ds, TrainConfig(epochs=2, seed=5))
        for a, b, t in zip(net.states, before.states, trained.states):
            if a is not None:
                assert a.weights.tobytes() == b.weights.tobytes()
                assert a.biases.tobytes() == b.biases.tobytes()
                assert not np.array_equal(t.weights, a.weights)

    def test_two_epochs_match_golden_checkpoint_and_losses(self, tmp_path):
        # Any change to summation order, the dropout draw or the update rule
        # moves these bytes.
        ds = generate_synthetic(SynthSpec(per_class_count=2, seed=1), LabelMap())
        net, report = train(build_network(NetworkConfig(), seed=42), ds,
                            TrainConfig(epochs=2, seed=1))
        assert report.per_epoch_error == [
            float.fromhex("0x1.0725a239250a4p+0"),  # 1.0279179944528005
            float.fromhex("0x1.fd523563b7086p-2"),  # 0.4973839132414998
        ]
        path = tmp_path / "trained.blpr"
        save_checkpoint(net, ds.labels, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "a6af7d3e5d23ebb7119a58a74b2e609640b50491730c74ee483bc1b26e9d30f1"
        )

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_golden_bytes_hold_for_blas_threads(self, threads):
        # Stacked GEMMs may split across BLAS threads differently, so the
        # golden tests are rerun in a fresh process pinned to each count.
        tests = Path(__file__).resolve().parent
        src = str(Path(blprs.__file__).resolve().parent.parent)
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             f"{tests / 'test_training.py'}::TestTrain::"
             "test_two_epochs_match_golden_checkpoint_and_losses",
             f"{tests / 'test_network.py'}::TestBuildNetwork::"
             "test_checkpoint_of_seed_42_matches_golden_bytes",
             f"{tests / 'test_network.py'}::TestPredict::"
             "test_scores_of_seed_42_match_golden_bytes"],
            cwd=tests.parent, env=env, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "3 passed" in result.stdout

    def test_loss_decreases_on_learnable_set(self):
        ds = generate_synthetic(SynthSpec(per_class_count=6, seed=2), LabelMap())
        net = build_network(NetworkConfig(dropout_rate=0.0), 42)
        tc = TrainConfig(epochs=45, batch_size=1, seed=42)
        _, report = train(net, ds, tc)
        e = report.per_epoch_error
        assert e[-1] < 0.5 * e[0]

    @pytest.mark.filterwarnings("error")
    def test_divergence_names_the_epoch(self):
        ds = generate_synthetic(SynthSpec(per_class_count=2, seed=1), LabelMap())
        net = build_network(NetworkConfig(), 1)
        with pytest.raises(DivergenceError, match="epoch 1 "):
            train(net, ds, TrainConfig(epochs=3, learning_rate=1e300))

    def test_a_reduced_network_trains_on_samples(self):
        config = NetworkConfig(input_shape=(1, 16, 16), conv1_maps=2, conv2_maps=4,
                               hidden_units=20, class_count=4)
        rng = np.random.default_rng(3)
        ds = Dataset([Sample(rng.random((1, 16, 16)), c % 4) for c in range(12)],
                     LabelMap())
        net, report = train(build_network(config, 3), ds,
                            TrainConfig(epochs=2, batch_size=4, seed=3))
        assert len(report.per_epoch_error) == 2
        assert np.isfinite(report.per_epoch_error).all()
        assert evaluate(net, ds).sample_count == 12

    def test_samples_of_another_shape_name_both_shapes(self):
        ds = Dataset([Sample(np.zeros((1, 16, 16)), c) for c in range(4)], LabelMap())
        net = build_network(NetworkConfig(), 1)
        both = re.escape("expected input shape (1, 32, 32), got (1, 16, 16)")
        with pytest.raises(ValueError, match=both):
            train(net, ds, TrainConfig(epochs=1, batch_size=2))
        with pytest.raises(ValueError, match=both):
            evaluate(net, ds)

    def test_empty_dataset_rejected(self):
        net = build_network(SMALL_NET, 1)
        ds = Dataset(samples=[], labels=LabelMap())
        with pytest.raises(ValueError, match="empty"):
            train(net, ds, TrainConfig(epochs=1))

    def test_oversized_batch_rejected(self):
        net = build_network(SMALL_NET, 1)
        ds = _uniform_dataset(1)
        with pytest.raises(ValueError, match="batch size"):
            train(net, ds, TrainConfig(epochs=1, batch_size=100))

    def test_config_validation(self):
        for kwargs in (
            dict(epochs=0),
            dict(epochs=1, learning_rate=-1.0),
            dict(epochs=1, learning_rate=0.0),
            dict(epochs=1, learning_rate=float("nan")),
            dict(epochs=1, learning_rate=float("inf")),
            dict(epochs=1, learning_rate=float("-inf")),
            dict(epochs=1, batch_size=0),
            dict(epochs=1, seed=-1),
        ):
            with pytest.raises(ValueError):
                TrainConfig(**kwargs)


class TestPreviousBatchGradients:
    """``train`` writes each batch's fully connected weight gradients over the
    previous batch's, and one call never reuses another call's."""

    def _spy(self, monkeypatch):
        calls = []
        backward = training_module.network_backward

        def spy(net, traces, targets, *args, **kwargs):
            grads = backward(net, traces, targets, *args, **kwargs)
            calls.append([grads[4].weights, grads[5].weights])
            return grads

        monkeypatch.setattr(training_module, "network_backward", spy)
        return calls

    def test_every_batch_of_a_call_reuses_the_same_arrays(self, monkeypatch):
        calls = self._spy(monkeypatch)
        ds = _uniform_dataset(2)  # 32 images: batches of 10, 10, 10 and 2
        train(build_network(NetworkConfig(), 3), ds, TrainConfig(epochs=2, seed=3))
        assert len(calls) == 8
        for weights in calls[1:]:
            assert all(a is b for a, b in zip(weights, calls[0]))
        assert not np.shares_memory(*calls[0])

    def test_a_call_never_writes_over_an_earlier_calls_gradients(self, monkeypatch):
        calls = self._spy(monkeypatch)
        ds = _uniform_dataset(1)
        net = build_network(NetworkConfig(), 4)
        train(net, ds, TrainConfig(epochs=1, seed=4))
        train(net, ds, TrainConfig(epochs=1, seed=4))
        first, second = calls[0], calls[len(calls) // 2]
        assert not any(np.shares_memory(a, b) for a in first for b in second)

    def test_two_calls_give_the_same_bytes(self):
        ds = _uniform_dataset(2, seed=5)
        net = build_network(NetworkConfig(), 5)
        config = TrainConfig(epochs=2, batch_size=7, seed=5)
        (a, report_a), (b, report_b) = train(net, ds, config), train(net, ds, config)
        assert report_a.per_epoch_error == report_b.per_epoch_error
        for sa, sb in zip(a.states, b.states):
            if sa is not None:
                assert sa.weights.tobytes() == sb.weights.tobytes()
                assert sa.biases.tobytes() == sb.biases.tobytes()

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="ru_minflt counts minor page faults on Linux")
    def test_a_warm_epoch_takes_few_page_faults(self, monkeypatch):
        # Each batch of 10 used to allocate ~5 MB afresh and fault ~300 pages
        # in; writing over the previous batch's gradients keeps a warm epoch
        # near 0.
        import resource

        faults = []
        backward = training_module.network_backward

        def spy(*args, **kwargs):
            grads = backward(*args, **kwargs)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
            return grads

        monkeypatch.setattr(training_module, "network_backward", spy)
        ds = generate_synthetic(SynthSpec(per_class_count=20, seed=1), LabelMap())
        train(build_network(NetworkConfig(), 1), ds,
              TrainConfig(epochs=2, batch_size=10, seed=1))
        assert len(faults) == 64
        per_batch = (faults[63] - faults[31]) / 32
        assert per_batch < 30, f"{per_batch:.1f} minor page faults per batch"


class TestEvaluate:
    def test_oracle_stub_scores_hundred(self, monkeypatch):
        ds = _uniform_dataset(3, seed=12)
        truth = {id(s.image): s.class_index for s in ds.samples}
        monkeypatch.setattr(
            training_module, "predict",
            lambda net, img: (truth[id(img)], np.zeros(16)),
        )
        net = build_network(SMALL_NET, 0)
        report = evaluate(net, ds)
        assert report.accuracy_percent == 100.0
        assert np.array_equal(np.diag(np.diag(report.confusion)), report.confusion)

    def test_308_of_350_is_88_percent(self, monkeypatch):
        rng = np.random.default_rng(13)
        samples = [Sample(rng.random((1, 32, 32)), int(rng.integers(16)))
                   for _ in range(350)]
        ds = Dataset(samples=samples, labels=LabelMap())
        wrong = {id(s.image) for s in rng.choice(samples, size=42, replace=False)}
        monkeypatch.setattr(
            training_module, "predict",
            lambda net, img, _t={id(s.image): s.class_index for s in samples}:
                (((_t[id(img)] + 1) % 16) if id(img) in wrong else _t[id(img)],
                 np.zeros(16)),
        )
        report = evaluate(build_network(SMALL_NET, 0), ds)
        assert report.accuracy_percent == 88.0
        assert report.sample_count == 350

    def test_accuracy_consistent_with_confusion(self):
        ds = generate_synthetic(SynthSpec(per_class_count=2, seed=3), LabelMap())
        net = build_network(SMALL_NET, 7)
        report = evaluate(net, ds)
        recomputed = 100.0 * np.trace(report.confusion) / report.sample_count
        assert report.accuracy_percent == recomputed
        assert report.confusion.sum() == report.sample_count

    def test_accuracy_invariant_under_permutation(self):
        ds = generate_synthetic(SynthSpec(per_class_count=2, seed=4), LabelMap())
        net = build_network(SMALL_NET, 8)
        base = evaluate(net, ds)
        rng = np.random.default_rng(5)
        shuffled = Dataset(
            samples=[ds.samples[i] for i in rng.permutation(len(ds))],
            labels=ds.labels,
        )
        assert evaluate(net, shuffled).accuracy_percent == base.accuracy_percent

    def test_empty_rejected(self):
        net = build_network(SMALL_NET, 1)
        with pytest.raises(ValueError, match="empty"):
            evaluate(net, Dataset(samples=[], labels=LabelMap()))

    def test_a_class_the_network_cannot_output_is_named(self, monkeypatch):
        calls = []
        monkeypatch.setattr(training_module, "predict",
                            lambda net, img: calls.append(img) or (0, np.zeros(4)))
        net = build_network(NetworkConfig(class_count=4), 1)
        ds = generate_synthetic(SynthSpec(per_class_count=1, seed=1), LabelMap())
        with pytest.raises(ValueError, match="class index 4 .* 4 classes"):
            evaluate(net, ds)
        assert calls == []


@st.composite
def _reduced_configs(draw):
    """Small networks whose every pooled map stays even: a final 1 or 2 px
    side is grown back through both conv+pool stages."""
    k = draw(st.integers(1, 5))

    def side():
        pooled = 2 * draw(st.integers(1, 2)) + k - 1
        return 2 * pooled + k - 1

    return NetworkConfig(
        input_shape=(1, side(), side()),
        conv1_maps=draw(st.integers(1, 3)),
        conv2_maps=draw(st.integers(1, 4)),
        kernel_size=k,
        hidden_units=draw(st.integers(1, 20)),
        class_count=draw(st.integers(2, 6)),
        dropout_rate=draw(st.sampled_from([0.0, 0.5])),
    )


# Few distinct pixel values tie most pooling windows; +/-60 saturates the
# sigmoids to their clamps, and their derivatives to subnormals or zero.
_PIXELS = {
    "ties": [0.0, 0.5, 1.0],
    "saturating": [-60.0, 0.0, 60.0],
    "uniform": None,
}


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    config=_reduced_configs(),
    batch_size=st.integers(1, 12),
    extra=st.integers(0, 5),
    epochs=st.integers(1, 2),
    pixels=st.sampled_from(sorted(_PIXELS)),
    seed=st.integers(0, 2**16),
)
def test_train_and_predict_equal_the_per_image_reference(
    config, batch_size, extra, epochs, pixels, seed
):
    rng = np.random.default_rng(seed)
    n = batch_size + extra
    shape = (n, *config.input_shape)
    values = _PIXELS[pixels]
    images = rng.random(shape) if values is None else rng.choice(values, shape)
    classes = rng.integers(config.class_count, size=n)
    # Sample pins 32x32 crops in [0,1]; train reads only these two fields.
    samples = [SimpleNamespace(image=image, class_index=int(c))
               for image, c in zip(images, classes)]
    net = build_network(config, seed=seed)
    train_config = TrainConfig(epochs=epochs, batch_size=batch_size, seed=seed)

    got, report = train(net, Dataset(samples=samples, labels=LabelMap()), train_config)

    want = copy.deepcopy(net)
    targets = np.eye(config.class_count)[classes]
    draws = np.random.default_rng(seed)
    grads, per_epoch_error = None, []
    for _ in range(epochs):
        order = draws.permutation(n)
        epoch_loss = 0.0
        for lo in range(0, n, batch_size):
            batch = order[lo : lo + batch_size]
            losses, grads = train_step_reference(
                want, images[batch], targets[batch], train_config.learning_rate, draws, grads
            )
            for loss in losses:
                epoch_loss += loss
        per_epoch_error.append(epoch_loss / n)

    assert report.per_epoch_error == per_epoch_error
    for a, b in zip(got.states, want.states):
        if b is not None:
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.biases.tobytes() == b.biases.tobytes()
    for image in images:
        assert predict(got, image)[1].tobytes() == network_forward_reference(want, image)[0].tobytes()
