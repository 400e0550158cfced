import copy
import hashlib

import numpy as np
import pytest

import blprs.training as training_module
from blprs.checkpoint import save_checkpoint
from blprs.data import Dataset, LabelMap, Sample, SynthSpec, generate_synthetic
from blprs.layers import LayerState
from blprs.network import NetworkConfig, build_network
from blprs.training import (
    DivergenceError,
    TrainConfig,
    evaluate,
    sgd_update,
    split_dataset,
    train,
)

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
        ):
            with pytest.raises(ValueError):
                TrainConfig(**kwargs)


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
