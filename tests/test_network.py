import copy
import hashlib
from dataclasses import replace

import numpy as np
import pytest

import blprs.layers as layers_module
import blprs.network as network_module
import blprs.training as training_module
from blprs.checkpoint import save_checkpoint
from blprs.data import LabelMap, SynthSpec, generate_synthetic, one_hot
from blprs.network import (
    PAPER,
    STANDARD,
    Network,
    NetworkConfig,
    build_network,
    count_parameters,
    network_backward,
    network_forward,
    predict,
)
from blprs.tensor import conv2d_backward, maxpool2x2, pool_argmax
from blprs.training import TrainConfig, sgd_update, train
from oracles import gradient_gap, numeric_gradient

# Smallest config whose shape chain survives two conv+pool stages with the
# 5x5 kernel: 16 -> 12 -> 6 -> 2 -> 1, 440 trainables.
REDUCED = NetworkConfig(
    input_shape=(1, 16, 16),
    conv1_maps=2,
    conv2_maps=4,
    kernel_size=5,
    hidden_units=20,
    class_count=4,
    dropout_rate=0.0,
)


def _stack(per_image):
    """Each entry of the images' lists stacked along a leading axis, as
    ``train`` stacks them; None stays None."""
    return [None if entry[0] is None else np.stack(entry) for entry in zip(*per_image)]


def _forward_batch(net, images, rng):
    """Each image's forward pass in turn; returns the stacked outputs and masks."""
    forwards = [network_forward(net, image, rng) for image in images]
    return _stack([f[1] for f in forwards]), _stack([f[2] for f in forwards])


def _spy_on_layer_backward(monkeypatch):
    """Record (input, sigmoid values) of every ``layer_backward`` call that
    ``network_backward`` makes, last layer first."""
    calls = []
    backward = network_module.layer_backward

    def spy(spec, state, x, grad_out, y=None, mask=None, **kwargs):
        calls.append((x, y))
        return backward(spec, state, x, grad_out, y, mask, **kwargs)

    monkeypatch.setattr(network_module, "layer_backward", spy)
    return calls


def _zeroed(net):
    for s in net.states:
        if s is not None:
            s.weights[:] = 0.0
            s.biases[:] = 0.0
    return net


class TestBuildNetwork:
    def test_default_shape_chain_matches_table(self):
        assert NetworkConfig().shape_chain() == [
            (1, 32, 32), (6, 28, 28), (6, 14, 14),
            (12, 10, 10), (12, 5, 5), (300,), (16,),
        ]

    def test_same_seed_bit_identical(self):
        a = build_network(NetworkConfig(), 123)
        b = build_network(NetworkConfig(), 123)
        for sa, sb in zip(a.states, b.states):
            if sa is None:
                assert sb is None
                continue
            assert np.array_equal(sa.weights, sb.weights)
            assert np.array_equal(sa.biases, sb.biases)

    def test_standard_total_equals_tensor_elements(self):
        net = build_network(NetworkConfig(), 5)
        actual = sum(
            s.weights.size + s.biases.size for s in net.states if s is not None
        )
        assert actual == 97084
        assert count_parameters(NetworkConfig(), STANDARD).total == actual

    def test_biases_zero_and_weights_glorot_bounded(self):
        cfg = NetworkConfig()
        net = build_network(cfg, 9)
        k = cfg.kernel_size
        fans = [
            (1 * k * k, 6 * k * k),
            (6 * k * k, 12 * k * k),
            (300, 300),
            (300, 16),
        ]
        parametric = [s for s in net.states if s is not None]
        for s, (fan_in, fan_out) in zip(parametric, fans):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            assert not s.biases.any()
            assert np.abs(s.weights).max() <= limit
            # uniform draws should actually approach the bound
            assert np.abs(s.weights).max() > 0.9 * limit

    def test_checkpoint_of_seed_42_matches_golden_bytes(self, tmp_path):
        # Guards the Glorot draw order and the checkpoint byte layout.
        path = tmp_path / "golden.blpr"
        save_checkpoint(build_network(NetworkConfig(), seed=42), LabelMap(), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "49ac4c208c2b28da1de4a27cf9fe8060d46a6031d53890be7ad6b78e310a4bf6"
        )

    @pytest.mark.parametrize("rate", [1.0, -0.1, float("nan")])
    def test_invalid_dropout_rejected_by_layer_specs(self, rate):
        with pytest.raises(ValueError, match="dropout"):
            NetworkConfig(dropout_rate=rate).layer_specs

    def test_invalid_chain_rejected(self):
        # 8x8 input: 5x5 conv -> 4 -> pool 2 -> second 5x5 conv cannot fit
        bad = NetworkConfig(input_shape=(1, 8, 8))
        with pytest.raises(ValueError):
            bad.shape_chain()

    @pytest.mark.parametrize("field, value, message", [
        ("conv1_maps", -1, "out_maps >= 1, got -1"),
        ("conv2_maps", 0, "out_maps >= 1, got 0"),
        ("kernel_size", -1, "kernel_size >= 1, got -1"),
        ("hidden_units", -3, "out_maps >= 1, got -3"),
        ("class_count", -2, "out_maps >= 1, got -2"),
        ("class_count", 0, "out_maps >= 1, got 0"),
        ("input_shape", (0, 32, 32), "input shape"),
        ("input_shape", (1, 0, 32), "input shape"),
        ("input_shape", (1, 32, -4), "input shape"),
        ("input_shape", (32, 32), "input shape"),
    ])
    def test_config_that_describes_no_network_rejected(self, field, value, message):
        # Each fails here, naming the setting, and not later by dividing by
        # zero, asking numpy for negative dimensions or blaming a pool input.
        with pytest.raises(ValueError, match=message):
            build_network(NetworkConfig(**{field: value}), seed=0)


class TestOneStatePerLayer:
    """A Network holds exactly one state per layer of its config, and every
    walk over the layers pairs them strictly: a network or a gradient list
    of any other length raises before any array changes."""

    def _setup(self):
        net = build_network(REDUCED, seed=21)
        image = np.random.default_rng(21).random(REDUCED.input_shape)
        _, outputs, masks = network_forward(net, image)
        target = one_hot(2, REDUCED.class_count)
        return net, image, outputs, masks, target

    def test_states_have_no_default(self):
        with pytest.raises(TypeError):
            Network(NetworkConfig())

    @pytest.mark.parametrize("count", [0, 3, 5, 7])
    def test_wrong_state_count_rejected(self, count):
        net, image, outputs, masks, target = self._setup()
        grads = network_backward(net, outputs, masks, target)
        bad = Network(REDUCED, (net.states * 2)[:count])
        before = copy.deepcopy(bad.states)
        with pytest.raises(ValueError):
            predict(bad, image)
        with pytest.raises(ValueError):
            network_backward(bad, outputs, masks, target)
        for wrong in (grads, (grads * 2)[:count]):
            with pytest.raises(ValueError):
                sgd_update(bad, wrong, 0.1)
        for a, b in zip(bad.states, before):
            if a is not None:
                assert a.weights.tobytes() == b.weights.tobytes()
                assert a.biases.tobytes() == b.biases.tobytes()

    @pytest.mark.parametrize("count", [3, 5, 7])
    def test_wrong_gradient_count_rejected(self, count):
        net, _, outputs, masks, target = self._setup()
        previous = (network_backward(net, outputs, masks, target) * 2)[:count]
        held = copy.deepcopy(previous)
        with pytest.raises(ValueError):
            network_backward(net, outputs, masks, target, previous)
        for a, b in zip(previous, held):
            if a is not None:
                assert a.weights.tobytes() == b.weights.tobytes()


class TestCountParameters:
    def test_paper_convention_table(self):
        r = count_parameters(NetworkConfig(), PAPER)
        assert [l.parameters for l in r.layers] == [156, 0, 1872, 0, 93600, 4816]
        assert r.total == 100444

    def test_standard_convention_table(self):
        r = count_parameters(NetworkConfig(), STANDARD)
        assert [l.parameters for l in r.layers] == [156, 0, 1812, 0, 90300, 4816]
        assert r.total == 97084

    def test_pooling_layers_report_zero(self):
        for convention in (PAPER, STANDARD):
            r = count_parameters(NetworkConfig(), convention)
            assert r.layers[1].parameters == 0
            assert r.layers[3].parameters == 0

    def test_per_layer_standard_matches_actual_tensors(self):
        net = build_network(NetworkConfig(), 3)
        r = count_parameters(NetworkConfig(), STANDARD)
        parametric = [s for s in net.states if s is not None]
        reported = [l.parameters for l in r.layers if l.parameters]
        assert reported == [s.weights.size + s.biases.size for s in parametric]

    def test_map_sizes_match_table(self):
        r = count_parameters(NetworkConfig(), PAPER)
        assert [l.map_size for l in r.layers] == [
            "28x28", "14x14", "10x10", "5x5", "1x1", "1x1",
        ]

    def test_unknown_convention(self):
        with pytest.raises(ValueError):
            count_parameters(NetworkConfig(), "loose")


class TestNetworkForward:
    def test_zero_weight_network_scores_half(self):
        net = _zeroed(build_network(NetworkConfig(), 0))
        scores = network_forward(net, np.zeros((1, 32, 32)))[0]
        assert scores.shape == (16,)
        assert np.all(scores == 0.5)

    def test_intermediate_shapes_match_table(self):
        net = build_network(NetworkConfig(), 1)
        _, outputs, _ = network_forward(net, np.random.default_rng(0).random((1, 32, 32)))
        assert [o.shape for o in outputs] == [
            (1, 32, 32), (6, 28, 28), (6, 14, 14), (12, 10, 10), (12, 5, 5), (300,), (16,),
        ]

    def test_eval_mode_deterministic(self):
        net = build_network(NetworkConfig(), 2)
        img = np.random.default_rng(4).random((1, 32, 32))
        a = network_forward(net, img)[0]
        b = network_forward(net, img)[0]
        assert np.array_equal(a, b)

    def test_scores_strictly_inside_unit_interval(self):
        net = build_network(NetworkConfig(), 6)
        img = np.random.default_rng(5).random((1, 32, 32))
        scores = network_forward(net, img)[0]
        assert np.all(scores > 0.0) and np.all(scores < 1.0)

    def test_wrong_input_shape(self):
        net = build_network(NetworkConfig(), 3)
        with pytest.raises(ValueError, match="input shape"):
            network_forward(net, np.zeros((1, 28, 28)))


class TestNetworkBackward:
    def test_target_equal_to_scores_zeroes_gradients(self):
        net = build_network(REDUCED, 11)
        img = np.random.default_rng(1).random((1, 16, 16))
        scores, outputs, masks = network_forward(net, img)
        grads = network_backward(net, outputs, masks, scores.copy())
        for g in grads:
            if g is not None:
                assert np.allclose(g.weights, 0.0, atol=1e-18)
                assert np.allclose(g.biases, 0.0, atol=1e-18)

    def test_gradient_shapes_match_states(self):
        net = build_network(REDUCED, 12)
        img = np.random.default_rng(2).random((1, 16, 16))
        _, outputs, masks = network_forward(net, img)
        grads = network_backward(net, outputs, masks, one_hot(1, 4))
        for s, g in zip(net.states, grads):
            if s is None:
                assert g is None
            else:
                assert g.weights.shape == s.weights.shape
                assert g.biases.shape == s.biases.shape

    def test_first_layer_skips_its_input_gradient(self, monkeypatch):
        calls = []

        def spy(x, kernels, grad_out, input_grad=True):
            calls.append((x.shape, input_grad))
            return conv2d_backward(x, kernels, grad_out, input_grad=input_grad)

        monkeypatch.setattr(layers_module, "conv2d_backward", spy)
        net = build_network(REDUCED, 12)
        _, outputs, masks = network_forward(net, np.zeros((1, 16, 16)))
        network_backward(net, outputs, masks, one_hot(1, 4))
        assert calls == [((2, 6, 6), True), ((1, 16, 16), False)]

    def test_full_network_finite_differences(self):
        net = build_network(REDUCED, 13)
        rng = np.random.default_rng(3)
        img = rng.random((1, 16, 16))
        target = one_hot(2, 4)

        def loss():
            scores = network_forward(net, img)[0]
            return 0.5 * float(np.sum((scores - target) ** 2))

        _, outputs, masks = network_forward(net, img)
        grads = network_backward(net, outputs, masks, target)
        for li, g in enumerate(grads):
            if g is None:
                continue
            state = net.states[li]
            assert gradient_gap(g.weights, numeric_gradient(loss, state.weights)) < 1e-5
            assert gradient_gap(g.biases, numeric_gradient(loss, state.biases)) < 1e-5

    @pytest.mark.parametrize("n", [1, 2, 10])
    @pytest.mark.parametrize("config", [NetworkConfig(), replace(REDUCED, dropout_rate=0.5)],
                             ids=["paper", "reduced"])
    def test_batch_equals_per_image_gradients_summed_in_order(self, config, n):
        net = build_network(config, seed=n)
        rng = np.random.default_rng(n)
        images = rng.random((n, *config.input_shape))
        targets = np.eye(config.class_count)[rng.integers(config.class_count, size=n)]
        forwards = [network_forward(net, image, rng) for image in images]
        assert any(masks[4].min() == 0.0 for _, _, masks in forwards)

        batch = network_backward(net, _stack([f[1] for f in forwards]),
                                 _stack([f[2] for f in forwards]), targets)

        per_image = [network_backward(net, outputs, masks, target)
                     for (_, outputs, masks), target in zip(forwards, targets)]
        for layer, got in enumerate(batch):
            if got is None:
                assert all(grads[layer] is None for grads in per_image)
                continue
            weights = np.zeros_like(got.weights)
            biases = np.zeros_like(got.biases)
            for grads in per_image:
                weights += grads[layer].weights
                biases += grads[layer].biases
            assert got.weights.tobytes() == weights.tobytes()
            assert got.biases.tobytes() == biases.tobytes()

    def test_earlier_gradients_are_overwritten_with_the_same_bytes(self):
        net = build_network(NetworkConfig(), 17)
        rng = np.random.default_rng(8)

        def batch(n):
            outputs, masks = _forward_batch(net, rng.random((n, 1, 32, 32)), rng)
            return outputs, masks, np.eye(16)[rng.integers(16, size=n)]

        earlier = network_backward(net, *batch(3))
        stacked = batch(2)  # a short last batch reuses them too
        fresh = network_backward(net, *stacked)
        reused = network_backward(net, *stacked, earlier)
        for got, want in zip(reused, fresh):
            if want is None:
                assert got is None
                continue
            assert got.weights.tobytes() == want.weights.tobytes()
            assert got.biases.tobytes() == want.biases.tobytes()
        assert reused[4].weights is earlier[4].weights
        assert reused[5].weights is earlier[5].weights

        def arrays(grads):
            return [a for g in grads if g is not None for a in (g.weights, g.biases)]

        assert not any(np.shares_memory(a, b) for a in arrays(fresh) for b in arrays(earlier))

    def test_train_stacks_each_output_and_mask_along_the_batch_axis(self, monkeypatch):
        calls = []
        backward = training_module.network_backward

        def spy(net, outputs, masks, targets, previous):
            calls.append((outputs, masks, targets))
            return backward(net, outputs, masks, targets, previous)

        monkeypatch.setattr(training_module, "network_backward", spy)
        ds = generate_synthetic(SynthSpec(per_class_count=1, seed=6), LabelMap())
        train(build_network(NetworkConfig(), 15), ds, TrainConfig(epochs=1, batch_size=3, seed=6))
        outputs, masks, targets = calls[0]
        assert [o.shape for o in outputs] == [
            (3, 1, 32, 32), (3, 6, 28, 28), (3, 6, 14, 14), (3, 12, 10, 10), (3, 12, 5, 5),
            (3, 300), (3, 16),
        ]
        assert pool_argmax(outputs[1], outputs[2])[0].shape == (3, 6, 14, 14)
        assert masks[4].shape == (3, 300) and masks[:4] + masks[5:] == [None] * 5
        assert targets.shape == (3, 16)
        first = np.random.default_rng(6).permutation(len(ds))[:3]
        assert np.array_equal(outputs[0][2], ds.samples[first[2]].image)

    def test_pooling_takes_over_the_sigmoid_of_the_layer_below(self, monkeypatch):
        calls = _spy_on_layer_backward(monkeypatch)
        net = build_network(NetworkConfig(), 16)
        rng = np.random.default_rng(7)
        _, outputs, masks = network_forward(net, rng.random((1, 32, 32)), rng)
        network_backward(net, outputs, masks, np.eye(16)[3])
        c1, s1, c2, s2, f1, f2 = reversed(calls)
        for conv, pool, pooled in ((c1, s1, outputs[2]), (c2, s2, outputs[4])):
            assert conv[1] is None
            assert pool[1] is pooled
            assert np.array_equal(pool[1], maxpool2x2(pool[0]))
        assert f1[1] is outputs[5] and f2[1] is outputs[6]

    def test_a_shared_array_is_stacked_once(self, monkeypatch):
        calls = _spy_on_layer_backward(monkeypatch)
        ds = generate_synthetic(SynthSpec(per_class_count=1, seed=8), LabelMap())
        train(build_network(NetworkConfig(), 17), ds, TrainConfig(epochs=1, batch_size=4, seed=8))
        f2, f1, s2, c2, s1, c1 = calls[:6]
        assert s1[1] is c2[0]
        assert s2[1] is f1[0]
        assert f1[0].shape == (4, 12, 5, 5)

    def test_public_calls_share_no_memory(self):
        net = build_network(NetworkConfig(), 18)
        rng = np.random.default_rng(9)
        targets = np.eye(16)[rng.integers(16, size=3)]
        calls = []
        for _ in range(2):
            outputs, masks = _forward_batch(net, rng.random((3, 1, 32, 32)), rng)
            grads = network_backward(net, outputs, masks, targets)
            calls.append([a for g in grads if g is not None for a in (g.weights, g.biases)]
                         + [a for a in outputs + masks if a is not None])
        first, second = calls
        for a in first:
            for b in second:
                assert not np.shares_memory(a, b)

    def test_target_shape_mismatch(self):
        net = build_network(REDUCED, 14)
        _, outputs, masks = network_forward(net, np.zeros((1, 16, 16)))
        with pytest.raises(ValueError, match="target"):
            network_backward(net, outputs, masks, np.zeros(16))


class TestPredict:
    def test_all_equal_scores_tie_break_to_zero(self):
        net = _zeroed(build_network(NetworkConfig(), 0))
        cls, scores = predict(net, np.zeros((1, 32, 32)))
        assert cls == 0
        assert np.all(scores == scores[0])

    def test_unique_argmax(self):
        net = build_network(NetworkConfig(), 21)
        img = np.random.default_rng(3).random((1, 32, 32))
        cls, scores = predict(net, img)
        assert cls == int(np.argmax(scores))
        assert 0 <= cls < 16

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_rejected(self, bad):
        net = build_network(NetworkConfig(), 23)
        img = np.random.default_rng(9).random((1, 32, 32))
        img[0, 5, 7] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            predict(net, img)

    def test_scores_of_seed_42_match_golden_bytes(self):
        # Guards the no-dropout forward that predict and evaluate run: a
        # kernel that rounds differently moves these bytes.
        ds = generate_synthetic(SynthSpec(per_class_count=2, seed=1), LabelMap())
        net = build_network(NetworkConfig(), seed=42)
        scores = np.stack([predict(net, s.image)[1] for s in ds.samples])
        assert hashlib.sha256(scores.tobytes()).hexdigest() == (
            "b5bb2c2c027aa96e608fb8589afe0227eb80379cc4a8db2733f553f497ca57b9"
        )

    def test_pure_function(self):
        net = build_network(NetworkConfig(), 22)
        img = np.random.default_rng(8).random((1, 32, 32))
        a = predict(net, img)
        b = predict(net, img)
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1])


class TestNumpyRulesABatchedForwardRestsOn:
    """A forward pass over a whole mini-batch keeps the per-image bytes only
    because numpy behaves as pinned here, at the network's shapes. A numpy
    that changes one of these rules fails here by name."""

    @pytest.mark.parametrize("n", [1, 7, 10, 32])
    @pytest.mark.parametrize("rows, inner, cols", [(6, 25, 784), (12, 150, 100)],
                             ids=["C1", "C2"])
    def test_stacked_matmul_equals_the_per_image_matmul(self, rows, inner, cols, n):
        rng = np.random.default_rng(n)
        w = rng.uniform(-0.5, 0.5, (rows, inner))
        stack = rng.random((n, inner, cols))
        stacked = np.matmul(w, stack)
        for i in range(n):
            assert stacked[i].tobytes() == (w @ stack[i]).tobytes()

    @pytest.mark.parametrize("n", [1, 7, 10, 32])
    @pytest.mark.parametrize("units, inputs", [(300, 300), (16, 300)], ids=["F1", "F2"])
    def test_matmul_over_column_vectors_equals_the_matrix_vector_product(
        self, units, inputs, n
    ):
        rng = np.random.default_rng(n)
        w = rng.uniform(-0.1, 0.1, (units, inputs))
        v = rng.random((n, inputs))
        v[rng.random(v.shape) < 0.5] = 0.0  # dropout-zeroed inputs
        stacked = np.matmul(w, v[:, :, None])
        for i in range(n):
            assert stacked[i, :, 0].tobytes() == (w @ v[i]).tobytes()

    @pytest.mark.parametrize("n", [1, 7, 10, 32])
    def test_one_draw_of_a_batch_equals_a_draw_per_image(self, n):
        batch = np.random.default_rng(n).random((n, 300))
        per_image = np.random.default_rng(n)
        for row in batch:
            assert row.tobytes() == per_image.random(300).tobytes()
