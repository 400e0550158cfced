import hashlib

import numpy as np
import pytest

import blprs.layers as layers_module
from blprs.checkpoint import save_checkpoint
from blprs.data import LabelMap, one_hot
from blprs.network import (
    PAPER,
    STANDARD,
    NetworkConfig,
    build_network,
    count_parameters,
    network_backward,
    network_forward,
    predict,
)
from blprs.tensor import conv2d_backward
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
        scores, _ = network_forward(net, np.zeros((1, 32, 32)))
        assert scores.shape == (16,)
        assert np.all(scores == 0.5)

    def test_intermediate_shapes_match_table(self):
        net = build_network(NetworkConfig(), 1)
        _, traces = network_forward(net, np.random.default_rng(0).random((1, 32, 32)))
        assert [t.output_shape for t in traces] == [
            (6, 28, 28), (6, 14, 14), (12, 10, 10), (12, 5, 5), (300,), (16,),
        ]

    def test_eval_mode_deterministic(self):
        net = build_network(NetworkConfig(), 2)
        img = np.random.default_rng(4).random((1, 32, 32))
        a, _ = network_forward(net, img)
        b, _ = network_forward(net, img)
        assert np.array_equal(a, b)

    def test_scores_strictly_inside_unit_interval(self):
        net = build_network(NetworkConfig(), 6)
        img = np.random.default_rng(5).random((1, 32, 32))
        scores, _ = network_forward(net, img)
        assert np.all(scores > 0.0) and np.all(scores < 1.0)

    def test_wrong_input_shape(self):
        net = build_network(NetworkConfig(), 3)
        with pytest.raises(ValueError, match="input shape"):
            network_forward(net, np.zeros((1, 28, 28)))


class TestNetworkBackward:
    def test_target_equal_to_scores_zeroes_gradients(self):
        net = build_network(REDUCED, 11)
        img = np.random.default_rng(1).random((1, 16, 16))
        scores, traces = network_forward(net, img)
        grads = network_backward(net, traces, scores.copy())
        for g in grads:
            if g is not None:
                assert np.allclose(g.weights, 0.0, atol=1e-18)
                assert np.allclose(g.biases, 0.0, atol=1e-18)

    def test_gradient_shapes_match_states(self):
        net = build_network(REDUCED, 12)
        img = np.random.default_rng(2).random((1, 16, 16))
        _, traces = network_forward(net, img)
        grads = network_backward(net, traces, one_hot(1, 4))
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
        _, traces = network_forward(net, np.zeros((1, 16, 16)))
        network_backward(net, traces, one_hot(1, 4))
        assert calls == [((2, 6, 6), True), ((1, 16, 16), False)]

    def test_full_network_finite_differences(self):
        net = build_network(REDUCED, 13)
        rng = np.random.default_rng(3)
        img = rng.random((1, 16, 16))
        target = one_hot(2, 4)

        def loss():
            scores, _ = network_forward(net, img)
            return 0.5 * float(np.sum((scores - target) ** 2))

        _, traces = network_forward(net, img)
        grads = network_backward(net, traces, target)
        for li, g in enumerate(grads):
            if g is None:
                continue
            state = net.states[li]
            assert gradient_gap(g.weights, numeric_gradient(loss, state.weights)) < 1e-5
            assert gradient_gap(g.biases, numeric_gradient(loss, state.biases)) < 1e-5

    def test_target_shape_mismatch(self):
        net = build_network(REDUCED, 14)
        _, traces = network_forward(net, np.zeros((1, 16, 16)))
        with pytest.raises(ValueError, match="target"):
            network_backward(net, traces, np.zeros(16))


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

    def test_pure_function(self):
        net = build_network(NetworkConfig(), 22)
        img = np.random.default_rng(8).random((1, 32, 32))
        a = predict(net, img)
        b = predict(net, img)
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1])
