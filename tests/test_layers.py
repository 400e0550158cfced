import numpy as np
import pytest

from blprs.layers import (
    CONV,
    FC,
    POOL,
    LayerSpec,
    LayerState,
    dropout_mask,
    layer_backward,
    layer_forward,
    mse_loss,
)
from oracles import gradient_gap, numeric_gradient


def _random_layer(kind, rng):
    """A small random (spec, state, input) instance of the given kind."""
    if kind == CONV:
        cin, cout, k = int(rng.integers(1, 3)), int(rng.integers(1, 3)), 2
        h = int(rng.integers(k, 6))
        w = int(rng.integers(k, 6))
        spec = LayerSpec(CONV, cout, k, apply_sigmoid=bool(rng.integers(2)))
        state = LayerState(rng.standard_normal((cout, cin, k, k)),
                           rng.standard_normal(cout))
        x = rng.standard_normal((cin, h, w))
    elif kind == POOL:
        spec = LayerSpec(POOL)
        state = None
        c = int(rng.integers(1, 4))
        # distinct values keep every window tie-free for the fd check
        n = c * 4 * 4
        x = rng.permutation(np.arange(n, dtype=np.float64)).reshape(c, 4, 4)
    else:
        n_in, n_out = int(rng.integers(2, 8)), int(rng.integers(1, 6))
        spec = LayerSpec(FC, n_out, apply_sigmoid=bool(rng.integers(2)))
        state = LayerState(rng.standard_normal((n_out, n_in)),
                           rng.standard_normal(n_out))
        x = rng.standard_normal(n_in)
    return spec, state, x


class TestLayerForward:
    def test_fc_zero_weights_gives_half(self):
        spec = LayerSpec(FC, 4, apply_sigmoid=True)
        state = LayerState(np.zeros((4, 6)), np.zeros(4))
        out, _ = layer_forward(spec, state, np.random.default_rng(0).random(6))
        assert np.all(out == 0.5)

    def test_conv_spec_shape_chain(self):
        spec = LayerSpec(CONV, 6, 5, apply_sigmoid=True)
        rng = np.random.default_rng(1)
        state = LayerState(rng.standard_normal((6, 1, 5, 5)), np.zeros(6))
        out, _ = layer_forward(spec, state, rng.random((1, 32, 32)))
        assert out.shape == (6, 28, 28)

    def test_eval_dropout_equals_train_without_dropout(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((5, 8))
        b = rng.standard_normal(5)
        x = rng.random(8)
        with_dropout = LayerSpec(FC, 5, apply_sigmoid=True, dropout_rate=0.5)
        without = LayerSpec(FC, 5, apply_sigmoid=True, dropout_rate=0.0)
        out_eval, _ = layer_forward(with_dropout, LayerState(w, b), x)
        out_train, _ = layer_forward(
            without, LayerState(w, b), x, rng=np.random.default_rng(0)
        )
        assert np.array_equal(out_eval, out_train)

    def test_forward_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        spec = LayerSpec(FC, 6, apply_sigmoid=True, dropout_rate=0.3)
        state = LayerState(rng.standard_normal((6, 4)), rng.standard_normal(6))
        x = rng.random(4)
        a, _ = layer_forward(spec, state, x, np.random.default_rng(99))
        b2, _ = layer_forward(spec, state, x, np.random.default_rng(99))
        assert np.array_equal(a, b2)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LayerSpec(CONV, 4)  # missing kernel size
        with pytest.raises(ValueError):
            LayerSpec(POOL, kernel_size=2)
        with pytest.raises(ValueError):
            LayerSpec(FC, 4, dropout_rate=1.0)


class TestLayerBackward:
    def test_zero_grad_out_gives_zero_grads(self):
        rng = np.random.default_rng(4)
        for kind in (CONV, POOL, FC):
            spec, state, x = _random_layer(kind, rng)
            out, trace = layer_forward(spec, state, x)
            gi, grads = layer_backward(spec, state, trace, np.zeros_like(out))
            assert not gi.any()
            if grads is not None:
                assert not grads.weights.any() and not grads.biases.any()

    def test_grad_input_shape_matches_forward_input(self):
        rng = np.random.default_rng(6)
        for kind in (CONV, POOL, FC):
            spec, state, x = _random_layer(kind, rng)
            out, trace = layer_forward(spec, state, x)
            gi, _ = layer_backward(spec, state, trace, np.ones_like(out))
            assert gi.shape == x.shape

    def test_grad_out_shape_mismatch_rejected(self):
        spec = LayerSpec(FC, 3)
        state = LayerState(np.zeros((3, 4)), np.zeros(3))
        _, trace = layer_forward(spec, state, np.zeros(4))
        with pytest.raises(ValueError, match="grad_out"):
            layer_backward(spec, state, trace, np.zeros(5))

    @pytest.mark.parametrize("kind", [CONV, POOL, FC])
    def test_finite_differences_per_kind(self, kind):
        rng = np.random.default_rng(hash(kind) % 2**31)
        spec, state, x = _random_layer(kind, rng)
        out, _ = layer_forward(spec, state, x)
        weights = rng.standard_normal(out.shape)

        def loss():
            y, _ = layer_forward(spec, state, x)
            return float(np.sum(y * weights))

        _, trace = layer_forward(spec, state, x)
        gi, grads = layer_backward(spec, state, trace, weights)
        assert gradient_gap(gi, numeric_gradient(loss, x)) < 1e-5
        if grads is not None:
            assert gradient_gap(grads.weights,
                                numeric_gradient(loss, state.weights)) < 1e-5
            assert gradient_gap(grads.biases,
                                numeric_gradient(loss, state.biases)) < 1e-5

    def test_finite_differences_500_random_instances(self):
        # frozen dropout: the fd loss re-runs forward with the same seed
        rng = np.random.default_rng(777)
        kinds = (CONV, POOL, FC)
        for trial in range(500):
            kind = kinds[trial % 3]
            spec, state, x = _random_layer(kind, rng)
            if kind == FC and rng.integers(2):
                spec = LayerSpec(FC, spec.out_maps, apply_sigmoid=spec.apply_sigmoid,
                                 dropout_rate=0.4)
            mask_seed = int(rng.integers(2**31))
            out, _ = layer_forward(spec, state, x,
                                   np.random.default_rng(mask_seed))
            weights = rng.standard_normal(out.shape)

            def loss():
                y, _ = layer_forward(spec, state, x,
                                     np.random.default_rng(mask_seed))
                return float(np.sum(y * weights))

            _, trace = layer_forward(spec, state, x,
                                     np.random.default_rng(mask_seed))
            gi, grads = layer_backward(spec, state, trace, weights)
            assert gradient_gap(gi, numeric_gradient(loss, x)) < 1e-5
            if grads is not None:
                assert gradient_gap(grads.weights,
                                    numeric_gradient(loss, state.weights)) < 1e-5


class TestDropoutMask:
    def test_rate_zero_is_all_ones(self):
        m = dropout_mask((4, 4), 0.0, np.random.default_rng(0))
        assert np.all(m == 1.0)

    def test_keep_fraction_concentrates(self):
        m = dropout_mask((100, 100), 0.5, np.random.default_rng(12))
        kept = np.count_nonzero(m) / m.size
        assert 0.48 <= kept <= 0.52
        assert set(np.unique(m)) <= {0.0, 2.0}

    def test_deterministic_given_seed(self):
        a = dropout_mask((50, 50), 0.3, np.random.default_rng(42))
        b = dropout_mask((50, 50), 0.3, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_bad_rate_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            dropout_mask((2,), 1.0, rng)
        with pytest.raises(ValueError):
            dropout_mask((2,), -0.1, rng)

    def test_train_average_approximates_eval(self):
        # inverted dropout is unbiased: the mean over many masks converges
        # on the eval-mode output
        rng = np.random.default_rng(8)
        spec = LayerSpec(FC, 10, apply_sigmoid=True, dropout_rate=0.5)
        state = LayerState(rng.standard_normal((10, 12)), rng.standard_normal(10))
        x = rng.random(12)
        eval_out, _ = layer_forward(spec, state, x)
        total = np.zeros_like(eval_out)
        n_masks = 5000
        mask_rng = np.random.default_rng(999)
        for _ in range(n_masks):
            out, _ = layer_forward(spec, state, x, mask_rng)
            total += out
        mean = total / n_masks
        big = np.abs(eval_out) >= 0.1
        assert big.any()
        rel = np.abs(mean[big] - eval_out[big]) / np.abs(eval_out[big])
        assert np.max(rel) < 0.05


class TestMseLoss:
    def test_perfect_output(self):
        t = np.array([0.2, 0.8, 0.5])
        loss, grad = mse_loss(t.copy(), t)
        assert loss == 0.0
        assert not grad.any()

    def test_half_square(self):
        loss, grad = mse_loss(np.array([1.0, 0.0]), np.array([0.0, 0.0]))
        assert loss == 0.5
        assert np.array_equal(grad, [1.0, 0.0])

    def test_matches_sum_of_squares_oracle(self):
        rng = np.random.default_rng(17)
        out = rng.random(16)
        target = rng.random(16)
        loss, grad = mse_loss(out, target)
        expected = 0.5 * sum((o - t) ** 2 for o, t in zip(out, target))
        assert abs(loss - expected) < 1e-12
        assert np.allclose(grad, out - target, atol=0)

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            a, b = rng.random(8), rng.random(8)
            loss, _ = mse_loss(a, b)
            assert loss >= 0.0
            assert (loss == 0.0) == bool(np.array_equal(a, b))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mse_loss(np.zeros(3), np.zeros(4))
