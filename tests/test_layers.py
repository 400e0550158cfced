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
        spec = LayerSpec(CONV, cout, k)
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
        spec = LayerSpec(FC, n_out)
        state = LayerState(rng.standard_normal((n_out, n_in)),
                           rng.standard_normal(n_out))
        x = rng.standard_normal(n_in)
    return spec, state, x


def _forward(spec, state, x, rng=None):
    """The layer's output as the next layer reads it: times its dropout mask."""
    out, mask = layer_forward(spec, state, x, rng)
    return out if mask is None else out * mask


def _backward(spec, state, x, grad_out, rng=None):
    """``layer_backward`` on what ``layer_forward`` keeps: the input, the
    output, whose sigmoid derivative a layer with a sigmoid takes, and the
    dropout mask."""
    out, mask = layer_forward(spec, state, x, rng)
    return layer_backward(spec, state, x, grad_out,
                          out if spec.apply_sigmoid else None, mask)


class TestLayerForward:
    def test_fc_zero_weights_gives_half(self):
        spec = LayerSpec(FC, 4)
        state = LayerState(np.zeros((4, 6)), np.zeros(4))
        out, _ = layer_forward(spec, state, np.random.default_rng(0).random(6))
        assert np.all(out == 0.5)

    def test_conv_spec_shape_chain(self):
        spec = LayerSpec(CONV, 6, 5)
        rng = np.random.default_rng(1)
        state = LayerState(rng.standard_normal((6, 1, 5, 5)), np.zeros(6))
        out, _ = layer_forward(spec, state, rng.random((1, 32, 32)))
        assert out.shape == (6, 28, 28)

    def test_eval_dropout_equals_train_without_dropout(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((5, 8))
        b = rng.standard_normal(5)
        x = rng.random(8)
        with_dropout = LayerSpec(FC, 5, dropout_rate=0.5)
        without = LayerSpec(FC, 5, dropout_rate=0.0)
        out_eval, _ = layer_forward(with_dropout, LayerState(w, b), x)
        out_train, _ = layer_forward(
            without, LayerState(w, b), x, rng=np.random.default_rng(0)
        )
        assert np.array_equal(out_eval, out_train)

    def test_forward_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        spec = LayerSpec(FC, 6, dropout_rate=0.3)
        state = LayerState(rng.standard_normal((6, 4)), rng.standard_normal(6))
        x = rng.random(4)
        a = _forward(spec, state, x, np.random.default_rng(99))
        b2 = _forward(spec, state, x, np.random.default_rng(99))
        assert np.array_equal(a, b2)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LayerSpec(CONV, 4)  # missing kernel size
        with pytest.raises(ValueError):
            LayerSpec(POOL, kernel_size=2)
        with pytest.raises(ValueError):
            LayerSpec(FC, 4, dropout_rate=1.0)


    def test_fc_wrong_input_size_rejected(self):
        # The network checks its input shape once; a direct call with the
        # wrong input size still fails, in the matmul.
        state = LayerState(np.zeros((4, 6)), np.zeros(4))
        with pytest.raises(ValueError):
            layer_forward(LayerSpec(FC, 4), state, np.zeros(7))

    def test_the_kind_fixes_the_sigmoid(self):
        for spec in (LayerSpec(CONV, 2, 3), LayerSpec(POOL), LayerSpec(FC, 4)):
            assert spec.apply_sigmoid == (spec.kind != POOL)
        with pytest.raises(TypeError):
            LayerSpec(FC, 4, apply_sigmoid=False)

    @pytest.mark.parametrize("args", [
        (CONV, 0, 5), (CONV, -1, 5), (CONV, 4, 0), (CONV, 4, -1), (FC, 0), (FC, -3),
    ])
    def test_sizes_below_one_rejected(self, args):
        with pytest.raises(ValueError, match=">= 1"):
            LayerSpec(*args)


class TestLayerBackward:
    def test_zero_grad_out_gives_zero_grads(self):
        rng = np.random.default_rng(4)
        for kind in (CONV, POOL, FC):
            spec, state, x = _random_layer(kind, rng)
            out = _forward(spec, state, x)
            gi, grads = _backward(spec, state, x, np.zeros_like(out))
            assert not gi.any()
            if grads is not None:
                assert not grads.weights.any() and not grads.biases.any()

    def test_grad_input_shape_matches_forward_input(self):
        rng = np.random.default_rng(6)
        for kind in (CONV, POOL, FC):
            spec, state, x = _random_layer(kind, rng)
            out = _forward(spec, state, x)
            gi, _ = _backward(spec, state, x, np.ones_like(out))
            assert gi.shape == x.shape

    def test_grad_out_shape_mismatch_rejected(self):
        spec = LayerSpec(FC, 3)
        state = LayerState(np.zeros((3, 4)), np.zeros(3))
        with pytest.raises(ValueError, match="grad_out"):
            _backward(spec, state, np.zeros(4), np.zeros(5))

    @pytest.mark.parametrize("kind", [CONV, POOL, FC])
    def test_finite_differences_per_kind(self, kind):
        rng = np.random.default_rng(hash(kind) % 2**31)
        spec, state, x = _random_layer(kind, rng)
        out = _forward(spec, state, x)
        weights = rng.standard_normal(out.shape)

        def loss():
            y = _forward(spec, state, x)
            return float(np.sum(y * weights))

        gi, grads = _backward(spec, state, x, weights)
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
                spec = LayerSpec(FC, spec.out_maps, dropout_rate=0.4)
            mask_seed = int(rng.integers(2**31))
            out = _forward(spec, state, x, np.random.default_rng(mask_seed))
            weights = rng.standard_normal(out.shape)

            def loss():
                y = _forward(spec, state, x, np.random.default_rng(mask_seed))
                return float(np.sum(y * weights))

            gi, grads = _backward(spec, state, x, weights,
                                  np.random.default_rng(mask_seed))
            assert gradient_gap(gi, numeric_gradient(loss, x)) < 1e-5
            if grads is not None:
                assert gradient_gap(grads.weights,
                                    numeric_gradient(loss, state.weights)) < 1e-5


class TestFullyConnectedBatchOrder:
    """The batched FC backward must round exactly as the per-image one did:
    a weight gradient made by adding np.outer(g_i, v_i) into +0.0 in image
    order. A numpy whose einsum sums in another order fails here by name."""

    @pytest.mark.parametrize("units, input_shape", [(300, (12, 5, 5)), (16, (300,))],
                             ids=["F1", "F2"])
    @pytest.mark.parametrize("n", range(1, 18))
    def test_gradients_match_in_order_outer_sum_bitwise(self, units, input_shape, n):
        rng = np.random.default_rng(n)
        inputs = int(np.prod(input_shape))
        g = rng.standard_normal((n, units))
        g[rng.random(g.shape) < 0.5] = 0.0  # dropout-zeroed units
        g[rng.random(g.shape) < 0.1] = -0.0
        g[n // 2] = 0.0  # an image with no gradient at all
        v = rng.random((n, inputs))
        v[rng.random(v.shape) < 0.1] = -0.0
        state = LayerState(rng.standard_normal((units, inputs)), np.zeros(units))
        grad_input, grads = layer_backward(LayerSpec(FC, units), state,
                                           v.reshape(n, *input_shape), g)

        weights, biases = np.zeros((units, inputs)), np.zeros(units)
        for g_i, v_i in zip(g, v):
            weights += np.outer(g_i, v_i)
            biases += g_i
        assert grads.weights.tobytes() == weights.tobytes()
        assert grads.biases.tobytes() == biases.tobytes()
        per_image = np.stack([(state.weights.T @ g_i).reshape(input_shape) for g_i in g])
        assert grad_input.tobytes() == per_image.tobytes()


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
        spec = LayerSpec(FC, 10, dropout_rate=0.5)
        state = LayerState(rng.standard_normal((10, 12)), rng.standard_normal(10))
        x = rng.random(12)
        eval_out, _ = layer_forward(spec, state, x)
        total = np.zeros_like(eval_out)
        n_masks = 5000
        mask_rng = np.random.default_rng(999)
        for _ in range(n_masks):
            total += _forward(spec, state, x, mask_rng)
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
