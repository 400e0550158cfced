import numpy as np
import pytest

from blprs.tensor import (
    conv2d_backward,
    conv2d_valid,
    _im2col,
    maxpool2x2,
    maxpool2x2_backward,
    pool_argmax,
    sigmoid_map,
    tensor_create,
)
from oracles import (
    conv2d_reference,
    gradient_gap,
    maxpool_mask_reference,
    maxpool_reference,
    maxpool_where_reference,
    numeric_gradient,
    pool_argmax_where_reference,
    sigmoid_reference,
    sigmoid_where_reference,
)


def _every_window(values):
    """Every 2x2 window over three values (all 81 patterns) in one (1,18,18) map."""
    patterns = np.array(np.meshgrid(*[np.arange(3)] * 4, indexing="ij"))
    windows = np.asarray(values)[patterns.reshape(4, -1).T].reshape(-1, 2, 2)
    return windows.reshape(9, 9, 2, 2).transpose(0, 2, 1, 3).reshape(1, 18, 18)


def _tie_heavy_input():
    """Every 2x2 window over {0, 1, 2} (all 81 tie patterns), then random
    small integers, so most windows hold tied maxima; then the same over
    {-1, -0.0, +0.0}, whose tied zeros differ in their bytes."""
    rng = np.random.default_rng(17)
    return [_every_window([0.0, 1.0, 2.0]),
            rng.integers(0, 3, size=(6, 28, 28)).astype(np.float64),
            rng.integers(0, 3, size=(12, 10, 10)).astype(np.float64),
            _every_window([-1.0, -0.0, 0.0]),
            rng.choice([-1.0, -0.0, 0.0], size=(6, 28, 28))]


class TestTensorCreate:
    def test_constant_fill(self):
        t = tensor_create([2, 2], 0)
        assert t.shape == (2, 2)
        assert np.all(t == 0.0)
        assert t.dtype == np.float64

    def test_explicit_values(self):
        t = tensor_create([3], [1, 2, 3])
        assert np.array_equal(t, [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="value count"):
            tensor_create([2, 2], [1, 2, 3])

    def test_bad_dimension(self):
        with pytest.raises(ValueError, match="dimensions"):
            tensor_create([2, 0], 1.0)
        with pytest.raises(ValueError, match="dimensions"):
            tensor_create([-1, 3], 1.0)


class TestConvForward:
    def test_table_shape_32_to_28(self):
        x = np.zeros((1, 32, 32))
        k = np.zeros((6, 1, 5, 5))
        out = conv2d_valid(x, k, np.zeros(6))
        assert out.shape == (6, 28, 28)

    def test_all_ones_window_sum(self):
        x = np.ones((1, 3, 3))
        k = np.ones((1, 1, 2, 2))
        out = conv2d_valid(x, k, [0.0])
        assert out.shape == (1, 2, 2)
        assert np.allclose(out, 4.0, atol=0)

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(101)
        x = rng.standard_normal((2, 6, 6))
        k = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        assert np.max(np.abs(conv2d_valid(x, k, b) - conv2d_reference(x, k, b))) < 1e-12

    def test_reference_agreement_100_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            cin = int(rng.integers(1, 4))
            cout = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            h = int(rng.integers(k, 9))
            w = int(rng.integers(k, 9))
            x = rng.standard_normal((cin, h, w))
            kern = rng.standard_normal((cout, cin, k, k))
            b = rng.standard_normal(cout)
            got = conv2d_valid(x, kern, b)
            assert got.shape == (cout, h - k + 1, w - k + 1)
            assert np.max(np.abs(got - conv2d_reference(x, kern, b))) < 1e-12

    def test_kernel_larger_than_input(self):
        with pytest.raises(ValueError, match="larger than input"):
            conv2d_valid(np.zeros((1, 3, 3)), np.zeros((1, 1, 4, 4)), [0.0])

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            conv2d_valid(np.zeros((2, 5, 5)), np.zeros((1, 3, 2, 2)), [0.0])


class TestConvBackward:
    def test_zero_grad_out(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 5, 5))
        k = rng.standard_normal((3, 2, 2, 2))
        gi, gk, gb = conv2d_backward(x, k, np.zeros((3, 4, 4)))
        assert not gi.any() and not gk.any() and not gb.any()

    def test_bias_gradient_sums_grad_out(self):
        x = np.zeros((1, 3, 3))
        k = np.zeros((1, 1, 2, 2))
        _, _, gb = conv2d_backward(x, k, np.ones((1, 2, 2)))
        assert gb[0] == 4.0

    def test_finite_differences_small(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 3, 3))
        k = rng.standard_normal((1, 1, 2, 2))
        b = rng.standard_normal(1)
        g_out = rng.standard_normal((1, 2, 2))

        def loss():
            return float(np.sum(conv2d_valid(x, k, b) * g_out))

        gi, gk, gb = conv2d_backward(x, k, g_out)
        assert gradient_gap(gi, numeric_gradient(loss, x)) < 1e-5
        assert gradient_gap(gk, numeric_gradient(loss, k)) < 1e-5
        assert gradient_gap(gb, numeric_gradient(loss, b)) < 1e-5

    def test_skipping_input_grad_keeps_parameter_grads(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 9, 9))
        k = rng.standard_normal((3, 2, 4, 4))
        g_out = rng.standard_normal((3, 6, 6))
        _, gk, gb = conv2d_backward(x, k, g_out)
        gi, gk_only, gb_only = conv2d_backward(x, k, g_out, input_grad=False)
        assert gi is None
        assert gk_only.tobytes() == gk.tobytes() and gb_only.tobytes() == gb.tobytes()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="grad_out"):
            conv2d_backward(np.zeros((1, 4, 4)), np.zeros((1, 1, 2, 2)),
                            np.zeros((1, 2, 2)))


class TestMaxPool:
    def test_single_window(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        out, (rows, cols) = maxpool2x2(x), pool_argmax(x)
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == 4.0
        assert rows[0, 0, 0] == 1 and cols[0, 0, 0] == 1

    def test_mask_is_boolean(self):
        rows, cols = pool_argmax(np.random.default_rng(2).standard_normal((3, 4, 6)))
        assert rows.dtype == bool and cols.dtype == bool

    def test_table_shape_28_to_14(self):
        out = maxpool2x2(np.zeros((6, 28, 28)))
        assert out.shape == (6, 14, 14)

    def test_matches_window_scan_oracle(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((12, 10, 10))
        out = maxpool2x2(x)
        assert np.array_equal(out, maxpool_reference(x))

    def test_oracle_agreement_100_random(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            c = int(rng.integers(1, 5))
            h = 2 * int(rng.integers(1, 5))
            w = 2 * int(rng.integers(1, 5))
            x = rng.standard_normal((c, h, w))
            out = maxpool2x2(x)
            assert np.max(np.abs(out - maxpool_reference(x))) < 1e-12

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError, match="even"):
            maxpool2x2(np.zeros((1, 3, 4)))
        with pytest.raises(ValueError, match="even"):
            pool_argmax(np.zeros((1, 3, 4)))

    def test_mask_is_first_maximum_on_ties(self):
        for x in _tie_heavy_input():
            out, (rows, cols) = maxpool2x2(x), pool_argmax(x)
            want_rows, want_cols = maxpool_mask_reference(x)
            assert out.tobytes() == maxpool_reference(x).tobytes()
            assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)

    @pytest.mark.parametrize("position", range(4))
    def test_nan_reaches_output(self, position):
        x = np.arange(4.0).reshape(1, 2, 2)
        x.flat[position] = np.nan
        out, (rows, cols) = maxpool2x2(x), pool_argmax(x)
        assert np.isnan(out[0, 0, 0])
        assert (rows[0, 0, 0], cols[0, 0, 0]) == divmod(position, 2)


class TestMaxPoolBackward:
    def test_routes_single_entry(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        mask = pool_argmax(x)
        grad = maxpool2x2_backward(np.array([[[7.0]]]), mask, x.shape)
        assert np.array_equal(grad, [[[0.0, 0.0], [0.0, 7.0]]])

    def test_tie_goes_to_first_in_scan_order(self):
        x = np.full((1, 2, 2), 5.0)
        mask = rows, cols = pool_argmax(x)
        assert rows[0, 0, 0] == 0 and cols[0, 0, 0] == 0
        grad = maxpool2x2_backward(np.array([[[2.0]]]), mask, x.shape)
        assert np.array_equal(grad, [[[2.0, 0.0], [0.0, 0.0]]])

    def test_finite_differences_no_ties(self):
        rng = np.random.default_rng(21)
        x = rng.permutation(np.arange(32.0)).reshape(2, 4, 4)  # all distinct
        weights = rng.standard_normal((2, 2, 2))

        def loss():
            out = maxpool2x2(x)
            return float(np.sum(out * weights))

        mask = pool_argmax(x)
        analytic = maxpool2x2_backward(weights, mask, x.shape)
        assert gradient_gap(analytic, numeric_gradient(loss, x)) < 1e-5

    def test_gradient_mass_conserved(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            x = rng.standard_normal((3, 6, 8))
            mask = pool_argmax(x)
            g = rng.standard_normal((3, 3, 4))
            routed = maxpool2x2_backward(g, mask, x.shape)
            assert np.isclose(routed.sum(), g.sum(), atol=1e-12)

    def test_routes_to_oracle_mask_bitwise(self):
        rng = np.random.default_rng(23)
        for x in _tie_heavy_input():
            mask = pool_argmax(x)
            rows, cols = maxpool_mask_reference(x)
            g = rng.standard_normal(rows.shape)  # negative entries too
            expected = np.zeros(x.shape)  # +0.0 everywhere nothing is routed
            for ch, y, col in np.ndindex(rows.shape):
                expected[ch, 2 * y + rows[ch, y, col], 2 * col + cols[ch, y, col]] = g[ch, y, col]
            assert maxpool2x2_backward(g, mask, x.shape).tobytes() == expected.tobytes()

    def test_shape_mismatch(self):
        x = np.zeros((1, 4, 4))
        mask = pool_argmax(x)
        with pytest.raises(ValueError):
            maxpool2x2_backward(np.zeros((1, 3, 3)), mask, x.shape)


def _sum_in_order(arrays):
    """Add per-image gradients into +0.0 one image after another."""
    total = np.zeros_like(arrays[0])
    for a in arrays:
        total += a
    return total


class TestBatchAxis:
    """A leading batch axis gives, byte for byte, the per-image results:
    stacked for input gradients, summed in image order for parameters."""

    @pytest.mark.parametrize("n", [1, 2, 10])
    @pytest.mark.parametrize("x_shape, k_shape", [
        ((1, 32, 32), (6, 1, 5, 5)), ((6, 14, 14), (12, 6, 5, 5)),
    ], ids=["C1", "C2"])
    def test_conv_backward(self, n, x_shape, k_shape):
        rng = np.random.default_rng(n)
        x = rng.random((n, *x_shape))
        kernels = rng.standard_normal(k_shape)
        k = k_shape[-1]
        g = rng.standard_normal((n, k_shape[0], x_shape[1] - k + 1, x_shape[2] - k + 1))
        g[rng.random(g.shape) < 0.1] = -0.0
        per_image = [conv2d_backward(x_i, kernels, g_i) for x_i, g_i in zip(x, g)]
        gi, gk, gb = conv2d_backward(x, kernels, g)
        assert gi.tobytes() == np.stack([p[0] for p in per_image]).tobytes()
        assert gk.tobytes() == _sum_in_order([p[1] for p in per_image]).tobytes()
        assert gb.tobytes() == _sum_in_order([p[2] for p in per_image]).tobytes()
        skipped, gk_only, gb_only = conv2d_backward(x, kernels, g, input_grad=False)
        assert skipped is None
        assert gk_only.tobytes() == gk.tobytes() and gb_only.tobytes() == gb.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 10])
    def test_maxpool_backward_with_ties(self, n):
        rng = np.random.default_rng(n)
        for shape in ((1, 18, 18), (6, 28, 28), (12, 10, 10)):
            x = rng.integers(0, 3, size=(n, *shape)).astype(np.float64)
            masks = [pool_argmax(x_i) for x_i in x]
            mask = rows, cols = tuple(np.stack(m) for m in zip(*masks))
            g = rng.standard_normal(rows.shape)  # negative entries too
            per_image = [maxpool2x2_backward(g_i, m, shape) for g_i, m in zip(g, masks)]
            got = maxpool2x2_backward(g, mask, x.shape)
            assert got.tobytes() == np.stack(per_image).tobytes()

    def test_batch_shape_mismatch(self):
        with pytest.raises(ValueError, match="grad_out"):
            conv2d_backward(np.zeros((2, 1, 4, 4)), np.zeros((1, 1, 2, 2)),
                            np.zeros((3, 1, 3, 3)))
        mask = pool_argmax(np.zeros((1, 4, 4)))
        with pytest.raises(ValueError):
            maxpool2x2_backward(np.zeros((1, 2, 2)), mask, (2, 1, 4, 4))


class TestSigmoid:
    def test_zero_maps_to_half(self):
        assert sigmoid_map(np.array([0.0]))[0] == 0.5

    def test_derivative_at_zero(self):
        y = sigmoid_map(np.array([0.0]))[0]
        assert y * (1 - y) == 0.25

    def test_deep_negative_matches_high_precision(self):
        # 1/(1+e^20) evaluated at 60 decimal digits
        expected = 2.0611536181902037e-09
        got = sigmoid_map(np.array([-20.0]))[0]
        assert abs(got - expected) / expected < 1e-15

    def test_strictly_inside_unit_interval(self):
        x = np.array([-1e6, -1000.0, -50.0, 0.0, 50.0, 1000.0, 1e6])
        y = sigmoid_map(x)
        assert np.all(y > 0.0) and np.all(y < 1.0)

    def test_monotone_on_randoms(self):
        rng = np.random.default_rng(3)
        x = np.sort(rng.standard_normal(100) * 10)
        y = sigmoid_map(x)
        assert np.all(np.diff(y) >= 0)

    def test_matches_two_branch_oracle_bitwise(self):
        rng = np.random.default_rng(41)
        tiny = np.nextafter(0.0, 1.0)
        edges = np.array([0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, 2.2e-308,
                          -2.2e-308, 745.0, -745.0, 1e6, -1e6])
        grid = rng.standard_normal((12, 10, 10)) * 20
        for t in (edges, rng.standard_normal(1000) * 40, grid, grid[:, ::2, 1::3],
                  grid.transpose(2, 0, 1)):
            assert sigmoid_map(t).tobytes() == sigmoid_reference(t).tobytes()


def _sigmoid_inputs():
    """Edge values, then 10,000 seeded values in [-40, 40]."""
    tiny = np.nextafter(0.0, 1.0)
    edges = np.array([0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, 2.2e-308, -2.2e-308,
                      36.7, -36.7, 709.0, -709.0, 745.0, -745.0, 800.0, -800.0,
                      np.inf, -np.inf, np.nan, -np.nan])
    return [edges, np.random.default_rng(43).uniform(-40.0, 40.0, 10_000)]


def _with_batch(x, n):
    """``x`` itself (n None) or n copies along a new leading axis, the i-th
    rolled by i columns so the images differ."""
    return x if n is None else np.stack([np.roll(x, i, axis=-1) for i in range(n)])


class TestSameBytesAsWhereKernels:
    """maxpool2x2 with pool_argmax, and sigmoid_map, give byte for byte what
    the np.where kernels they replaced gave (kept in oracles.py)."""

    def _assert_pool_matches(self, x):
        out, rows, cols = maxpool_where_reference(x)
        got, (got_rows, got_cols) = maxpool2x2(x), pool_argmax(x)
        assert got.shape == out.shape and got.tobytes() == out.tobytes()
        assert got_rows.dtype == rows.dtype and got_cols.dtype == cols.dtype
        assert got_rows.tobytes() == rows.tobytes()
        assert got_cols.tobytes() == cols.tobytes()

    @pytest.mark.parametrize("n", [None, 1, 2, 10])
    def test_pooling_on_ties(self, n):
        for x in _tie_heavy_input():
            self._assert_pool_matches(_with_batch(x, n))

    @pytest.mark.parametrize("n", [None, 1, 2, 10])
    @pytest.mark.parametrize("position", range(4))
    def test_pooling_with_a_nan_at_each_position(self, position, n):
        rng = np.random.default_rng(position)
        x = rng.integers(0, 3, size=(6, 28, 28)).astype(np.float64)
        dy, dx = divmod(position, 2)
        x[:, dy::2, dx::2][rng.random((6, 14, 14)) < 0.3] = np.nan
        single = np.arange(4.0).reshape(1, 2, 2)
        single.flat[position] = np.nan
        for image in (x, single):
            self._assert_pool_matches(_with_batch(image, n))

    @pytest.mark.parametrize("shape", [None, (6, 28, 28), (10, 12, 10, 10)])
    def test_sigmoid(self, shape):
        for t in _sigmoid_inputs():
            if shape is not None:
                t = np.resize(t, shape)
            assert sigmoid_map(t).tobytes() == sigmoid_where_reference(t).tobytes()


def _saturated_sigmoid_maps(shape):
    """Sigmoid maps of normal, rounded (tie-rich) and x400 draws; the last
    clamp at nextafter(1, 0) or nextafter(0, 1), so nearly every window ties."""
    rng = np.random.default_rng(len(shape))
    t = rng.standard_normal(shape)
    return [sigmoid_map(t), sigmoid_map(np.round(t)), sigmoid_map(400.0 * t)]


class TestEqualityMask:
    """pool_argmax takes the first position equal to the pooled value, or the
    first NaN; it must pick what the _takes/np.where scan it replaced picked,
    with the pooled maps passed in or not."""

    def _assert_mask_matches(self, x):
        rows, cols = pool_argmax_where_reference(x)
        for got_rows, got_cols in (pool_argmax(x), pool_argmax(x, maxpool2x2(x))):
            assert got_rows.dtype == rows.dtype and got_cols.dtype == cols.dtype
            assert got_rows.tobytes() == rows.tobytes()
            assert got_cols.tobytes() == cols.tobytes()

    @pytest.mark.parametrize("n", [None, 1, 2, 10])
    def test_ties(self, n):
        for x in _tie_heavy_input():
            self._assert_mask_matches(_with_batch(x, n))

    @pytest.mark.parametrize("n", [None, 1, 2, 10])
    def test_signed_zeros(self, n):
        for x in (_every_window([-0.0, 0.0, 1.0]), _every_window([-1.0, -0.0, 0.0])):
            self._assert_mask_matches(_with_batch(x, n))

    @pytest.mark.parametrize("n", [None, 1, 2, 10])
    @pytest.mark.parametrize("position", range(4))
    def test_a_nan_at_each_position(self, position, n):
        x = np.random.default_rng(position).integers(0, 3, size=(6, 28, 28)).astype(np.float64)
        dy, dx = divmod(position, 2)
        x[:, dy::2, dx::2] = np.nan
        self._assert_mask_matches(_with_batch(x, n))

    @pytest.mark.parametrize("n", [None, 1, 2, 10])
    def test_several_nans_in_one_window(self, n):
        # Every window over {1, 2, NaN}: from one NaN up to four in a window.
        x = _every_window([1.0, 2.0, np.nan])
        assert np.isnan(x.reshape(81, 2, 2)).sum(axis=(1, 2)).max() == 4
        self._assert_mask_matches(_with_batch(x, n))

    @pytest.mark.parametrize("n", [None, 1, 2, 10])
    @pytest.mark.parametrize("shape", [(6, 28, 28), (12, 10, 10)], ids=["S1", "S2"])
    def test_sigmoid_maps(self, shape, n):
        for y in _saturated_sigmoid_maps(shape):
            self._assert_mask_matches(_with_batch(y, n))
        clamped = sigmoid_map(np.full(shape, 50.0))
        assert (clamped == np.nextafter(1.0, 0.0)).all()
        self._assert_mask_matches(_with_batch(clamped, n))

    def test_pooled_shape_mismatch(self):
        with pytest.raises(ValueError, match="pooled"):
            pool_argmax(np.zeros((1, 4, 4)), np.zeros((1, 2, 3)))

    @pytest.mark.parametrize("shape", [(10, 6, 28, 28), (10, 12, 10, 10)], ids=["S1", "S2"])
    def test_derivative_on_pooled_values_then_routed(self, shape):
        """The sigmoid derivative taken at the pooled values and then routed is,
        byte for byte, routing first and differentiating the full map."""
        rng = np.random.default_rng(shape[1])
        for y in _saturated_sigmoid_maps(shape):
            pooled = maxpool2x2(y)
            mask = pool_argmax(y, pooled)
            g = rng.standard_normal(pooled.shape)
            g[rng.random(g.shape) < 0.1] = -0.0
            fused = g * pooled
            fused *= 1.0 - pooled
            fused = maxpool2x2_backward(fused, mask, y.shape)
            routed = maxpool2x2_backward(g, pool_argmax(y), y.shape)
            expected = routed * y
            expected *= 1.0 - y
            assert fused.tobytes() == expected.tobytes()


_QUARTER_SHAPES = pytest.mark.parametrize(
    "shape", [(6, 28, 28), (12, 10, 10), (10, 6, 28, 28), (10, 12, 10, 10)],
    ids=["S1", "S2", "S1-batch", "S2-batch"])


class TestNumpyRulesTheKernelsRestOn:
    """maxpool2x2 and sigmoid_map keep the bytes of the np.where kernels only
    because numpy behaves as pinned here. A numpy that changes one of these
    rules fails here by name."""

    @_QUARTER_SHAPES
    def test_maximum_returns_its_second_operand_on_ties(self, shape):
        rng = np.random.default_rng(len(shape))
        zeros = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
        for size in (*range(1, 40), zeros.size):
            a, b = zeros.ravel()[:size], -zeros.ravel()[:size]
            assert np.maximum(a, b).tobytes() == b.tobytes()
        top_left, top_right = zeros[..., 0::2, 0::2], zeros[..., 0::2, 1::2]
        bottom_left, bottom_right = zeros[..., 1::2, 0::2], zeros[..., 1::2, 1::2]
        for a, b in ((bottom_right, bottom_left), (top_right, top_left),
                     (top_left, bottom_right)):
            assert np.maximum(a, b).tobytes() == b.tobytes()

    @_QUARTER_SHAPES
    def test_maximum_with_the_sign_test_equals_where(self, shape):
        for t in _sigmoid_inputs():
            t = np.resize(t, shape)
            e = np.exp(-np.abs(t))
            assert np.maximum(e, t >= 0).tobytes() == np.where(t >= 0, 1.0, e).tobytes()

    def test_minimum_of_maximum_equals_clip(self):
        lo, hi = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)
        x = np.concatenate([
            [0.0, -0.0, lo, hi, 1.0, 0.5, np.inf, -np.inf, np.nan, -np.nan],
            np.random.default_rng(47).random(10_000),
        ])
        assert (np.minimum(np.maximum(x, lo), hi).tobytes()
                == np.clip(x, lo, hi).tobytes())

    @pytest.mark.parametrize("shape", [(1, 32, 32), (6, 14, 14), (10, 1, 32, 32),
                                       (10, 6, 14, 14)])
    def test_ndarray_window_view_equals_as_strided(self, shape):
        x = np.random.default_rng(53).random(shape)
        *lead, c, h, w = shape
        *lead_strides, s0, s1, s2 = x.strides
        view_shape = (*lead, c, 5, 5, h - 4, w - 4)
        view_strides = (*lead_strides, s0, s1, s2, s1, s2)
        expected = np.lib.stride_tricks.as_strided(x, view_shape, view_strides)
        got = np.ndarray(view_shape, np.float64, x, 0, view_strides)
        assert got.strides == expected.strides
        assert got.tobytes() == expected.tobytes()
        assert _im2col(x, 5).tobytes() == expected.reshape(*lead, c * 25, -1).tobytes()
