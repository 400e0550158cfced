import numpy as np
import pytest

from blprs.tensor import (
    conv2d_backward,
    conv2d_valid,
    maxpool2x2,
    maxpool2x2_backward,
    sigmoid_map,
    tensor_create,
)
from oracles import (
    conv2d_reference,
    gradient_gap,
    maxpool_mask_reference,
    maxpool_reference,
    numeric_gradient,
    sigmoid_reference,
)


def _tie_heavy_input():
    """Every 2x2 window over {0, 1, 2} (all 81 tie patterns), then random
    small integers, so most windows hold tied maxima."""
    rng = np.random.default_rng(17)
    patterns = np.array(np.meshgrid(*[np.arange(3.0)] * 4, indexing="ij"))
    windows = patterns.reshape(4, -1).T.reshape(-1, 2, 2)  # (81, 2, 2)
    every = windows.reshape(9, 9, 2, 2).transpose(0, 2, 1, 3).reshape(1, 18, 18)
    return [every, rng.integers(0, 3, size=(6, 28, 28)).astype(np.float64),
            rng.integers(0, 3, size=(12, 10, 10)).astype(np.float64)]


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
        out, mask = maxpool2x2(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == 4.0
        assert mask.rows[0, 0, 0] == 1 and mask.cols[0, 0, 0] == 1

    def test_mask_is_boolean(self):
        _, mask = maxpool2x2(np.random.default_rng(2).standard_normal((3, 4, 6)))
        assert mask.rows.dtype == bool and mask.cols.dtype == bool

    def test_table_shape_28_to_14(self):
        out, _ = maxpool2x2(np.zeros((6, 28, 28)))
        assert out.shape == (6, 14, 14)

    def test_matches_window_scan_oracle(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((12, 10, 10))
        out, _ = maxpool2x2(x)
        assert np.array_equal(out, maxpool_reference(x))

    def test_oracle_agreement_100_random(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            c = int(rng.integers(1, 5))
            h = 2 * int(rng.integers(1, 5))
            w = 2 * int(rng.integers(1, 5))
            x = rng.standard_normal((c, h, w))
            out, _ = maxpool2x2(x)
            assert np.max(np.abs(out - maxpool_reference(x))) < 1e-12

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError, match="even"):
            maxpool2x2(np.zeros((1, 3, 4)))

    def test_mask_is_first_maximum_on_ties(self):
        for x in _tie_heavy_input():
            out, mask = maxpool2x2(x)
            rows, cols = maxpool_mask_reference(x)
            assert out.tobytes() == maxpool_reference(x).tobytes()
            assert np.array_equal(mask.rows, rows) and np.array_equal(mask.cols, cols)

    @pytest.mark.parametrize("position", range(4))
    def test_nan_reaches_output(self, position):
        x = np.arange(4.0).reshape(1, 2, 2)
        x.flat[position] = np.nan
        out, mask = maxpool2x2(x)
        assert np.isnan(out[0, 0, 0])
        assert (mask.rows[0, 0, 0], mask.cols[0, 0, 0]) == divmod(position, 2)


class TestMaxPoolBackward:
    def test_routes_single_entry(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        _, mask = maxpool2x2(x)
        grad = maxpool2x2_backward(np.array([[[7.0]]]), mask, x.shape)
        assert np.array_equal(grad, [[[0.0, 0.0], [0.0, 7.0]]])

    def test_tie_goes_to_first_in_scan_order(self):
        x = np.full((1, 2, 2), 5.0)
        _, mask = maxpool2x2(x)
        assert mask.rows[0, 0, 0] == 0 and mask.cols[0, 0, 0] == 0
        grad = maxpool2x2_backward(np.array([[[2.0]]]), mask, x.shape)
        assert np.array_equal(grad, [[[2.0, 0.0], [0.0, 0.0]]])

    def test_finite_differences_no_ties(self):
        rng = np.random.default_rng(21)
        x = rng.permutation(np.arange(32.0)).reshape(2, 4, 4)  # all distinct
        weights = rng.standard_normal((2, 2, 2))

        def loss():
            out, _ = maxpool2x2(x)
            return float(np.sum(out * weights))

        out, mask = maxpool2x2(x)
        analytic = maxpool2x2_backward(weights, mask, x.shape)
        assert gradient_gap(analytic, numeric_gradient(loss, x)) < 1e-5

    def test_gradient_mass_conserved(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            x = rng.standard_normal((3, 6, 8))
            _, mask = maxpool2x2(x)
            g = rng.standard_normal((3, 3, 4))
            routed = maxpool2x2_backward(g, mask, x.shape)
            assert np.isclose(routed.sum(), g.sum(), atol=1e-12)

    def test_routes_to_oracle_mask_bitwise(self):
        rng = np.random.default_rng(23)
        for x in _tie_heavy_input():
            _, mask = maxpool2x2(x)
            rows, cols = maxpool_mask_reference(x)
            g = rng.standard_normal(rows.shape)  # negative entries too
            expected = np.zeros(x.shape)  # +0.0 everywhere nothing is routed
            for ch, y, col in np.ndindex(rows.shape):
                expected[ch, 2 * y + rows[ch, y, col], 2 * col + cols[ch, y, col]] = g[ch, y, col]
            assert maxpool2x2_backward(g, mask, x.shape).tobytes() == expected.tobytes()

    def test_shape_mismatch(self):
        x = np.zeros((1, 4, 4))
        _, mask = maxpool2x2(x)
        with pytest.raises(ValueError):
            maxpool2x2_backward(np.zeros((1, 3, 3)), mask, x.shape)


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
