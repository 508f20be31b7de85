import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geostat.series import (
    TimeSeries,
    UniformSeries,
    _smooth_runs,
    equalize_lengths,
    interpolate_at,
    laplacian_smooth,
    resample_uniform,
    smooth_values,
)


def uniform(values, start=0.0, step=1.0):
    return UniformSeries(start, step, np.asarray(values, dtype=float))


class TestTimeSeries:
    def test_rejects_non_increasing_timestamps(self):
        with pytest.raises(ValueError):
            TimeSeries([0, 1, 1], [1, 2, 3])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            TimeSeries([0, 1], [1, 2, 3])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            TimeSeries([0, 1], [np.nan, 1])

    def test_values_are_immutable(self):
        ts = TimeSeries([0, 1], [1, 2])
        with pytest.raises(ValueError):
            ts.values[0] = 5.0


class TestInterpolateAt:
    def test_midpoint_of_segment(self):
        ts = TimeSeries([0, 1], [0, 2])
        assert interpolate_at(ts, 0.5) == pytest.approx(1.0)

    def test_constant_series(self):
        ts = TimeSeries([0, 2], [5, 5])
        assert interpolate_at(ts, 1.3) == pytest.approx(5.0)

    def test_second_segment(self):
        ts = TimeSeries([0, 1, 3], [0, 1, 5])
        assert interpolate_at(ts, 2.0) == pytest.approx(3.0)

    def test_exact_at_sample_times(self):
        ts = TimeSeries([0, 1, 3], [0.5, -1.0, 2.5])
        for t, v in zip([0, 1, 3], [0.5, -1.0, 2.5]):
            assert interpolate_at(ts, t) == pytest.approx(v)

    def test_out_of_range_raises(self):
        ts = TimeSeries([0, 1], [0, 1])
        with pytest.raises(ValueError):
            interpolate_at(ts, -0.1)
        with pytest.raises(ValueError):
            interpolate_at(ts, 1.1)

    def test_multidimensional(self):
        ts = TimeSeries([0, 1], [[0, 10], [2, 20]])
        np.testing.assert_allclose(interpolate_at(ts, 0.5), [1, 15])

    def test_matches_the_two_point_formula_bit_for_bit(self):
        rng = np.random.default_rng(8)
        t = np.cumsum(rng.uniform(0.1, 2.0, 40))
        values = rng.normal(scale=1e3, size=(40, 7))
        query = np.sort(rng.uniform(t[0], t[-1], 300))
        idx = np.clip(np.searchsorted(t, query, side="right"), 1, t.size - 1)
        frac = ((query - t[idx - 1]) / (t[idx] - t[idx - 1]))[:, None]
        want = values[idx - 1] + frac * (values[idx] - values[idx - 1])
        got = interpolate_at(TimeSeries(t, values), query)
        assert got.tobytes() == want.tobytes()
        for column in range(values.shape[1]):
            alone = interpolate_at(TimeSeries(t, values[:, column]), query)
            assert alone.tobytes() == want[:, column:column + 1].tobytes()


class TestResampleUniform:
    def test_linear_ramp_invariant(self):
        ts = TimeSeries([0, 1, 2], [0, 1, 2])
        us = resample_uniform(ts, 5)
        np.testing.assert_allclose(us.values[:, 0], [0, 0.5, 1, 1.5, 2])

    def test_constant_series(self):
        ts = TimeSeries([0, 3], [4, 4])
        us = resample_uniform(ts, 7)
        np.testing.assert_allclose(us.values[:, 0], 4.0)

    def test_never_downsamples(self):
        t = np.linspace(0, 1, 600)
        ts = TimeSeries(t, np.sin(t))
        assert resample_uniform(ts, 500).n_samples == 600

    def test_endpoints_preserved(self):
        ts = TimeSeries([0, 0.3, 1.7, 2], [1.5, 0, 3, -2])
        us = resample_uniform(ts, 10)
        assert us.values[0, 0] == pytest.approx(1.5)
        assert us.values[-1, 0] == pytest.approx(-2.0)

    def test_zero_duration_raises(self):
        with pytest.raises(ValueError):
            resample_uniform(TimeSeries([0, 1], [0, 1]), 2)

    def test_refinement_roundtrip_is_exact(self):
        # New grid contains the original knots, so re-interpolating at the
        # original timestamps reproduces the values exactly.
        t = np.arange(6.0)
        values = np.array([0.0, 2.0, -1.0, 4.0, 4.0, 0.5])
        us = resample_uniform(TimeSeries(t, values), 11)
        back = TimeSeries(us.timestamps, us.values)
        np.testing.assert_allclose(interpolate_at(back, t)[:, 0], values,
                                   atol=1e-12)


class TestLaplacianSmooth:
    def test_constants_preserved(self):
        us = uniform([5, 5, 5, 5])
        for iterations in (0, 1, 5):
            np.testing.assert_array_equal(
                laplacian_smooth(us, iterations).values, us.values)

    def test_alternating_signal(self):
        us = uniform([0, 1, 0, 1, 0])
        out = laplacian_smooth(us, 1)
        np.testing.assert_allclose(out.values[:, 0], [0, 0, 1, 0, 0])

    def test_linear_ramp_fixed_point(self):
        us = uniform([0, 1, 2, 3])
        out = laplacian_smooth(us, 1)
        np.testing.assert_allclose(out.values[:, 0], [0, 1, 2, 3])

    def test_zero_iterations_is_identity(self):
        us = uniform([3, -1, 4, 1])
        np.testing.assert_array_equal(laplacian_smooth(us, 0).values, us.values)

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError):
            laplacian_smooth(uniform([1, 2, 3]), -1)

    @given(st.lists(st.floats(-100, 100), min_size=3, max_size=30),
           st.integers(0, 10))
    def test_endpoints_invariant(self, values, iterations):
        us = uniform(values)
        out = laplacian_smooth(us, iterations)
        assert out.values[0, 0] == values[0]
        assert out.values[-1, 0] == values[-1]

    @given(st.lists(st.floats(-50, 50), min_size=3, max_size=20),
           st.lists(st.floats(-50, 50), min_size=3, max_size=20),
           st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=50)
    def test_linearity(self, xs, ys, a, b):
        n = min(len(xs), len(ys))
        x = np.array(xs[:n])
        y = np.array(ys[:n])
        left = laplacian_smooth(uniform(a * x + b * y), 1).values
        right = (a * laplacian_smooth(uniform(x), 1).values
                 + b * laplacian_smooth(uniform(y), 1).values)
        np.testing.assert_allclose(left, right, atol=1e-8)

    @given(st.lists(st.floats(-100, 100), min_size=3, max_size=30),
           st.integers(1, 5))
    @settings(max_examples=50)
    def test_total_variation_never_increases(self, values, iterations):
        x = np.array(values)
        out = laplacian_smooth(uniform(x), iterations).values[:, 0]
        tv = np.abs(np.diff(x)).sum()
        tv_out = np.abs(np.diff(out)).sum()
        assert tv_out <= tv + 1e-9

    @given(st.lists(st.lists(st.floats(-100, 100), min_size=3, max_size=12),
                    min_size=1, max_size=5),
           st.integers(0, 10))
    @settings(max_examples=50)
    def test_series_end_to_end_match_each_alone(self, parts, iterations):
        sizes = np.array([len(p) for p in parts])
        first = np.cumsum(sizes) - sizes
        got = _smooth_runs(np.concatenate(parts), iterations,
                           np.concatenate([first, first + sizes - 1]))
        want = np.concatenate([smooth_values(p, iterations) for p in parts])
        assert np.array_equal(got, want)


class TestEqualizeLengths:
    def test_equal_length_series_unchanged(self):
        a = TimeSeries(np.arange(5.0), [1, 2, 3, 4, 5])
        b = TimeSeries(np.arange(5.0), [5, 4, 3, 2, 1])
        out = equalize_lengths([a, b], min_samples=5)
        assert [u.n_samples for u in out] == [5, 5]
        np.testing.assert_allclose(out[0].values[:, 0], [1, 2, 3, 4, 5])
        np.testing.assert_allclose(out[1].values[:, 0], [5, 4, 3, 2, 1])

    def test_shorter_series_zero_padded(self):
        long = TimeSeries(np.arange(11.0), np.ones(11))
        short = TimeSeries(np.arange(6.0), np.ones(6))
        out = equalize_lengths([long, short], min_samples=11)
        assert all(u.n_samples == 11 for u in out)
        np.testing.assert_allclose(out[1].values[:6, 0], 1.0)
        np.testing.assert_allclose(out[1].values[6:, 0], 0.0)

    def test_single_series(self):
        ts = TimeSeries(np.arange(4.0), [0, 1, 2, 3])
        out = equalize_lengths([ts], min_samples=7)
        assert len(out) == 1
        assert out[0].n_samples == 7

    def test_common_step_shared(self):
        a = TimeSeries(np.arange(11.0), np.ones(11))
        b = TimeSeries(np.arange(6.0), np.ones(6))
        out = equalize_lengths([a, b], min_samples=21)
        assert out[0].step == pytest.approx(out[1].step)
        assert all(u.n_samples == 21 for u in out)

    def test_empty_collection_raises(self):
        with pytest.raises(ValueError):
            equalize_lengths([])
