import numpy as np
import pytest

from geostat.geometry import (
    _diff_values,
    build_stack,
    speed,
)
from geostat.series import TimeSeries, UniformSeries, resample_uniform


def uniform(values, step=1.0):
    return UniformSeries(0.0, step, np.asarray(values, dtype=float))


def diff(us):
    """The numerical derivative of a uniform series, on the same grid."""
    return us.with_values(_diff_values(us.values, us.step))


def parabola_stack(t_lo, t_hi, n, sign=1.0, smoothing=0):
    t = np.linspace(t_lo, t_hi, n)
    us = resample_uniform(TimeSeries(t, sign * t**2), n)
    return build_stack(us, smoothing)


class TestFiniteDifference:
    def test_linear_ramp_exact(self):
        us = uniform([0, 2, 4, 6, 8])
        np.testing.assert_allclose(diff(us).values[:, 0], 2.0)

    def test_constant_is_zero(self):
        us = uniform([7, 7, 7, 7])
        np.testing.assert_allclose(diff(us).values[:, 0], 0.0)

    def test_hand_values(self):
        us = uniform([0, 1, 4])
        np.testing.assert_allclose(diff(us).values[:, 0], [1, 2, 3])

    def test_quadratic_exact_at_interior(self):
        t = np.arange(9.0)
        us = uniform(3 * t**2 - 2 * t + 1)
        fd = diff(us).values[:, 0]
        np.testing.assert_allclose(fd[1:-1], (6 * t - 2)[1:-1], atol=1e-10)

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            UniformSeries(0.0, 1.0, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            _diff_values(np.array([1.0, 2.0]), 1.0)

    @pytest.mark.parametrize("shape", [(), (2,)], ids=["1-d", "2-d"])
    def test_series_end_to_end_match_each_alone(self, shape):
        rng = np.random.default_rng(8)
        parts = [(rng.normal(size=(n,) + shape), step)
                 for n, step in ((5, 0.3), (3, 2.0), (7, 1.0), (4, 0.1))]
        sizes = np.array([len(v) for v, _ in parts])
        first = np.cumsum(sizes) - sizes
        step = np.repeat([h for _, h in parts], sizes)
        got = _diff_values(np.concatenate([v for v, _ in parts]),
                           step.reshape((-1,) + (1,) * len(shape)),
                           first, first + sizes - 1)
        want = np.concatenate([_diff_values(v, h) for v, h in parts])
        assert np.array_equal(got, want)


class TestSpeed:
    def test_stationary(self):
        assert speed(0.0) == pytest.approx(1.0)

    def test_scalar_slope(self):
        assert speed(3.0) == pytest.approx(np.sqrt(10))

    def test_vector(self):
        assert speed(np.array([3.0, 4.0])) == pytest.approx(np.sqrt(26))

    def test_series_at_least_one(self):
        rng = np.random.default_rng(0)
        arr = rng.normal(size=(50, 3))
        assert np.all(speed(arr) >= 1.0)


class TestCurvature:
    def test_linear_series_zero(self):
        us = uniform(5.0 * np.arange(10.0) - 2.0)
        stack = build_stack(us, 0)
        np.testing.assert_allclose(stack.curvature[1:-1], 0.0, atol=1e-12)

    def test_parabola_at_origin(self):
        stack = parabola_stack(-1, 1, 501)
        assert stack.curvature[250] == pytest.approx(2.0, abs=1e-3)

    def test_parabola_at_one(self):
        stack = parabola_stack(0, 2, 501)
        assert stack.curvature[250] == pytest.approx(2.0 / 5.0**1.5, abs=1e-3)

    def test_signed_curvature_sign(self):
        up = parabola_stack(-1, 1, 501)
        down = parabola_stack(-1, 1, 501, sign=-1.0)
        assert up.signed_curvature[250] == pytest.approx(2.0, abs=1e-3)
        assert down.signed_curvature[250] == pytest.approx(-2.0, abs=1e-3)

    def test_signed_curvature_of_line_zero(self):
        stack = build_stack(uniform(np.arange(8.0)), 0)
        np.testing.assert_allclose(stack.signed_curvature[1:-1], 0.0,
                                   atol=1e-12)

    def test_signed_rejects_multivariate(self):
        # Signed curvature is defined for univariate series only.
        assert build_stack(uniform(np.ones((5, 2))), 0).signed_curvature is None

    def test_magnitude_equals_abs_signed(self):
        rng = np.random.default_rng(3)
        us = uniform(rng.normal(size=30), step=0.1)
        for smoothing in (0, 2):
            stack = build_stack(us, smoothing)
            np.testing.assert_array_equal(stack.curvature,
                                          np.abs(stack.signed_curvature))

    def test_offset_invariance(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=40)
        a = build_stack(uniform(values, step=0.2), 1)
        b = build_stack(uniform(values + 11.5, step=0.2), 1)
        np.testing.assert_allclose(a.curvature, b.curvature, atol=1e-10)

    def test_time_reversal_invariance_interior(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=60)
        fwd = build_stack(uniform(values, step=0.2), 0)
        rev = build_stack(uniform(values[::-1], step=0.2), 0)
        np.testing.assert_allclose(fwd.curvature[2:-2],
                                   rev.curvature[::-1][2:-2], atol=1e-10)


class TestBuildStack:
    def test_constant_series(self):
        stack = build_stack(uniform(np.full(20, 3.0)), 2)
        np.testing.assert_allclose(stack.first_deriv.values, 0.0)
        np.testing.assert_allclose(stack.second_deriv.values, 0.0)
        np.testing.assert_allclose(stack.curvature, 0.0)
        np.testing.assert_allclose(stack.signed_curvature, 0.0)
        np.testing.assert_allclose(stack.speed, 1.0)
        np.testing.assert_allclose(stack.speed_deriv, 0.0)

    def test_zero_iterations_matches_raw_differences(self):
        rng = np.random.default_rng(6)
        us = uniform(rng.normal(size=25))
        stack = build_stack(us, 0)
        np.testing.assert_array_equal(stack.base.values, us.values)
        np.testing.assert_array_equal(stack.first_deriv.values,
                                      diff(us).values)

    def test_sine_wave_against_analytic(self):
        t = np.linspace(0, 2 * np.pi, 1000)
        us = resample_uniform(TimeSeries(t, np.sin(t)), 1000)
        stack = build_stack(us, 1)
        analytic = np.abs(-np.sin(t)) / (1 + np.cos(t)**2) ** 1.5
        np.testing.assert_allclose(stack.curvature[5:-5], analytic[5:-5],
                                   atol=1e-2)
        # Curvature peaks where the wave peaks.
        assert stack.curvature[250] > stack.curvature[500]

    def test_stack_signed_consistency_with_smoothing(self):
        rng = np.random.default_rng(7)
        us = uniform(rng.normal(size=50), step=0.2)
        stack = build_stack(us, 3)
        np.testing.assert_allclose(np.abs(stack.signed_curvature),
                                   stack.curvature)

    def test_components_share_grid(self):
        us = uniform(np.sin(np.arange(30.0)), step=0.5)
        stack = build_stack(us, 1)
        for comp in (stack.first_deriv, stack.second_deriv):
            assert comp.n_samples == us.n_samples
            assert comp.step == us.step
        for arr in (stack.speed, stack.speed_deriv, stack.curvature):
            assert len(arr) == us.n_samples

    def test_multivariate_stack(self):
        t = np.linspace(0, 2 * np.pi, 400)
        us = resample_uniform(
            TimeSeries(t, np.column_stack([np.cos(t), np.sin(t)])), 400)
        stack = build_stack(us, 1)
        assert stack.signed_curvature is None
        assert np.all(stack.curvature >= 0)
        assert np.all(stack.speed >= 1)
