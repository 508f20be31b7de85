import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import reference_summarize
from geostat.stats import (
    MULTIVARIATE_QUANTILES,
    SCRATCH_COPIES,
    UNIVARIATE_QUANTILES,
    SphericalSample,
    SummaryConfig,
    frechet_mean_variance,
    summarize,
    summarize_into,
)


def moment_oracle(samples):
    """Plain-Python population moments."""
    n = len(samples)
    mean = sum(samples) / n
    var = sum((v - mean) ** 2 for v in samples) / n
    if var > 0:
        skew = (sum((v - mean) ** 3 for v in samples) / n) / var**1.5
        kurt = (sum((v - mean) ** 4 for v in samples) / n) / var**2 - 3.0
    else:
        skew = kurt = 0.0
    return {
        "range": max(samples) - min(samples),
        "mean": mean,
        "std": math.sqrt(var),
        "skew": skew,
        "kurtosis": kurt,
    }


def quantile_oracle(samples, q):
    """Sorted order statistics with linear interpolation at q*(N-1)."""
    xs = sorted(samples)
    h = q * (len(xs) - 1)
    lo = int(math.floor(h))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (h - lo)


def grid_frechet_oracle(lats, lons, step_deg=0.1, pad_deg=0.5):
    """Exhaustive grid search over the padded bounding box of the points."""
    lat_grid = np.arange(np.degrees(lats.min()) - pad_deg,
                         np.degrees(lats.max()) + pad_deg + step_deg, step_deg)
    lon_grid = np.arange(np.degrees(lons.min()) - pad_deg,
                         np.degrees(lons.max()) + pad_deg + step_deg, step_deg)
    glat, glon = np.meshgrid(np.radians(lat_grid), np.radians(lon_grid),
                             indexing="ij")
    candidates = np.column_stack([
        (np.cos(glat) * np.cos(glon)).ravel(),
        (np.cos(glat) * np.sin(glon)).ravel(),
        np.sin(glat).ravel(),
    ])
    pts = np.column_stack([
        np.cos(lats) * np.cos(lons),
        np.cos(lats) * np.sin(lons),
        np.sin(lats),
    ])
    d = np.arccos(np.clip(candidates @ pts.T, -1, 1))
    totals = (d**2).sum(axis=1)
    best = int(np.argmin(totals))
    return ((glat.ravel()[best], glon.ravel()[best]), float(totals[best]))


def geodesic(a, b):
    va = np.array([np.cos(a[0]) * np.cos(a[1]), np.cos(a[0]) * np.sin(a[1]),
                   np.sin(a[0])])
    vb = np.array([np.cos(b[0]) * np.cos(b[1]), np.cos(b[0]) * np.sin(b[1]),
                   np.sin(b[0])])
    return float(np.arccos(np.clip(va @ vb, -1, 1)))


class TestSummaryConfig:
    def test_default_statistic_order(self):
        cfg = SummaryConfig()
        assert cfg.statistic_names[:5] == ("range", "mean", "std", "skew",
                                           "kurtosis")
        assert cfg.size == 5 + len(UNIVARIATE_QUANTILES)

    def test_quantile_lists(self):
        assert len(UNIVARIATE_QUANTILES) == 13
        assert len(MULTIVARIATE_QUANTILES) == 11
        assert UNIVARIATE_QUANTILES[0] == 0.001
        assert MULTIVARIATE_QUANTILES[4] == 0.25

    def test_rejects_unsorted_quantiles(self):
        with pytest.raises(ValueError):
            SummaryConfig(quantiles=(0.5, 0.2))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SummaryConfig(quantiles=(0.0, 0.5))


class TestSummarize:
    def test_simple_sample(self):
        cfg = SummaryConfig(quantiles=())
        vec = summarize([1, 2, 3], cfg)
        np.testing.assert_allclose(
            vec, [2.0, 2.0, math.sqrt(2 / 3), 0.0, -1.5])

    def test_constant_sample_degenerate(self):
        cfg = SummaryConfig(quantiles=())
        vec = summarize([7, 7, 7], cfg)
        np.testing.assert_allclose(vec, [0.0, 7.0, 0.0, 0.0, 0.0])

    @given(st.floats(-1e3, 1e3), st.integers(1, 60))
    @settings(max_examples=50)
    # The mean of three 0.1s rounds, leaving a variance of rounding error.
    @example(0.1, 3)
    def test_constant_samples_have_no_shape(self, value, n):
        vec = summarize([value] * n, SummaryConfig(quantiles=()))
        assert vec[0] == 0.0
        assert vec[3] == 0.0 and vec[4] == 0.0

    def test_constant_sample_std_is_zero(self):
        # The means of these constants round, so their centered values are
        # rounding noise of about 1e-17, not zeros.
        batch = np.array([[0.1] * 7, [0.7] * 7, [1.1] * 7])
        cfg = SummaryConfig(quantiles=())
        assert summarize([0.1, 0.1, 0.1], cfg)[2] == 0.0
        np.testing.assert_array_equal(summarize(batch, cfg)[:, 2], 0.0)

    @pytest.mark.parametrize("samples", [
        [1e200, -1e200, 3e200],
        [[1.0, 2.0, 3.0], [1e200, -1e200, 3e200]],
    ])
    def test_overflowing_variance_raises(self, samples):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="variance overflows"):
                summarize(samples, SummaryConfig())

    def test_median_of_four(self):
        cfg = SummaryConfig(quantiles=(0.5,))
        assert summarize([1, 2, 3, 4], cfg)[-1] == pytest.approx(2.5)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([], SummaryConfig())

    def test_non_finite_raises(self):
        with pytest.raises(ValueError):
            summarize([1.0, np.inf], SummaryConfig())

    def test_matches_oracle_on_random_sample(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(size=300).tolist()
        cfg = SummaryConfig(quantiles=())
        vec = summarize(samples, cfg)
        oracle = moment_oracle(samples)
        for value, name in zip(vec, cfg.statistic_names):
            assert value == pytest.approx(oracle[name], abs=1e-12)

    def test_quantiles_match_oracle_exactly(self):
        rng = np.random.default_rng(1)
        samples = rng.normal(size=101).tolist()
        got = summarize(samples, SummaryConfig(UNIVARIATE_QUANTILES))[
            -len(UNIVARIATE_QUANTILES):]
        for q, value in zip(UNIVARIATE_QUANTILES, got):
            assert value == quantile_oracle(samples, q)

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=60),
           st.integers(0, 2**16))
    @settings(max_examples=50)
    # Positive variances whose powers underflow to zero.
    @example([0.0, 7.6e-133], 0)
    @example([1e-160, 0.0, 0.0], 1)
    def test_permutation_invariance(self, samples, seed):
        cfg = SummaryConfig()
        base = summarize(samples, cfg)
        rng = np.random.default_rng(seed)
        shuffled = list(samples)
        rng.shuffle(shuffled)
        np.testing.assert_allclose(base, summarize(shuffled, cfg),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("samples,skew,kurt", [
        ([0.0, 7.6e-133], 0.0, -2.0),
        ([1e-160, 0.0, 0.0], math.sqrt(0.5), -1.5),
    ])
    def test_underflowing_variance_keeps_shape(self, samples, skew, kurt):
        cfg = SummaryConfig(quantiles=())
        vec = summarize(samples, cfg)
        # The second sample's variance is subnormal, so only a few digits
        # of the shape statistics survive.
        assert vec[3] == pytest.approx(skew, abs=1e-3)
        assert vec[4] == pytest.approx(kurt, abs=1e-3)

    def test_batched_rows_match_single_calls(self):
        rng = np.random.default_rng(2)
        batch = rng.normal(size=(3, 4, 37))
        batch[1, 2] = 0.25  # a constant distribution
        cfg = SummaryConfig()
        got = summarize(batch, cfg)
        assert got.shape == (3, 4, cfg.size)
        for i in range(3):
            for j in range(4):
                np.testing.assert_array_equal(got[i, j], summarize(batch[i, j], cfg))

    @given(st.lists(st.floats(-100, 100), min_size=3, max_size=40),
           st.floats(0.1, 10), st.floats(-50, 50))
    @settings(max_examples=50)
    def test_affine_map_property(self, samples, a, b):
        # Shape statistics are ratios of central moments; the property is
        # only numerically meaningful away from zero variance.
        assume(np.std(samples) > 1e-3)
        cfg = SummaryConfig(quantiles=(0.25, 0.5, 0.75))
        names = cfg.statistic_names
        base = dict(zip(names, summarize(samples, cfg)))
        mapped = dict(zip(names, summarize([a * v + b for v in samples], cfg)))
        assert mapped["mean"] == pytest.approx(a * base["mean"] + b, abs=1e-6)
        assert mapped["std"] == pytest.approx(a * base["std"], abs=1e-6)
        assert mapped["range"] == pytest.approx(a * base["range"], abs=1e-6)
        assert mapped["skew"] == pytest.approx(base["skew"], abs=1e-5)
        assert mapped["kurtosis"] == pytest.approx(base["kurtosis"], abs=1e-5)
        for q in ("q0.25", "q0.5", "q0.75"):
            assert mapped[q] == pytest.approx(a * base[q] + b, abs=1e-6)


def summary_cases():
    """Distributions of assorted shapes and layouts, as summarize meets
    them: rows, strided windows, constants, underflow, large values."""
    rng = np.random.default_rng(11)
    block = rng.normal(size=(5, 3, 60))
    block[2, 1] = 0.1  # a constant whose mean rounds
    block[4, 0, :30] = 0.0
    return [
        rng.normal(size=41),
        np.array([7.0]),
        np.array([0.0, 7.6e-133]),
        np.array([1e-160, 0.0, 0.0]),
        rng.normal(scale=1e150, size=(2, 9)),
        block,
        # Windows of one size laid out as the featurizer views them.
        block[:, :, 4:4 + 3 * 17].reshape(5, 3, 3, 17),
        np.full((4, 6), -2.5),
    ]


class TestSummarizeInto:
    """summarize works in reused scratch buffers; its results and errors
    are those of freshly allocated arrays, bit for bit."""

    @pytest.mark.parametrize("cfg", [SummaryConfig(),
                                     SummaryConfig(quantiles=(0.5,))])
    def test_matches_fresh_arrays(self, cfg):
        scratch = np.full(SCRATCH_COPIES * 5 * 3 * 60, np.nan)
        for x in summary_cases():
            want = reference_summarize(x, cfg)
            assert summarize(x, cfg).tobytes() == want.tobytes()
            out = np.full(x.shape[:-1] + (cfg.size,), np.nan)
            summarize_into(x, cfg, out, scratch)
            assert out.tobytes() == want.tobytes()

    def test_writes_a_strided_view(self):
        x = np.random.default_rng(3).normal(size=(4, 25))
        cfg = SummaryConfig()
        rows = np.zeros((cfg.size, 4))
        summarize_into(x, cfg, rows.T, np.empty(SCRATCH_COPIES * x.size))
        assert rows.T.tobytes() == reference_summarize(x, cfg).tobytes()

    @pytest.mark.parametrize("x", [
        np.empty((3, 0)),
        np.array([[1.0, 2.0], [np.nan, 1.0]]),
        np.array([[1.0, np.inf, 2.0]]),
        np.array([-np.inf, 1.0]),
        np.array([[1.0, 2.0, 3.0], [1e200, -1e200, 3e200]]),
        np.array([1e308, 1e308, -1e308, -1e308]),
    ], ids=["empty", "nan", "inf", "-inf", "variance-overflow",
            "mean-overflow"])
    def test_raises_as_fresh_arrays_do(self, x):
        cfg = SummaryConfig()
        with pytest.raises(ValueError) as want:
            reference_summarize(x, cfg)
        scratch = np.zeros(SCRATCH_COPIES * x.size)
        for call in (lambda: summarize(x, cfg),
                     lambda: summarize_into(x, cfg, np.empty(
                         x.shape[:-1] + (cfg.size,)), scratch)):
            with pytest.raises(ValueError) as got:
                call()
            assert str(got.value) == str(want.value)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=80),
           st.integers(1, 4))
    @settings(max_examples=60)
    @example([0.1, 0.1, 0.1], 1)
    def test_rows_match_fresh_arrays(self, values, n_rows):
        x = np.resize(np.array(values), (n_rows, len(values)))
        x[-1] = x[-1][::-1]
        cfg = SummaryConfig()
        assert (summarize(x, cfg).tobytes()
                == reference_summarize(x, cfg).tobytes())


class TestFrechet:
    def test_identical_points(self):
        s = SphericalSample([0.3, 0.3, 0.3], [1.0, 1.0, 1.0])
        (lat, lon), var = frechet_mean_variance(s)
        assert lat == pytest.approx(0.3, abs=1e-9)
        assert lon == pytest.approx(1.0, abs=1e-9)
        assert var == pytest.approx(0.0, abs=1e-12)

    def test_two_equatorial_points(self):
        s = SphericalSample([0.0, 0.0], [0.0, np.pi / 2])
        (lat, lon), var = frechet_mean_variance(s)
        assert lat == pytest.approx(0.0, abs=1e-9)
        assert lon == pytest.approx(np.pi / 4, abs=1e-9)
        assert var == pytest.approx(np.pi**2 / 8, abs=1e-9)

    def test_symmetric_points_mean_on_equator(self):
        s = SphericalSample([0.2, -0.2, 0.0], [0.0, 0.0, 0.0])
        (lat, lon), _ = frechet_mean_variance(s)
        assert lat == pytest.approx(0.0, abs=1e-9)
        assert lon == pytest.approx(0.0, abs=1e-9)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            SphericalSample([], [])

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            c_lat = rng.uniform(-1.0, 1.0)
            c_lon = rng.uniform(-2.0, 2.0)
            n = rng.integers(2, 20)
            lats = c_lat + rng.uniform(-0.15, 0.15, n)
            lons = c_lon + rng.uniform(-0.15, 0.15, n)
            mean, var = frechet_mean_variance(SphericalSample(lats, lons))
            g_mean, g_var = grid_frechet_oracle(lats, lons)
            assert geodesic(mean, g_mean) <= np.radians(0.25)
            assert var <= g_var + 1e-9
            assert g_var - var <= 1e-3

    def test_rotation_invariance_of_variance(self):
        rng = np.random.default_rng(6)
        lats = rng.uniform(0.1, 0.4, 10)
        lons = rng.uniform(-0.2, 0.2, 10)
        _, var = frechet_mean_variance(SphericalSample(lats, lons))
        # Rotate everything 40 degrees east: longitudes shift, geometry fixed.
        _, var_rot = frechet_mean_variance(
            SphericalSample(lats, lons + np.radians(40)))
        assert var_rot == pytest.approx(var, abs=1e-9)
