import collections
import csv
import io
import itertools
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from geostat import features
from geostat.features import (
    UNIVARIATE_DISTRIBUTIONS,
    UNIVARIATE_SUMMARY,
    AblationMask,
    FeatureMatrix,
    GeoStatConfig,
    extract_multivariate,
    extract_univariate,
    mask_columns,
    read_feature_csv,
    select_columns,
    univariate_grid,
    univariate_matrix,
    window_bounds,
    window_columns,
    write_feature_csv,
    z_normalize,
)
from conftest import reference_summarize
from geostat.geometry import build_stack, univariate_signals
from geostat.series import (TimeSeries, UniformSeries, equalize_lengths,
                            resample_uniform)
from geostat.stats import SummaryConfig, summarize


def sine_series(n=500, cycles=3.0):
    t = np.linspace(0, 1, n)
    return resample_uniform(TimeSeries(t, np.sin(2 * np.pi * cycles * t)), n)


def reference_summary(x, cfg):
    """One distribution at a time, with powers, as the per-window loop did;
    a constant distribution has no shape even when its mean rounds."""
    mean = float(np.mean(x))
    centered = x - mean
    var = float(np.mean(centered**2))
    if var > 0.0 and np.max(x) > np.min(x):
        skew = float(np.mean(centered**3)) / var**1.5
        kurt = float(np.mean(centered**4)) / var**2 - 3.0
    else:
        skew = kurt = 0.0
    xs = np.sort(x)
    h = np.asarray(cfg.quantiles) * (x.size - 1)
    lo = np.floor(h).astype(int)
    hi = np.minimum(lo + 1, x.size - 1)
    qs = xs[lo] + (xs[hi] - xs[lo]) * (h - lo)
    return [float(np.max(x) - np.min(x)), mean, float(np.sqrt(var)), skew,
            kurt] + qs.tolist()


def reference_row(us, cfg):
    """Feature row built series by series, distribution by distribution and
    window by window from :func:`build_stack`."""
    stack = build_stack(us, cfg.smoothing_iterations)
    dists = {
        "position": stack.base.values[:, 0],
        "velocity": stack.first_deriv.values[:, 0],
        "acceleration": stack.second_deriv.values[:, 0],
        "curvature": stack.curvature,
        "signed_curvature": stack.signed_curvature,
    }
    values, labels = [], []
    for name in UNIVARIATE_DISTRIBUTIONS:
        for w, (a, b) in enumerate(window_bounds(us.n_samples, cfg.num_windows)):
            values.extend(reference_summary(dists[name][a:b], SummaryConfig()))
            labels.extend((name, w, s) for s in SummaryConfig().statistic_names)
    return np.array(values), tuple(labels)


def mixed_collection():
    """Interleaved lengths and steps, remainders, flat stretches, padding."""
    rng = np.random.default_rng(7)
    out = []
    for n, step in [(97, 1.0), (60, 0.5), (97, 1.0), (131, 0.25), (60, 0.5),
                    (97, 2.0)]:
        values = np.cumsum(rng.normal(size=n))
        values[n // 3: n // 3 + 25] = 0.3  # a window-sized constant stretch
        out.append(UniformSeries(5.0, step, values))
    out.append(UniformSeries(0.0, 1.0, np.full(40, 0.1)))
    raw = [TimeSeries(np.arange(float(n)), np.sin(0.2 * np.arange(n))
                      + rng.normal(0, 0.1, n)) for n in (50, 80, 123)]
    out.extend(equalize_lengths(raw, min_samples=60))  # zero-padded tails
    return out


class TestWindowBounds:
    def test_partition_even(self):
        assert window_bounds(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_remainder_goes_to_leading_windows(self):
        bounds = window_bounds(10, 4)
        sizes = [b - a for a, b in bounds]
        assert sizes == [3, 3, 2, 2]

    def test_partition_covers_range(self):
        for n, w in [(500, 6), (23, 5), (7, 7)]:
            bounds = window_bounds(n, w)
            assert bounds[0][0] == 0 and bounds[-1][1] == n
            sizes = [b - a for a, b in bounds]
            assert max(sizes) - min(sizes) <= 1
            assert sum(sizes) == n

    def test_runs_equal_grouped_window_sizes(self):
        for n in range(3, 301):
            for w in range(1, n // 3 + 1):  # every count of 3+ samples each
                bounds = window_bounds(n, w)
                want = []
                first = 0
                for size, same in itertools.groupby(b - a for a, b in bounds):
                    count = len(list(same))
                    want.append((first, count, bounds[first][0], size))
                    first += count
                assert features._window_runs(n, w) == want, (n, w)


class TestExtractUnivariate:
    def test_row_length_one_window(self):
        row, labels = extract_univariate(sine_series(), GeoStatConfig())
        assert len(row) == 90
        assert len(labels) == 90

    @pytest.mark.parametrize("w,expected", [(1, 90), (2, 180), (4, 360), (6, 540)])
    def test_dimension_formula(self, w, expected):
        cfg = GeoStatConfig(num_windows=w)
        row, _ = extract_univariate(sine_series(), cfg)
        assert len(row) == expected

    def test_label_order_distribution_major(self):
        cfg = GeoStatConfig(num_windows=2)
        _, labels = extract_univariate(sine_series(), cfg)
        dists = [d for d, _, _ in labels]
        assert dists[0] == "position"
        # 2 windows x 18 statistics of position before velocity starts
        assert dists[35] == "position" and dists[36] == "velocity"
        windows = [w for _, w, _ in labels[:36]]
        assert windows[:18] == [0] * 18 and windows[18:] == [1] * 18

    def test_constant_series(self):
        us = UniformSeries(0.0, 1.0, np.full(50, 4.2))
        row, labels = extract_univariate(us, GeoStatConfig(min_samples=3))
        by_label = dict(zip(labels, row))
        assert by_label[("position", 0, "mean")] == pytest.approx(4.2)
        assert by_label[("position", 0, "std")] == pytest.approx(0.0)
        for dist in ("velocity", "acceleration", "curvature", "signed_curvature"):
            assert by_label[(dist, 0, "mean")] == pytest.approx(0.0)
            assert by_label[(dist, 0, "range")] == pytest.approx(0.0)

    def test_flat_window_has_no_shape(self):
        # The second window lies on a constant whose mean rounds.
        values = np.concatenate([np.sin(np.arange(50.0)), np.full(50, 0.1)])
        us = UniformSeries(0.0, 1.0, values)
        cfg = GeoStatConfig(num_windows=2, smoothing_iterations=0, min_samples=3)
        row, labels = extract_univariate(us, cfg)
        by_label = dict(zip(labels, row))
        for stat in ("range", "std", "skew", "kurtosis"):
            assert by_label[("position", 1, stat)] == 0.0
        assert by_label[("position", 1, "q0.5")] == 0.1

    def test_rejects_multivariate_input(self):
        us = UniformSeries(0.0, 1.0, np.ones((10, 2)))
        with pytest.raises(ValueError):
            extract_univariate(us, GeoStatConfig())

    def test_window_too_small(self):
        us = UniformSeries(0.0, 1.0, np.arange(10.0))
        with pytest.raises(ValueError):
            extract_univariate(us, GeoStatConfig(num_windows=4))

    def test_one_window_equals_global_summary(self):
        us = sine_series()
        cfg = GeoStatConfig(num_windows=1)
        row, labels = extract_univariate(us, cfg)
        stack = build_stack(us, cfg.smoothing_iterations)
        expected = summarize(stack.base.values[:, 0], UNIVARIATE_SUMMARY)
        np.testing.assert_array_equal(row[:18], expected)

    def test_window_locality(self):
        # Each window's block equals summarizing the global stack restricted
        # to that window's index range.
        us = sine_series()
        cfg = GeoStatConfig(num_windows=4)
        row, labels = extract_univariate(us, cfg)
        stack = build_stack(us, cfg.smoothing_iterations)
        bounds = window_bounds(us.n_samples, 4)
        velocity = stack.first_deriv.values[:, 0]
        for w, (a, b) in enumerate(bounds):
            block = [v for v, (d, wi, s) in zip(row, labels)
                     if d == "velocity" and wi == w]
            np.testing.assert_array_equal(
                block, summarize(velocity[a:b], UNIVARIATE_SUMMARY))


class TestUnivariateMatrix:
    @pytest.mark.parametrize("smoothing", [0, 1, 2])
    @pytest.mark.parametrize("windows", [1, 2, 3, 4, 5, 6])
    def test_matches_per_window_reference(self, smoothing, windows):
        series = mixed_collection()
        cfg = GeoStatConfig(num_windows=windows, smoothing_iterations=smoothing)
        fm = univariate_matrix(series, [str(i) for i in range(len(series))], cfg)
        for us, row in zip(series, fm.rows):
            want, labels = reference_row(us, cfg)
            assert fm.column_labels == labels
            np.testing.assert_allclose(row, want, rtol=1e-10, atol=1e-12)

    def test_block_size_does_not_change_rows(self, monkeypatch):
        series = mixed_collection()
        cfg = GeoStatConfig(num_windows=3, smoothing_iterations=1)
        whole = univariate_matrix(series, ["a"] * len(series), cfg)
        monkeypatch.setattr(features, "BLOCK_SAMPLES", 1)
        single = univariate_matrix(series, ["a"] * len(series), cfg)
        np.testing.assert_array_equal(single.rows, whole.rows)
        np.testing.assert_array_equal(
            extract_univariate(series[3], cfg)[0], whole.rows[3])

    def test_one_grid_call_per_group_block(self, monkeypatch):
        rng = np.random.default_rng(8)
        per_block = features.BLOCK_SAMPLES // 100
        long_group = [UniformSeries(0.0, 1.0, rng.normal(size=100))
                      for _ in range(2 * per_block + 10)]
        mixed = mixed_collection()
        assert all(us.n_samples != 100 for us in mixed)
        series = long_group[:per_block] + mixed + long_group[per_block:]
        labels = [str(i) for i in range(len(series))]
        grid = features.univariate_grid
        calls = []

        def counting_grid(values, step, class_labels, smoothing, windows):
            calls.append((values.shape, step, smoothing, windows))
            return grid(values, step, class_labels, smoothing, windows)

        monkeypatch.setattr(features, "univariate_grid", counting_grid)
        cfg = GeoStatConfig(num_windows=2)
        fm = univariate_matrix(series, labels, cfg)
        # The long group, over BLOCK_SAMPLES, takes three calls; each group
        # of the mixed collection fits in one.
        groups = collections.Counter((us.n_samples, us.step) for us in mixed)
        assert calls == ([((100, per_block), 1.0, 1, [2])] * 2
                         + [((100, 10), 1.0, 1, [2])]
                         + [((n, count), step, 1, [2])
                            for (n, step), count in groups.items()])
        # Rows go back in input order.
        index = [i for i, us in enumerate(series) if us.n_samples == 100]
        direct = grid(np.column_stack([series[i].values[:, 0] for i in index]),
                      1.0, [labels[i] for i in index], 1, [2])[0]
        assert fm.rows[index].tobytes() == direct.rows.tobytes()
        assert fm.labels == tuple(labels)

    def test_rejects_multivariate_member(self):
        series = [sine_series(), UniformSeries(0.0, 1.0, np.ones((500, 2)))]
        with pytest.raises(ValueError):
            univariate_matrix(series, ["a", "b"], GeoStatConfig())

    def test_peak_memory_does_not_grow_with_series_count(self):
        rng = np.random.default_rng(3)
        cfg = GeoStatConfig(num_windows=2)
        per_block = features.BLOCK_SAMPLES // 100

        def transient_peak(n_series):
            series = [UniformSeries(0.0, 1.0, rng.normal(size=100))
                      for _ in range(n_series)]
            tracemalloc.start()
            try:
                fm = univariate_matrix(series, ["a"] * n_series, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - fm.rows.nbytes

        small = transient_peak(2 * per_block)
        large = transient_peak(16 * per_block)
        # Beside the rows, each series adds only list and tuple slots;
        # featurizing all series at once would make ``large`` 8x ``small``.
        assert large < 1.1 * small


def reference_matrix_rows(series, cfg):
    """Rows of :func:`univariate_matrix` as one grid cell at a time made
    them: signals per block and cell, every array freshly allocated."""
    n_dist = len(UNIVARIATE_DISTRIBUTIONS)
    summary = SummaryConfig()
    groups = {}
    for i, us in enumerate(series):
        groups.setdefault((us.n_samples, us.step), []).append(i)
    rows = np.empty((len(series), n_dist * cfg.num_windows * summary.size))
    for (n, step), members in groups.items():
        bounds = window_bounds(n, cfg.num_windows)
        per_block = max(1, features.BLOCK_SAMPLES // n)
        for start in range(0, len(members), per_block):
            block = members[start:start + per_block]
            values = np.column_stack([series[i].values[:, 0] for i in block])
            signals = np.empty((n_dist, len(block), n))
            for out, signal in zip(signals, univariate_signals(
                    values, step, cfg.smoothing_iterations)):
                out[...] = signal.T
            out = np.empty((len(block), n_dist, len(bounds), summary.size))
            w = 0
            for size, same in itertools.groupby(b - a for a, b in bounds):
                count = len(list(same))
                a = bounds[w][0]
                part = signals[:, :, a:a + count * size].reshape(
                    n_dist, len(block), count, size)
                out[:, :, w:w + count] = reference_summarize(
                    part, summary).transpose(1, 0, 2, 3)
                w += count
            rows[block] = out.reshape(len(block), -1)
    return rows


def grid_inputs(kind):
    """Series on one grid: resampled equal-length series, or unequal
    lengths equalized with zero-padded tails. Both hold a constant series
    and window-sized flat stretches."""
    rng = np.random.default_rng(5)
    lengths = [97] * 12 if kind == "equal" else [50, 80, 123, 97, 61] * 2
    raw = []
    for i, n in enumerate(lengths):
        values = np.cumsum(rng.normal(size=n))
        values[n // 3: n // 3 + 20] = 0.3
        if i == 4:
            values[:] = 0.1
        raw.append(TimeSeries(np.arange(float(n)), values))
    if kind == "equal":
        return [resample_uniform(ts, 97) for ts in raw]
    return equalize_lengths(raw, min_samples=60)


class TestUnivariateGrid:
    """One signal pass per block for every window count gives the rows of
    per-cell featurization, bit for bit."""

    @pytest.mark.parametrize("kind", ["equal", "unequal"])
    @pytest.mark.parametrize("smoothing", [0, 1, 2])
    @pytest.mark.parametrize("block_series", [None, 5, 1],
                             ids=["default-blocks", "blocks-of-5", "blocks-of-1"])
    def test_matches_per_cell_matrices(self, monkeypatch, kind, smoothing,
                                       block_series):
        series = grid_inputs(kind)
        n = series[0].n_samples
        if block_series:
            monkeypatch.setattr(features, "BLOCK_SAMPLES", block_series * n)
        labels = [str(i % 3) for i in range(len(series))]
        windows = (1, 2, 3, 4, 5, 6)
        values = np.column_stack([us.values[:, 0] for us in series])
        grid = univariate_grid(values, series[0].step, labels, smoothing,
                               windows)
        for w, fm in zip(windows, grid, strict=True):
            cfg = GeoStatConfig(num_windows=w, smoothing_iterations=smoothing)
            want = univariate_matrix(series, labels, cfg)
            assert fm.column_labels == want.column_labels
            assert fm.labels == want.labels
            assert fm.rows.tobytes() == want.rows.tobytes()
            assert fm.rows.tobytes() == reference_matrix_rows(series, cfg).tobytes()

    def test_mixed_collection_matches_reference(self):
        series = mixed_collection()
        for windows in (1, 4):
            cfg = GeoStatConfig(num_windows=windows, smoothing_iterations=2)
            fm = univariate_matrix(series, ["a"] * len(series), cfg)
            assert fm.rows.tobytes() == reference_matrix_rows(series, cfg).tobytes()

    @pytest.mark.parametrize("values, step, labels, smoothing, windows, message", [
        (np.ones((10, 2)), 1.0, ["a"], 1, [1], "counts differ"),
        (np.ones((10, 0)), 1.0, [], 1, [1], "empty collection"),
        (np.ones(10), 1.0, ["a"], 1, [1], "samples x series"),
        (np.ones((10, 1)), 1.0, ["a"], 1, [], "at least one window count"),
        (np.ones((10, 1)), 1.0, ["a"], -1, [1], "must be non-negative"),
        (np.ones((2, 1)), 1.0, ["a"], 1, [1], "at least 3 samples"),
        (np.ones((10, 1)), 0.0, ["a"], 1, [1], "step must be positive"),
        (np.ones((10, 1)), 1.0, ["a"], 1, [4], "fewer than 3 per window"),
        (np.ones((10, 1)), 1.0, ["a"], 1, [0], "at least one window"),
    ], ids=["labels", "empty", "1-d", "no-windows", "smoothings", "short",
            "step", "windows", "zero-windows"])
    def test_rejects_bad_input(self, values, step, labels, smoothing, windows,
                               message):
        with pytest.raises(ValueError, match=message):
            univariate_grid(values, step, labels, smoothing, windows)

    def test_peak_memory_does_not_grow_with_series_count(self):
        rng = np.random.default_rng(4)
        per_block = features.BLOCK_SAMPLES // 100

        def transient_peak(n_series):
            values = rng.normal(size=(100, n_series))
            tracemalloc.start()
            try:
                grid = univariate_grid(values, 1.0, ["a"] * n_series, 1, (1, 3))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - sum(fm.rows.nbytes for fm in grid)

        assert transient_peak(16 * per_block) < 1.1 * transient_peak(2 * per_block)


class TestExtractMultivariate:
    def test_stationary_track(self):
        values = np.tile([10.0, 20.0], (60, 1))
        us = UniformSeries(0.0, 60.0, values)
        row, labels = extract_multivariate(us, GeoStatConfig())
        by_label = dict(zip(labels, row))
        assert by_label[("position", 0, "frechet_var")] == pytest.approx(0.0, abs=1e-12)
        assert by_label[("position", 0, "frechet_lat")] == pytest.approx(10.0)
        assert by_label[("speed", 0, "std")] == pytest.approx(0.0, abs=1e-9)
        assert by_label[("speed", 0, "mean")] == pytest.approx(1.0)

    def test_constant_speed_track(self):
        # Steady eastward drift along the equator: near-constant speed.
        t = np.linspace(0, 1, 400)
        values = np.column_stack([np.zeros_like(t), 10.0 * t])
        us = resample_uniform(TimeSeries(t, values), 400)
        row, labels = extract_multivariate(us, GeoStatConfig())
        by_label = dict(zip(labels, row))
        assert by_label[("speed", 0, "std")] == pytest.approx(0.0, abs=1e-6)
        assert by_label[("position", 0, "frechet_lat")] == pytest.approx(0.0, abs=1e-6)

    def test_rejects_univariate(self):
        us = UniformSeries(0.0, 1.0, np.arange(10.0))
        with pytest.raises(ValueError):
            extract_multivariate(us, GeoStatConfig())


class TestZNormalize:
    def make_matrix(self, rows, labels=None):
        n, p = np.asarray(rows).shape
        cols = tuple(("position", 0, f"s{i}") for i in range(p))
        labels = labels or ["a"] * n
        return FeatureMatrix(np.asarray(rows, dtype=float), cols, labels)

    def test_train_columns_standardized(self):
        rng = np.random.default_rng(0)
        fm = self.make_matrix(rng.normal(3, 5, (40, 6)))
        out, _, _, _ = z_normalize(fm)
        assert np.all(np.abs(out.rows.mean(axis=0)) < 1e-10)
        np.testing.assert_allclose(out.rows.std(axis=0), 1.0)

    def test_constant_column_maps_to_zero(self):
        fm = self.make_matrix([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        out, _, _, _ = z_normalize(fm)
        np.testing.assert_array_equal(out.rows[:, 1], 0.0)

    def test_flat_window_std_column_maps_to_zero(self):
        # Each series ends in a flat window whose mean may round; its std
        # is exactly 0 in every row, so the column carries no signal.
        series = [UniformSeries(0.0, 1.0, np.concatenate(
            [np.sin(np.arange(50.0) * f), np.full(50, v)]))
            for f, v in [(0.3, 0.1), (0.5, 0.7), (0.7, 1.1), (0.9, 0.3)]]
        cfg = GeoStatConfig(num_windows=2, smoothing_iterations=0,
                            min_samples=3)
        fm = univariate_matrix(series, ["a", "b", "a", "b"], cfg)
        col = fm.column_labels.index(("position", 1, "std"))
        np.testing.assert_array_equal(fm.rows[:, col], 0.0)
        out, _, _, stds = z_normalize(fm)
        assert stds[col] == 0.0
        np.testing.assert_array_equal(out.rows[:, col], 0.0)

    def test_test_row_at_train_mean_is_zero(self):
        train = self.make_matrix([[0.0, 2.0], [2.0, 6.0]])
        test = self.make_matrix([[1.0, 4.0]])
        _, (test_out,), _, _ = z_normalize(train, [test])
        np.testing.assert_allclose(test_out.rows, 0.0, atol=1e-12)

    def test_schema_mismatch_rejected(self):
        train = self.make_matrix([[0.0, 2.0], [2.0, 6.0]])
        other = FeatureMatrix(np.zeros((1, 2)),
                              (("speed", 0, "a"), ("speed", 0, "b")), ["x"])
        with pytest.raises(ValueError):
            z_normalize(train, [other])

    def test_idempotent_on_normalized_data(self):
        rng = np.random.default_rng(1)
        fm = self.make_matrix(rng.normal(size=(30, 4)))
        once, _, _, _ = z_normalize(fm)
        twice, _, _, _ = z_normalize(once)
        np.testing.assert_allclose(twice.rows, once.rows, atol=1e-10)


def masked(fm, mask):
    """The matrix without the columns the mask names, as ``ablate`` fits it."""
    return select_columns(fm, mask_columns(fm, mask))


class TestApplyMask:
    @pytest.fixture()
    def matrix(self):
        return univariate_matrix([sine_series(), sine_series(400)],
                                 ["a", "b"], GeoStatConfig())

    def test_empty_mask_is_identity(self, matrix):
        out = masked(matrix, AblationMask())
        np.testing.assert_array_equal(out.rows, matrix.rows)
        assert out.column_labels == matrix.column_labels

    def test_remove_position(self, matrix):
        out = masked(matrix, AblationMask({"position"}))
        assert out.n_columns == 72
        assert "position" not in out.distributions

    def test_remove_low_quantiles(self, matrix):
        out = masked(matrix, AblationMask(removed_statistics={"low_quantiles"}))
        assert matrix.n_columns - out.n_columns == 20
        for stat in ("q0.001", "q0.01", "q0.1", "q0.2"):
            assert stat not in out.statistics

    def test_remove_mid_and_high_quantiles(self, matrix):
        out = masked(matrix, AblationMask(removed_statistics={"mid_quantiles"}))
        assert matrix.n_columns - out.n_columns == 15
        for stat in ("q0.4", "q0.5", "q0.6"):
            assert stat not in out.statistics
        out = masked(matrix, AblationMask(removed_statistics={"high_quantiles"}))
        for stat in ("q0.8", "q0.9", "q0.99", "q0.999"):
            assert stat not in out.statistics

    def test_unknown_name_rejected(self, matrix):
        with pytest.raises(ValueError):
            masked(matrix, AblationMask({"velocityy"}))
        with pytest.raises(ValueError):
            masked(matrix, AblationMask(removed_statistics={"medain"}))

    def test_removing_everything_rejected(self, matrix):
        mask = AblationMask(set(matrix.distributions))
        with pytest.raises(ValueError):
            masked(matrix, mask)

    def test_labels_preserved(self, matrix):
        out = masked(matrix, AblationMask({"curvature"}))
        assert out.labels == matrix.labels


class TestSingleWindow:
    def test_slices_one_window(self):
        fm = univariate_matrix([sine_series()], ["a"],
                               GeoStatConfig(num_windows=4))
        keep = window_columns(fm, 2)
        w2 = select_columns(fm, keep)
        assert w2.n_columns == 90
        assert set(w for _, w, _ in w2.column_labels) == {2}
        np.testing.assert_array_equal(w2.rows, fm.rows[:, keep])

    def test_unknown_window_rejected(self):
        fm = univariate_matrix([sine_series()], ["a"], GeoStatConfig())
        with pytest.raises(ValueError):
            window_columns(fm, 3)


class TestCsvRoundtrip:
    def test_roundtrip(self, tmp_path):
        fm = univariate_matrix([sine_series(), sine_series(400)],
                               ["a", "b"], GeoStatConfig(num_windows=2))
        path = tmp_path / "features.csv"
        write_feature_csv(fm, path)
        back = read_feature_csv(path)
        np.testing.assert_array_equal(back.rows, fm.rows)
        assert back.column_labels == fm.column_labels
        assert back.labels == fm.labels

    @pytest.mark.parametrize("n_columns", [0, 3])
    def test_bytes_match_csv_writer(self, tmp_path, n_columns):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(6, n_columns)) * [1e-300, 1.0, 1e300][:n_columns]
        labels = ["a,b", 'say "hi"', "", "plain", "x\ny", "a,b"]
        cols = tuple(("position", 0, f"q{i}") for i in range(n_columns))
        fm = FeatureMatrix(values, cols, labels)
        path = tmp_path / "features.csv"
        write_feature_csv(fm, path)
        buf = io.StringIO(newline="")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([f"{d}.{w}.{s}" for d, w, s in cols] + ["label"])
        for row, label in zip(values, labels):
            writer.writerow([repr(float(v)) for v in row] + [label])
        assert path.read_bytes() == buf.getvalue().encode()
        back = read_feature_csv(path)
        assert back.labels == tuple(labels)

    def test_rerun_is_byte_identical(self, tmp_path):
        fm = univariate_matrix([sine_series()], ["a"], GeoStatConfig())
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_feature_csv(fm, p1)
        write_feature_csv(fm, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_byte_order_mark_ignored(self, tmp_path):
        fm = univariate_matrix([sine_series(), sine_series(400)],
                               ["a", "b"], GeoStatConfig(num_windows=2))
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_feature_csv(fm, plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        got, want = read_feature_csv(marked), read_feature_csv(plain)
        assert got.column_labels == want.column_labels == fm.column_labels
        assert got.labels == want.labels
        assert got.rows.tobytes() == want.rows.tobytes()


class TestWriteAtomically:
    def test_failed_write_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")

        def write(fh):
            fh.write("new\n")
            raise RuntimeError("disk gone")

        with pytest.raises(RuntimeError):
            features.write_atomically(path, write)
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_utf8_whatever_the_locale(self, tmp_path):
        # Inputs are read as UTF-8, so a label read from one must be
        # written as UTF-8 also where the locale's encoding is ASCII.
        path = tmp_path / "out.csv"
        code = ("import sys; from geostat import features; "
                "features.write_atomically(sys.argv[1], "
                "lambda fh: fh.write('caf\\u00e9\\n'))")
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
               "PYTHONPATH": os.path.dirname(os.path.dirname(
                   features.__file__))}
        subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                       check=True, timeout=60)
        assert path.read_bytes() == "café\n".encode("utf-8")
