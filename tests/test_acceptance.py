"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS line on success (run with ``pytest -s`` to see
them). The two dataset-dependent integration criteria are skipped unless the
corresponding environment variables point at local data:

* ``GEOSTAT_GFW_DIR``: directory of vessel CSV files
* ``GEOSTAT_UCR_DIR``: one archive dataset directory
* ``GEOSTAT_UCR_BEST_DTW``: published warping-baseline accuracy to beat
  (optional; defaults to the in-repo baseline's accuracy)
"""

import math
import os
import time

import numpy as np
import pytest

from conftest import (
    make_blobs,
    sine_chirp_dataset,
    ucr_rows_from_dataset,
    write_ucr_dataset,
)
from geostat.classify import (
    KNNParams,
    default_svm_grid,
    fit_model,
    grid_search_cv,
    kernel_matrix,
    knn_fit,
    knn_predict,
    nested_cv,
    predict_model,
    smo_solve,
)
from geostat.cli import main as cli_main
from geostat.dtw import DTWConfig, dtw_distance
from geostat.features import (
    AblationMask,
    FeatureMatrix,
    GeoStatConfig,
    mask_columns,
    univariate_matrix,
    write_feature_csv,
    z_normalize,
)
from geostat.geometry import build_stack
from geostat.ingest import load_ucr, series_to_time_series
from geostat.series import TimeSeries, resample_uniform
from geostat.stats import (
    SphericalSample,
    SummaryConfig,
    UNIVARIATE_QUANTILES,
    frechet_mean_variance,
    summarize,
)
from test_classify import (
    dual_objective,
    kkt_residual,
    knn_oracle,
    projected_gradient_reference,
    random_binary_problem,
)
from test_stats import geodesic, grid_frechet_oracle, moment_oracle, quantile_oracle


def report(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def test_criterion_1_geometry_oracles():
    with Timer() as timer:
        # Straight lines: zero curvature at interior points.
        t = np.linspace(0, 3, 600)
        line = build_stack(resample_uniform(TimeSeries(t, 2.5 * t - 1), 600), 0)
        assert np.max(np.abs(line.curvature[1:-1])) < 1e-10

        # Parabola through the origin: curvature 2 at the vertex.
        t = np.linspace(-1, 1, 501)
        parab = build_stack(resample_uniform(TimeSeries(t, t**2), 501), 0)
        assert abs(parab.curvature[250] - 2.0) < 1e-3

        # Same parabola one unit along: 2 / 5^(3/2).
        t = np.linspace(0, 2, 501)
        shifted = build_stack(resample_uniform(TimeSeries(t, t**2), 501), 0)
        assert abs(shifted.curvature[250] - 2.0 / 5.0**1.5) < 1e-3

        # Reflection flips the signed variant pointwise.
        rng = np.random.default_rng(0)
        values = np.cumsum(rng.normal(size=500)) * 0.05
        up = build_stack(resample_uniform(
            TimeSeries(np.arange(500.0), values), 500), 1)
        down = build_stack(resample_uniform(
            TimeSeries(np.arange(500.0), -values), 500), 1)
        np.testing.assert_allclose(down.signed_curvature,
                                   -up.signed_curvature, atol=1e-12)
    assert timer.elapsed < 5.0
    report("1 geometry oracle suite")


def test_criterion_2_statistics_oracles():
    with Timer() as timer:
        rng = np.random.default_rng(1)
        cfg = SummaryConfig(quantiles=())
        for _ in range(20):
            samples = rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 3),
                                 1000).tolist()
            vec = summarize(samples, cfg)
            oracle = moment_oracle(samples)
            for value, name in zip(vec, cfg.statistic_names):
                scale = max(1.0, abs(oracle[name]))
                assert abs(value - oracle[name]) <= 1e-12 * scale
            got_q = summarize(samples, SummaryConfig(UNIVARIATE_QUANTILES))[
                -len(UNIVARIATE_QUANTILES):]
            for q, value in zip(UNIVARIATE_QUANTILES, got_q):
                assert value == quantile_oracle(samples, q)

        for trial in range(100):
            trial_rng = np.random.default_rng(1000 + trial)
            c_lat = trial_rng.uniform(-1.0, 1.0)
            c_lon = trial_rng.uniform(-2.0, 2.0)
            n = int(trial_rng.integers(1, 21))
            lats = c_lat + trial_rng.uniform(-0.12, 0.12, n)
            lons = c_lon + trial_rng.uniform(-0.12, 0.12, n)
            mean, var = frechet_mean_variance(SphericalSample(lats, lons))
            g_mean, g_var = grid_frechet_oracle(lats, lons)
            assert geodesic(mean, g_mean) <= np.radians(0.25)
            assert var <= g_var + 1e-9
            assert g_var - var <= 1e-3
    assert timer.elapsed < 60.0
    report("2 statistics oracle suite")


def test_criterion_3_dimension_formula():
    t = np.linspace(0, 1, 500)
    us = resample_uniform(TimeSeries(t, np.sin(7 * t) + 0.3 * t), 500)
    for w in (1, 2, 4, 6):
        fm = univariate_matrix([us], ["a"], GeoStatConfig(num_windows=w))
        assert fm.n_columns == 90 * w

    fm = univariate_matrix([us], ["a"], GeoStatConfig(num_windows=2))
    # One distribution of five: 18 statistics per window, both windows.
    kept = mask_columns(fm, AblationMask({"curvature"}))
    assert fm.n_columns - len(kept) == 18 * 2
    # One statistic across 5 distributions and 2 windows.
    kept = mask_columns(fm, AblationMask(removed_statistics={"skew"}))
    assert fm.n_columns - len(kept) == 5 * 2
    # Quantile groups: low/high are 4 wide, mid is 3 wide.
    kept = mask_columns(fm, AblationMask(removed_statistics={"low_quantiles"}))
    assert fm.n_columns - len(kept) == 4 * 5 * 2
    kept = mask_columns(fm, AblationMask(removed_statistics={"mid_quantiles"}))
    assert fm.n_columns - len(kept) == 3 * 5 * 2
    report("3 dimension formula")


def test_criterion_4_classifier_oracles():
    with Timer() as timer:
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(5, 40))
            d = int(rng.integers(1, 7))
            x = rng.normal(size=(n, d))
            y = [str(v) for v in rng.integers(0, int(rng.integers(2, 5)), n)]
            k = int(rng.integers(1, min(n, 10) + 1))
            weights = str(rng.choice(["uniform", "distance"]))
            p = int(rng.choice([1, 2]))
            model = knn_fit(x, y, KNNParams(k, weights, p))
            queries = rng.normal(size=(3, d))
            got = knn_predict(model, queries)
            for query, predicted in zip(queries, got):
                assert predicted == knn_oracle(x.tolist(), y, query.tolist(),
                                               k, weights, p)

        svm_rng = np.random.default_rng(3)
        for _ in range(50):
            x, y, c, kernel, gamma = random_binary_problem(svm_rng)
            K = kernel_matrix(x, x, kernel, gamma)
            alpha, bias, converged, _ = smo_solve(K, y, c)
            assert converged
            Q = (y[:, None] * y[None, :]) * K
            _, ref_obj = projected_gradient_reference(K, y, c)
            obj = dual_objective(alpha, Q)
            assert obj >= ref_obj - 1e-3
            assert abs(obj - ref_obj) <= 1e-3
            assert kkt_residual(alpha, K, y, c, bias) < 1e-3
    assert timer.elapsed < 120.0
    report("4 classifier oracles")


def _pipeline_accuracy(train_s, train_y, test_s, test_y, seed):
    cfg = GeoStatConfig(num_windows=4, smoothing_iterations=2)
    uniform = [resample_uniform(ts, cfg.min_samples) for ts in train_s + test_s]
    train_fm = univariate_matrix(uniform[:len(train_s)], train_y, cfg)
    test_fm = univariate_matrix(uniform[len(train_s):], test_y, cfg)
    train_n, (test_n,), _, _ = z_normalize(train_fm, [test_fm])
    params, _ = grid_search_cv(train_n.rows, train_n.labels,
                               default_svm_grid(), k=10, seed=seed)
    model = fit_model(train_n.rows, train_n.labels, params)
    pred = predict_model(model, test_n.rows)
    return float(np.mean(pred == np.array(test_n.labels, dtype=object)))


def test_criterion_5_pipeline_sanity():
    with Timer() as timer:
        train_s, train_y = sine_chirp_dataset(50, length=500, noise=0.1, seed=4)
        test_s, test_y = sine_chirp_dataset(50, length=500, noise=0.1, seed=5)
        acc = _pipeline_accuracy(train_s, train_y, test_s, test_y, seed=6)
        assert acc >= 0.95

        rng = np.random.default_rng(7)
        perm_train = [train_y[i] for i in rng.permutation(len(train_y))]
        perm_test = [test_y[i] for i in rng.permutation(len(test_y))]
        chance = _pipeline_accuracy(train_s, perm_train, test_s, perm_test,
                                    seed=8)
        assert 0.35 <= chance <= 0.65
    assert timer.elapsed < 120.0
    report("5 pipeline sanity")


def test_criterion_6_dtw_baseline():
    for x in ([1.0, -2.0], [0.0, 1.0, 0.5, 2.0]):
        assert dtw_distance(x, x) == 0.0
    assert dtw_distance([0, 0, 1], [0, 1]) == 0.0
    assert dtw_distance([0.0], [3.0]) == 3.0
    assert dtw_distance([1, 2, 3], [2, 3, 4]) == pytest.approx(math.sqrt(2))
    a3, b3 = [1.0, 2.0, 3.0], [4.0, 6.0, 8.0]
    expected = math.sqrt(sum((p - q) ** 2 for p, q in zip(a3, b3)))
    assert dtw_distance(a3, b3, DTWConfig(0.0)) == pytest.approx(expected)

    rng = np.random.default_rng(9)
    for _ in range(100):
        a = rng.normal(size=int(rng.integers(4, 30)))
        b = rng.normal(size=int(rng.integers(4, 30)))
        frac_lo, frac_hi = sorted(rng.uniform(0, 1, 2))
        full = dtw_distance(a, b)
        try:
            narrow = dtw_distance(a, b, DTWConfig(frac_lo))
        except ValueError:
            narrow = None  # band cannot connect the corners
        try:
            wide = dtw_distance(a, b, DTWConfig(frac_hi))
        except ValueError:
            wide = None
        if narrow is not None and wide is not None:
            assert wide <= narrow + 1e-12
        if wide is not None:
            assert full <= wide + 1e-12
    report("6 warping baseline")


def test_criterion_7_determinism(tmp_path):
    train_s, train_y = sine_chirp_dataset(8, length=40, noise=0.02, seed=10)
    test_s, test_y = sine_chirp_dataset(4, length=40, noise=0.02, seed=11)
    dataset = write_ucr_dataset(tmp_path / "Tiny", "Tiny",
                                ucr_rows_from_dataset(train_s, train_y),
                                ucr_rows_from_dataset(test_s, test_y))

    def run_evaluate(out):
        rc = cli_main(["evaluate", "--dataset", str(dataset), "--out", str(out),
                       "--seed", "21", "--jobs", "2", "--repetitions", "2",
                       "--smoothings", "0,1", "--windows", "1,2",
                       "--models", "knn,svm", "--min-samples", "40",
                       "--folds", "4"])
        assert rc == 0

    run_evaluate(tmp_path / "eval_a")
    run_evaluate(tmp_path / "eval_b")
    for name in ("results.csv", "summary.csv"):
        a = (tmp_path / "eval_a" / name).read_bytes()
        b = (tmp_path / "eval_b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"

    x, y = make_blobs(20, [0.0, 3.0], seed=12)
    cols = tuple(("position", 0, f"s{i}") for i in range(x.shape[1]))
    feat_dir = tmp_path / "feat"
    feat_dir.mkdir()
    write_feature_csv(FeatureMatrix(x, cols, y), feat_dir / "features.csv")

    def run_nested(out):
        rc = cli_main(["nested", "--dataset", str(feat_dir),
                       "--format", "features", "--out", str(out),
                       "--seed", "22", "--jobs", "2", "--repetitions", "2",
                       "--models", "knn,svm", "--folds", "5"])
        assert rc == 0

    run_nested(tmp_path / "nest_a")
    run_nested(tmp_path / "nest_b")
    for name in ("nested_folds.csv", "nested_summary.csv",
                 "confusion_knn.csv", "confusion_svm.csv"):
        a = (tmp_path / "nest_a" / name).read_bytes()
        b = (tmp_path / "nest_b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    report("7 determinism")


FISHING_CLASSES = {"drifting_longlines", "fixed_gear", "pole_and_line",
                   "purse_seines", "trawlers", "trollers"}


@pytest.mark.skipif("GEOSTAT_GFW_DIR" not in os.environ,
                    reason="set GEOSTAT_GFW_DIR to run the vessel integration")
def test_criterion_8_vessel_integration():
    from geostat.ingest import filter_labels, load_vessels, vessel_feature_matrix

    tracks = load_vessels(os.environ["GEOSTAT_GFW_DIR"])
    usable = filter_labels(tracks)
    assert len(usable) == 1107

    fm = vessel_feature_matrix(usable)
    normed, _, _, _ = z_normalize(fm)

    from geostat.classify import default_knn_grid
    expectations = {"svm": (default_svm_grid(), 0.6921),
                    "knn": (default_knn_grid(), 0.6701)}
    means = {}
    for model, (grid, target) in expectations.items():
        iteration_scores = []
        for it in range(30):
            seed = np.random.SeedSequence([8, 0, it])
            rep = nested_cv(normed.rows, normed.labels, grid,
                            outer_k=10, inner_k=10, seed=seed)
            iteration_scores.append(rep.mean)
        means[model] = float(np.mean(iteration_scores))
        assert abs(means[model] - target) <= 0.03

    binary_map = {c: ("fishing" if c in FISHING_CLASSES else "non_fishing")
                  for c in set(normed.labels)}
    binary_labels = tuple(binary_map[l] for l in normed.labels)
    rep = nested_cv(normed.rows, binary_labels, default_svm_grid(),
                    outer_k=10, inner_k=10, seed=np.random.SeedSequence([8, 1]))
    assert abs(rep.mean - 0.90) <= 0.03
    report("8 vessel integration")


@pytest.mark.skipif("GEOSTAT_UCR_DIR" not in os.environ,
                    reason="set GEOSTAT_UCR_DIR to run the archive integration")
def test_criterion_9_archive_integration():
    from geostat.dtw import nn_dtw_classify
    from geostat.series import equalize_lengths

    ds = load_ucr(os.environ["GEOSTAT_UCR_DIR"])
    if "GEOSTAT_UCR_BEST_DTW" in os.environ:
        bar = float(os.environ["GEOSTAT_UCR_BEST_DTW"])
    else:
        pred = nn_dtw_classify(ds.train_series, ds.train_labels,
                               ds.test_series)
        bar = float(np.mean(pred == np.array(ds.test_labels, dtype=object)))

    all_ts = [series_to_time_series(v)
              for v in ds.train_series + ds.test_series]
    if ds.equal_length:
        uniform = [resample_uniform(ts, 500) for ts in all_ts]
    else:
        uniform = equalize_lengths(all_ts, 500)
    n_train = len(ds.train_series)

    from geostat.classify import default_knn_grid
    best = 0.0
    for w in (1, 2, 4, 6):
        for s in (0, 1, 2):
            cfg = GeoStatConfig(num_windows=w, smoothing_iterations=s)
            train_fm = univariate_matrix(uniform[:n_train],
                                         list(ds.train_labels), cfg)
            test_fm = univariate_matrix(uniform[n_train:],
                                        list(ds.test_labels), cfg)
            train_n, (test_n,), _, _ = z_normalize(train_fm, [test_fm])
            for model, grid in (("knn", default_knn_grid()),
                                ("svm", default_svm_grid())):
                run_scores = []
                for run in range(5):
                    seed = np.random.SeedSequence([9, w, s, run])
                    params, _ = grid_search_cv(train_n.rows, train_n.labels,
                                               grid, k=10, seed=seed)
                    fitted = fit_model(train_n.rows, train_n.labels, params)
                    pred = predict_model(fitted, test_n.rows)
                    run_scores.append(float(np.mean(
                        pred == np.array(test_n.labels, dtype=object))))
                best = max(best, float(np.mean(run_scores)))
    assert best >= bar
    report("9 archive integration")
