import math
import tracemalloc

import numpy as np
import pytest

from conftest import make_blobs
from geostat import classify
from geostat.classify import (
    CVReport,
    KNNParams,
    SVMParams,
    accuracy,
    confusion_matrix,
    default_knn_grid,
    default_svm_grid,
    grid_search_cv,
    kernel_matrix,
    kfold_splits,
    knn_fit,
    knn_predict,
    nested_cv,
    smo_solve,
    sorted_classes,
    svm_fit,
    svm_predict,
)


# ---------------------------------------------------------------------------
# independent reference implementations
# ---------------------------------------------------------------------------

def knn_oracle(train_x, train_y, query, k, weights, p):
    """Exhaustive scan with the same tie rules as the classifier."""
    scored = []
    for idx, (row, label) in enumerate(zip(train_x, train_y)):
        if p == 1:
            d = sum(abs(a - b) for a, b in zip(row, query))
        else:
            d = math.sqrt(sum((a - b) ** 2 for a, b in zip(row, query)))
        scored.append((d, idx, label))
    scored.sort(key=lambda t: (t[0], t[1]))
    top = scored[:k]
    classes = sorted_classes(train_y)
    votes = {c: 0.0 for c in classes}
    if weights == "distance":
        zero = [t for t in top if t[0] == 0.0]
        if zero:
            for _, _, label in zero:
                votes[label] += 1.0
        else:
            for d, _, label in top:
                votes[label] += 1.0 / d
    else:
        for _, _, label in top:
            votes[label] += 1.0
    best = classes[0]
    for c in classes[1:]:
        if votes[c] > votes[best]:
            best = c
    return best


def dual_objective(alpha, Q):
    return float(alpha.sum() - 0.5 * alpha @ Q @ alpha)


def project_box_hyperplane(v, y, c):
    """Project onto {0 <= a <= c, sum(a * y) = 0} by breakpoint search.

    The residual ``r(nu) = y @ clip(v - nu * y, 0, c)`` is nonincreasing and
    piecewise linear in nu, with kinks where an entry meets 0 or c. It is
    evaluated at all sorted kinks at once, and its root is interpolated on
    the first piece where it stops being positive. At the last kink every
    entry is clipped, so r there is ``-c * #(y < 0) <= 0``.
    """
    knots = np.sort(np.concatenate([v * y, (v - c) * y]))
    r = np.clip(v - knots[:, None] * y, 0.0, c) @ y
    k = int(np.argmax(r <= 0))
    nu = knots[0]
    if k > 0:
        lo, hi = knots[k - 1], knots[k]
        nu = lo + r[k - 1] * (hi - lo) / (r[k - 1] - r[k])
    return np.clip(v - nu * y, 0.0, c)


def project_box_hyperplane_bisection(v, y, c):
    """Project onto {0 <= a <= c, sum(a * y) = 0} by bisection."""
    def residual(nu):
        return float(y @ np.clip(v - nu * y, 0.0, c))

    lo, hi = -1e6, 1e6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual(mid) > 0:
            lo = mid
        else:
            hi = mid
    return np.clip(v - 0.5 * (lo + hi) * y, 0.0, c)


def projected_gradient_reference(K, y, c, iterations=40000):
    """Accelerated projected-gradient ascent on the soft-margin dual."""
    Q = (y[:, None] * y[None, :]) * K
    step = 1.0 / max(float(np.linalg.eigvalsh(Q).max()), 1e-9)
    alpha = project_box_hyperplane(np.zeros_like(y), y, c)
    z = alpha.copy()
    t = 1.0
    best = dual_objective(alpha, Q)
    for _ in range(iterations):
        grad = 1.0 - Q @ z
        new = project_box_hyperplane(z + step * grad, y, c)
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        z = new + ((t - 1.0) / t_new) * (new - alpha)
        obj = dual_objective(new, Q)
        if obj < best - 1e-12:
            # Momentum overshot: restart from the best point found.
            z = new.copy()
            t_new = 1.0
        best = max(best, obj)
        if np.max(np.abs(new - alpha)) < 1e-14:
            alpha = new
            break
        alpha = new
        t = t_new
    return alpha, best


def kkt_residual(alpha, K, y, c, bias):
    f = K @ (alpha * y) + bias
    worst = 0.0
    eps = 1e-8 * max(1.0, c)
    for a_i, y_i, f_i in zip(alpha, y, f):
        margin = y_i * f_i
        if a_i < eps:
            viol = max(0.0, 1.0 - margin)
        elif a_i > c - eps:
            viol = max(0.0, margin - 1.0)
        else:
            viol = abs(margin - 1.0)
        worst = max(worst, viol)
    return worst


def random_binary_problem(rng):
    n = int(rng.integers(6, 21))
    d = int(rng.integers(1, 6))
    x = rng.normal(size=(n, d))
    y = rng.choice([-1.0, 1.0], size=n)
    if np.all(y == y[0]):
        y[0] = -y[0]
    # Nudge the classes apart so some problems are separable, some not.
    x += 0.8 * y[:, None]
    c = float(rng.choice([0.1, 1.0, 10.0]))
    kernel = str(rng.choice(["linear", "rbf", "poly"]))
    gamma = 1.0 / d
    return x, y, c, kernel, gamma


def reference_smo(K, y, c, tol=1e-3, max_steps=None):
    """The earlier solver, which recomputes the violation vector and both
    working sets at every step; ``smo_solve`` must match it bit for bit."""
    y = np.asarray(y, dtype=float)
    n = y.size
    if max_steps is None:
        max_steps = 10 * n * n
    alpha = np.zeros(n)
    grad = -np.ones(n)
    diag = np.diag(K).copy()
    eps = 1e-12
    converged = False
    m_val = M_val = 0.0
    for _ in range(int(max_steps)):
        yg = -y * grad
        up = ((y > 0) & (alpha < c - eps)) | ((y < 0) & (alpha > eps))
        low = ((y < 0) & (alpha < c - eps)) | ((y > 0) & (alpha > eps))
        if not up.any() or not low.any():
            converged = True
            m_val = yg[up].max() if up.any() else 0.0
            M_val = yg[low].min() if low.any() else m_val
            break
        up_idx = np.flatnonzero(up)
        low_idx = np.flatnonzero(low)
        i = up_idx[np.argmax(yg[up_idx])]
        j = low_idx[np.argmin(yg[low_idx])]
        m_val = yg[i]
        M_val = yg[j]
        if m_val - M_val <= tol:
            converged = True
            break
        eta = max(diag[i] + diag[j] - 2.0 * K[i, j], 1e-12)
        s = y[i] * y[j]
        if s < 0:
            lo = max(0.0, alpha[j] - alpha[i])
            hi = min(c, c + alpha[j] - alpha[i])
        else:
            lo = max(0.0, alpha[i] + alpha[j] - c)
            hi = min(c, alpha[i] + alpha[j])
        a_j_new = alpha[j] + y[j] * (y[i] * grad[i] - y[j] * grad[j]) / eta
        a_j_new = min(max(a_j_new, lo), hi)
        d_j = a_j_new - alpha[j]
        d_i = -s * d_j
        if abs(d_j) < 1e-15:
            converged = m_val - M_val <= tol
            break
        alpha[i] += d_i
        alpha[j] += d_j
        grad += (y * y[i] * K[:, i]) * d_i + (y * y[j] * K[:, j]) * d_j
    bias = (m_val + M_val) / 2.0
    return alpha, float(bias), converged


def exact_match_problems():
    """(name, K, y, c, max_steps) covering every exit of the solver."""
    rng = np.random.default_rng(11)
    for n in (2, 3, 4, 6, 10, 18, 30, 50, 90, 160, 300):
        for kernel in ("linear", "rbf", "poly"):
            for c in (0.1, 1.0, 10.0):
                d = int(rng.integers(1, 6))
                y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
                x = rng.normal(size=(n, d)) + 0.8 * y[:, None]
                yield (f"{kernel} n={n} c={c}", kernel_matrix(x, x, kernel, 1.0 / d),
                       y, c, None)
    for t in range(60):
        x, y, c, kernel, gamma = random_binary_problem(rng)
        yield f"random {t}", kernel_matrix(x, x, kernel, gamma), y, c, None
    for t in range(12):
        # Every point twice, once per label: pairs of equal rows give
        # eta = 0, which the solver clamps.
        x = rng.normal(size=(3 + t, 2))
        x = np.vstack([x, x])
        y = np.repeat([1.0, -1.0], 3 + t)
        kernel = ("linear", "rbf", "poly")[t % 3]
        yield f"duplicates {t}", kernel_matrix(x, x, kernel, 0.5), y, 10.0, None
    for n in (1, 2, 7):
        # One class only: a working set is empty from the start.
        x = rng.normal(size=(n, 2))
        K = kernel_matrix(x, x, "rbf", 0.5)
        yield f"all +1 n={n}", K, np.ones(n), 1.0, None
        yield f"all -1 n={n}", K, -np.ones(n), 1.0, None
    for steps in (1, 3):
        for kernel in ("linear", "rbf", "poly"):
            x, labels = make_blobs(12, [0.0, 1.0], spread=2.0, seed=steps)
            y = np.where(np.array(labels) == "0", 1.0, -1.0)
            yield (f"max_steps={steps} {kernel}", kernel_matrix(x, x, kernel, 1.0),
                   y, 10.0, steps)
    for scale in (1e8, 3e8, 1e9):
        # Badly scaled features: the first step moves alpha by less than
        # 1e-15, so the pair is numerically stuck.
        x = np.array([[-1.0], [1.0], [0.5]]) * scale
        yield (f"stuck scale={scale:g}", kernel_matrix(x, x, "linear", 1.0),
               np.array([1.0, -1.0, -1.0]), 1.0, None)


# ---------------------------------------------------------------------------
# KNN
# ---------------------------------------------------------------------------

def test_projection_matches_bisection():
    rng = np.random.default_rng(11)
    for _ in range(500):
        n = int(rng.integers(1, 40))
        y = rng.choice([-1.0, 1.0], n)
        c = float(rng.choice([0.1, 1.0, 10.0, 100.0]))
        v = rng.normal(0.0, rng.choice([0.1, 1.0, 30.0]), n)
        got = project_box_hyperplane(v, y, c)
        np.testing.assert_allclose(
            got, project_box_hyperplane_bisection(v, y, c),
            rtol=0, atol=1e-12 * c)
        assert np.all((got >= 0.0) & (got <= c))


class TestKNN:
    def test_training_points_self_predict(self):
        x, y = make_blobs(5, [0.0, 4.0], seed=0)
        model = knn_fit(x, y, KNNParams(1, "uniform", 2))
        np.testing.assert_array_equal(knn_predict(model, x), np.array(y, dtype=object))

    def test_two_point_example(self):
        model = knn_fit([[0.0], [10.0]], ["0", "1"], KNNParams(1, "uniform", 2))
        assert knn_predict(model, [[1.0]])[0] == "0"

    def test_five_point_majority_vs_oracle(self):
        x = np.array([[0.0], [1.0], [2.0], [9.0], [10.0]])
        y = ["a", "a", "b", "b", "b"]
        model = knn_fit(x, y, KNNParams(3, "uniform", 2))
        got = knn_predict(model, [[1.5], [8.0]])
        for query, g in zip([[1.5], [8.0]], got):
            assert g == knn_oracle(x.tolist(), y, query, 3, "uniform", 2)

    def test_k_larger_than_train_rejected(self):
        with pytest.raises(ValueError):
            knn_fit([[0.0], [1.0]], ["a", "b"], KNNParams(3))

    def test_dimension_mismatch_rejected(self):
        model = knn_fit([[0.0, 1.0]], ["a"], KNNParams(1))
        with pytest.raises(ValueError):
            knn_predict(model, [[1.0]])

    def test_zero_distance_wins_under_distance_weighting(self):
        x = [[0.0], [0.1], [0.2]]
        y = ["far", "near", "near"]
        model = knn_fit(x, y, KNNParams(3, "distance", 2))
        assert knn_predict(model, [[0.0]])[0] == "far"

    def test_vote_tie_prefers_smallest_class(self):
        x = [[-1.0], [1.0]]
        model = knn_fit(x, ["2", "10"], KNNParams(2, "uniform", 2))
        # Tied vote between classes 2 and 10: numeric order picks 2.
        assert knn_predict(model, [[0.0]])[0] == "2"

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(30, 4))
        y = [str(v) for v in rng.integers(0, 3, 30)]
        q = rng.normal(size=(10, 4))
        for params in (KNNParams(3, "uniform", 2), KNNParams(5, "uniform", 1)):
            base = knn_predict(knn_fit(x, y, params), q)
            scaled = knn_predict(knn_fit(7.5 * x, y, params), 7.5 * q)
            np.testing.assert_array_equal(base, scaled)

    def test_random_problems_match_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(5, 30))
            d = int(rng.integers(1, 6))
            x = rng.normal(size=(n, d))
            y = [str(v) for v in rng.integers(0, 3, n)]
            k = int(rng.integers(1, min(n, 8) + 1))
            weights = str(rng.choice(["uniform", "distance"]))
            p = int(rng.choice([1, 2]))
            model = knn_fit(x, y, KNNParams(k, weights, p))
            queries = rng.normal(size=(5, d))
            got = knn_predict(model, queries)
            for query, g in zip(queries, got):
                assert g == knn_oracle(x.tolist(), y, query.tolist(),
                                       k, weights, p)

    def test_distance_blocks_are_bit_identical_and_bounded(self, monkeypatch):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(100, 50))
        queries = rng.normal(size=(203, 50))
        whole = {p: classify._minkowski(queries, points, p) for p in (1, 2)}
        # A block of 3 queries: 68 blocks, the last one short.
        monkeypatch.setattr(classify, "KNN_BLOCK_ENTRIES", 3 * points.size + 7)
        for p in (1, 2):
            tracemalloc.start()
            try:
                got = classify._minkowski(queries, points, p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            np.testing.assert_array_equal(got, whole[p])
            # One (queries x points x features) temporary is 8.1 MB; blocked,
            # the peak is the output plus a few 120 kB temporaries.
            assert peak < got.nbytes + 1_000_000


# ---------------------------------------------------------------------------
# SVM
# ---------------------------------------------------------------------------

class TestSVM:
    def test_symmetric_pair(self):
        model = svm_fit([[-1.0], [1.0]], ["neg", "pos"],
                        SVMParams(c=10.0, kernel="linear"))
        pair = model.pairs[0]
        assert abs(pair.bias) < 1e-9
        pred = svm_predict(model, [[-3.0], [-0.2], [0.2], [3.0]])
        assert list(pred) == ["neg", "neg", "pos", "pos"]
        # One update puts both points on the margin and closes the gap.
        assert model.smo_steps == 1

    def test_xor_with_rbf(self):
        x = np.array([[0, 0], [1, 1], [0, 1], [1, 0]], dtype=float)
        y = ["same", "same", "diff", "diff"]
        model = svm_fit(x, y, SVMParams(c=10.0, kernel="rbf"))
        assert model.converged
        assert accuracy(y, svm_predict(model, x)) == 1.0

    def test_dual_feasibility(self):
        rng = np.random.default_rng(3)
        x, y = make_blobs(15, [0.0, 2.0], spread=0.8, seed=3)
        for kernel in ("linear", "rbf", "poly"):
            c = 1.0
            x_arr = np.asarray(x)
            labels = np.array(y, dtype=object)
            yy = np.where(labels == "0", 1.0, -1.0)
            K = kernel_matrix(x_arr, x_arr, kernel, 0.5)
            alpha, bias, converged, _ = smo_solve(K, yy, c)
            assert converged
            assert abs(float(alpha @ yy)) < 1e-6
            assert np.all(alpha >= -1e-12) and np.all(alpha <= c + 1e-12)

    def test_xor_solution_matches_reference(self):
        x = np.array([[0, 0], [1, 1], [0, 1], [1, 0]], dtype=float)
        y = np.array([1.0, 1.0, -1.0, -1.0])
        K = kernel_matrix(x, x, "rbf", 1.0)
        alpha, bias, _, _ = smo_solve(K, y, 10.0)
        assert kkt_residual(alpha, K, y, 10.0, bias) < 1e-3
        Q = (y[:, None] * y[None, :]) * K
        _, ref_obj = projected_gradient_reference(K, y, 10.0)
        assert dual_objective(alpha, Q) >= ref_obj - 1e-3
        assert abs(dual_objective(alpha, Q) - ref_obj) <= 1e-3

    def test_random_problems_against_reference(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            x, y, c, kernel, gamma = random_binary_problem(rng)
            K = kernel_matrix(x, x, kernel, gamma)
            alpha, bias, converged, _ = smo_solve(K, y, c)
            assert converged
            Q = (y[:, None] * y[None, :]) * K
            _, ref_obj = projected_gradient_reference(K, y, c)
            obj = dual_objective(alpha, Q)
            assert obj >= ref_obj - 1e-3
            assert abs(obj - ref_obj) <= 1e-3
            assert kkt_residual(alpha, K, y, c, bias) < 1e-3

    def test_matches_reference_exactly(self):
        for name, K, y, c, max_steps in exact_match_problems():
            alpha, bias, converged, _ = smo_solve(K, y, c, max_steps=max_steps)
            ref_alpha, ref_bias, ref_converged = reference_smo(
                K, y, c, max_steps=max_steps)
            assert np.array_equal(alpha, ref_alpha), name
            assert bias == ref_bias, name
            assert converged == ref_converged, name

    def test_exits_and_step_counts(self):
        x = np.array([[-1.0], [1.0], [0.5]])
        y = np.array([1.0, -1.0, -1.0])
        # One class: a working set is empty before any update.
        *_, converged, steps = smo_solve(kernel_matrix(x, x, "rbf", 1.0),
                                         np.ones(3), 1.0)
        assert converged and steps == 0
        # A step of alpha below 1e-15 is numerically stuck.
        big = x * 1e8
        alpha, _, converged, steps = smo_solve(
            kernel_matrix(big, big, "linear", 1.0), y, 1.0)
        assert not converged and steps == 0
        np.testing.assert_array_equal(alpha, 0.0)
        K = kernel_matrix(x, x, "linear", 1.0)
        for cap in (1, 2):
            *_, converged, steps = smo_solve(K, y, 10.0, max_steps=cap)
            assert steps == cap and not converged
        *_, converged, steps = smo_solve(K, y, 10.0)
        assert converged and steps > 2

    def test_no_square_temporaries(self):
        n = 300
        rng = np.random.default_rng(5)
        y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        x = rng.normal(size=(n, 3)) + 0.8 * y[:, None]
        K = kernel_matrix(x, x, "rbf", 1.0 / 3)
        tracemalloc.start()
        try:
            smo_solve(K, y, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A copy of K is 720 kB and a boolean mask of its entries 90 kB;
        # the solver's own arrays are a few kB each.
        assert peak < K.nbytes // 10

    @pytest.mark.parametrize("K,y,c", [
        (np.eye(3)[:, :2], [1.0, -1.0, 1.0], 1.0),
        (np.eye(3), [1.0, -1.0], 1.0),
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), [1.0, -1.0], 1.0),
        (np.array([[np.inf, 0.0], [0.0, 1.0]]), [1.0, -1.0], 1.0),
        (np.eye(3), [1.0, 0.0, -1.0], 1.0),
        (np.eye(2), [1.0, -0.5], 1.0),
        (np.eye(2), [1.0, -1.0], 0.0),
        (np.eye(2), [1.0, -1.0], np.inf),
    ], ids=["not-square", "size-mismatch", "nan-kernel", "inf-kernel",
            "zero-label", "fractional-label", "zero-c", "infinite-c"])
    def test_invalid_inputs_rejected(self, K, y, c):
        with pytest.raises(ValueError):
            smo_solve(K, np.asarray(y), c)

    def test_multiclass_one_vs_one(self):
        x, y = make_blobs(10, [[0, 0], [4, 0], [0, 4]], seed=5)
        model = svm_fit(x, y, SVMParams(c=1.0, kernel="linear"))
        assert len(model.pairs) == 3
        assert accuracy(y, svm_predict(model, x)) == 1.0

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            svm_fit([[0.0], [1.0]], ["a", "a"], SVMParams())

    def test_iteration_cap_warns_in_metadata(self):
        x, y = make_blobs(20, [0.0, 1.0], spread=2.0, seed=14)
        model = svm_fit(x, y, SVMParams(c=10.0, kernel="rbf"), max_steps=1)
        assert not model.converged
        assert model.warnings
        assert model.smo_steps == 1
        # Still usable for prediction.
        assert len(svm_predict(model, x)) == len(y)

    def test_stuck_pair_is_not_reported_as_cap(self):
        # The first step moves alpha by less than 1e-15, far below the cap.
        model = svm_fit([[-1e8], [1e8], [0.5e8]], ["a", "b", "b"],
                        SVMParams(c=1.0, kernel="linear"))
        assert not model.converged
        assert model.smo_steps == 0
        assert model.warnings == (
            "pair (a, b) stopped on a numerically stuck step before the gap "
            "closed",)
        x, y = make_blobs(20, [0.0, 1.0], spread=2.0, seed=14)
        capped = svm_fit(x, y, SVMParams(c=10.0, kernel="rbf"), max_steps=1)
        assert capped.warnings == ("pair (0, 1) hit the iteration cap",)


# ---------------------------------------------------------------------------
# folds / grid search / nested CV
# ---------------------------------------------------------------------------

class TestKFold:
    def test_balanced_two_class(self):
        labels = ["a"] * 10 + ["b"] * 10
        folds = kfold_splits(labels, 10, 0)
        for fold in folds:
            assert len(fold) == 2
            assert sorted(labels[i] for i in fold) == ["a", "b"]

    def test_deterministic_given_seed(self):
        labels = [str(v) for v in np.random.default_rng(0).integers(0, 3, 40)]
        a = kfold_splits(labels, 5, seed=123)
        b = kfold_splits(labels, 5, seed=123)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)

    def test_fold_sizes_differ_by_at_most_one(self):
        labels = ["a"] * 12 + ["b"] * 11
        folds = kfold_splits(labels, 10, 1)
        sizes = sorted(len(f) for f in folds)
        assert sizes[0] >= 2 and sizes[-1] <= 3

    def test_disjoint_and_covering(self):
        labels = [str(v) for v in np.random.default_rng(1).integers(0, 4, 57)]
        folds = kfold_splits(labels, 7, 9)
        joined = np.concatenate(folds)
        assert len(joined) == 57
        assert len(set(joined.tolist())) == 57

    def test_small_class_falls_back_with_warning(self):
        labels = ["a"] * 19 + ["b"]
        with pytest.warns(UserWarning):
            folds = kfold_splits(labels, 10, 0)
        assert sum(len(f) for f in folds) == 20


class TestGridSearch:
    def test_separable_data_reaches_one(self):
        x, y = make_blobs(20, [0.0, 5.0], seed=6)
        _, score = grid_search_cv(x, y, default_knn_grid(), k=5, seed=0)
        assert score == 1.0

    def test_single_point_grid(self):
        x, y = make_blobs(10, [0.0, 5.0], seed=7)
        params, _ = grid_search_cv(x, y, [KNNParams(1)], k=5, seed=0)
        assert params == KNNParams(1)

    def test_random_labels_near_chance(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(60, 4))
        y = [str(v) for v in rng.integers(0, 2, 60)]
        _, score = grid_search_cv(x, y, default_knn_grid(), k=5, seed=1)
        assert 0.35 <= score <= 0.65

    def test_tie_breaks_to_earliest_grid_entry(self):
        x, y = make_blobs(10, [0.0, 8.0], seed=9)
        params, score = grid_search_cv(x, y, default_knn_grid(), k=5, seed=0)
        assert score == 1.0
        assert params == default_knn_grid()[0]


class TestNestedCV:
    def test_separable_blobs(self):
        x, y = make_blobs(100, [0.0, 4.0], spread=0.4, seed=10)
        report = nested_cv(x, y, default_svm_grid(), outer_k=10, inner_k=10,
                           seed=0)
        assert report.mean >= 0.98
        assert report.minimum <= report.mean <= report.maximum
        assert report.confusion.sum() == 200
        # Row sums of the pooled confusion equal per-class test counts.
        np.testing.assert_array_equal(report.confusion.sum(axis=1), [100, 100])

    def test_permuted_labels_near_chance(self):
        x, y = make_blobs(50, [0.0, 4.0], spread=0.4, seed=11)
        rng = np.random.default_rng(11)
        y_perm = [y[i] for i in rng.permutation(len(y))]
        report = nested_cv(x, y_perm, [SVMParams(c=1.0, kernel="linear")],
                           outer_k=5, inner_k=5, seed=1)
        assert 0.4 <= report.mean <= 0.6

    def test_bit_reproducible(self):
        x, y = make_blobs(20, [0.0, 3.0], seed=12)
        a = nested_cv(x, y, default_knn_grid(), outer_k=5, inner_k=5, seed=77)
        b = nested_cv(x, y, default_knn_grid(), outer_k=5, inner_k=5, seed=77)
        assert a.fold_accuracies == b.fold_accuracies
        assert a.chosen_params == b.chosen_params
        np.testing.assert_array_equal(a.confusion, b.confusion)

    def test_report_statistics_consistent(self):
        report = CVReport((0.5, 0.7, 0.9), (None,) * 3, ("a", "b"),
                          np.array([[5, 1], [2, 4]]))
        assert report.minimum == 0.5
        assert report.maximum == 0.9
        assert report.mean == pytest.approx(0.7)
        assert report.pooled_accuracy == pytest.approx(9 / 12)


class TestConfusionMatrix:
    def test_perfect_prediction_diagonal(self):
        labels = ["a", "b", "c", "a"]
        classes, mat = confusion_matrix(labels, labels)
        assert classes == ("a", "b", "c")
        np.testing.assert_array_equal(mat, np.diag([2, 1, 1]))

    def test_single_predicted_class(self):
        classes, mat = confusion_matrix(["0", "1", "1"], ["0", "0", "0"])
        np.testing.assert_array_equal(mat, [[1, 0], [2, 0]])

    def test_hand_counted_three_class(self):
        true = ["a", "a", "b", "b", "c", "c"]
        pred = ["a", "b", "b", "c", "c", "a"]
        classes, mat = confusion_matrix(true, pred)
        np.testing.assert_array_equal(mat, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])

    def test_trace_over_total_is_accuracy(self):
        rng = np.random.default_rng(13)
        true = [str(v) for v in rng.integers(0, 4, 50)]
        pred = [str(v) for v in rng.integers(0, 4, 50)]
        _, mat = confusion_matrix(true, pred)
        assert mat.trace() / mat.sum() == pytest.approx(accuracy(true, pred))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            confusion_matrix(["a"], ["a", "b"])
