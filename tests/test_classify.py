import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import make_blobs
from geostat import classify
from geostat.classify import (
    CVReport,
    KNNModel,
    KNNParams,
    SVMParams,
    default_knn_grid,
    default_svm_grid,
    fit_model,
    grid_search_cv,
    holdout_cv,
    kernel_matrix,
    kfold_splits,
    knn_fit,
    knn_predict,
    nested_cv,
    predict_model,
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


def reference_knn_predict(model, queries):
    """The earlier per-row vote loop; ``knn_predict`` must match it."""
    q = np.asarray(queries, dtype=float)
    dist = classify._minkowski(q, model.points, model.params.p)
    k = model.params.n_neighbors
    class_index = {c: i for i, c in enumerate(model.classes)}
    train_idx = np.array([class_index[l] for l in model.labels])
    out = []
    for row in dist:
        order = np.argsort(row, kind="stable")[:k]
        votes = np.zeros(len(model.classes))
        if model.params.weights == "uniform":
            for j in order:
                votes[train_idx[j]] += 1.0
        else:
            zero = [j for j in order if row[j] == 0.0]
            if zero:
                for j in zero:
                    votes[train_idx[j]] += 1.0
            else:
                for j in order:
                    votes[train_idx[j]] += 1.0 / row[j]
        out.append(model.classes[int(np.argmax(votes))])
    return np.array(out, dtype=object)


def reference_grid_search(points, labels, grid, k=10, seed=0):
    """The earlier grid search, one grid point and one fold at a time;
    ``grid_search_cv`` must return the same ``(params, score)``."""
    grid = list(grid)
    pts = np.asarray(points, dtype=float)
    labels = np.asarray([str(v) for v in labels], dtype=object)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        folds = kfold_splits(labels, k, seed)
    all_idx = np.arange(pts.shape[0])
    best_params = None
    best_score = -np.inf
    reason = None  # of the first infeasible point
    for params in grid:
        scores = []
        for fold in folds:
            train_mask = np.ones(pts.shape[0], dtype=bool)
            train_mask[fold] = False
            train_idx = all_idx[train_mask]
            try:
                model = fit_model(pts[train_idx], labels[train_idx], params)
            except ValueError as exc:
                reason = reason or f"{params.tag()}: {exc}"
                scores = None
                break
            if isinstance(model, KNNModel):
                pred = reference_knn_predict(model, pts[fold])
            else:
                pred = predict_model(model, pts[fold])
            scores.append(float(np.mean(labels[fold] == pred)))
        if scores is None:
            continue
        score = float(np.mean(scores))
        if score > best_score:
            best_score = score
            best_params = params
    if best_params is None:
        raise ValueError(f"no grid point was feasible for this data ({reason})")
    return best_params, best_score


def reference_holdout_cv(train_x, train_y, test_x, test_y, grid, k, seed):
    """The earlier train/test scoring: a grid search on the training rows,
    then a refit and a prediction through the per-model functions.
    ``holdout_cv`` must return the same result and raise the same errors."""
    params, _ = reference_grid_search(train_x, train_y, grid, k=k, seed=seed)
    model = fit_model(train_x, train_y, params)
    pred = predict_model(model, test_x)
    notes = model.warnings if isinstance(model, classify.SVMModel) else ()
    truth = np.array([str(v) for v in test_y], dtype=object)
    return float(np.mean(pred == truth)), params, notes


def reference_nested_cv(points, labels, grid, outer_k=10, inner_k=10, seed=0):
    """The earlier nested CV, one outer fold at a time: a grid search and a
    refit per fold. ``nested_cv`` must return the same report and raise
    the same errors."""
    pts = np.asarray(points, dtype=float)
    labels = np.asarray([str(v) for v in labels], dtype=object)
    classes = tuple(sorted_classes(labels))
    seeds = np.random.SeedSequence(seed).spawn(outer_k + 1)
    folds = kfold_splits(labels, outer_k, seeds[0])
    all_idx = np.arange(pts.shape[0])
    fold_acc = []
    chosen = []
    notes = []
    pooled = np.zeros((len(classes), len(classes)), dtype=int)
    for f, holdout in enumerate(folds):
        train_mask = np.ones(pts.shape[0], dtype=bool)
        train_mask[holdout] = False
        train_idx = all_idx[train_mask]
        if inner_k > train_idx.size:
            raise ValueError(f"outer fold {f} leaves {train_idx.size} "
                             f"training rows, fewer than {inner_k} inner folds")
        params, _ = grid_search_cv(pts[train_idx], labels[train_idx], grid,
                                   k=inner_k, seed=seeds[f + 1])
        model = fit_model(pts[train_idx], labels[train_idx], params)
        pred = predict_model(model, pts[holdout])
        fold_acc.append(float(np.mean(labels[holdout] == pred)))
        chosen.append(params)
        notes.append(model.warnings if isinstance(model, classify.SVMModel)
                     else ())
        for true, predicted in zip(labels[holdout], pred):
            pooled[classes.index(true), classes.index(predicted)] += 1
    return CVReport(tuple(fold_acc), tuple(chosen), classes, pooled,
                    tuple(notes))


def raised(run, *args, **kwargs) -> str:
    """The message of the ``ValueError`` that ``run(*args, **kwargs)``
    raises."""
    with pytest.raises(ValueError) as info:
        run(*args, **kwargs)
    return str(info.value)


def assert_same_report(got, want):
    assert got.fold_accuracies == want.fold_accuracies
    assert got.chosen_params == want.chosen_params
    assert got.classes == want.classes
    assert np.array_equal(got.confusion, want.confusion)
    assert got.notes == want.notes


def capped_smo_solve(K, y, c, max_steps):
    """``smo_solve`` with its pair-update cap replaced by ``max_steps``,
    unless that is None."""
    if max_steps is None:
        return smo_solve(K, y, c)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classify, "_step_cap", lambda n: max_steps)
        return smo_solve(K, y, c)


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
    # Capped problems are the only ones of their sizes, 32 and 34 points,
    # so that a ``_step_cap`` keyed on size can give them their caps.
    for steps, per_class in ((1, 16), (3, 17)):
        for kernel in ("linear", "rbf", "poly"):
            x, labels = make_blobs(per_class, [0.0, 1.0], spread=2.0, seed=steps)
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

    def test_votes_match_row_loop_on_ties_and_zero_distances(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(3, 25))
            d = int(rng.integers(1, 4))
            # Small integer coordinates: duplicate rows, zero distances and
            # equal distances are common.
            x = rng.integers(0, 3, size=(n, d)).astype(float)
            y = [str(v) for v in rng.integers(0, 3, n)]
            queries = np.vstack([x[rng.integers(0, n, 4)],
                                 rng.integers(0, 3, size=(4, d))])
            for k in sorted({1, 2, n // 2 + 1, n}):
                for weights in ("uniform", "distance"):
                    for p in (1, 2):
                        model = knn_fit(x, y, KNNParams(k, weights, p))
                        np.testing.assert_array_equal(
                            knn_predict(model, queries),
                            reference_knn_predict(model, queries))

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
        assert list(svm_predict(model, x)) == y

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
            alpha, bias, converged, _ = capped_smo_solve(K, y, c, max_steps)
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
            *_, converged, steps = capped_smo_solve(K, y, 10.0, cap)
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

    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf])
    def test_params_reject_c_outside_positive_finite(self, c):
        with pytest.raises(ValueError, match="positive and finite"):
            SVMParams(c=c)

    def test_multiclass_one_vs_one(self):
        x, y = make_blobs(10, [[0, 0], [4, 0], [0, 4]], seed=5)
        model = svm_fit(x, y, SVMParams(c=1.0, kernel="linear"))
        assert len(model.pairs) == 3
        assert list(svm_predict(model, x)) == y

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            svm_fit([[0.0], [1.0]], ["a", "a"], SVMParams())

    def test_iteration_cap_warns_in_metadata(self, monkeypatch):
        monkeypatch.setattr(classify, "_step_cap", lambda n: 1)
        x, y = make_blobs(20, [0.0, 1.0], spread=2.0, seed=14)
        model = svm_fit(x, y, SVMParams(c=10.0, kernel="rbf"))
        assert not model.converged
        assert model.warnings
        assert model.smo_steps == 1
        # Still usable for prediction.
        assert len(svm_predict(model, x)) == len(y)

    def test_stuck_pair_is_not_reported_as_cap(self, monkeypatch):
        # The first step moves alpha by less than 1e-15, far below the cap.
        model = svm_fit([[-1e8], [1e8], [0.5e8]], ["a", "b", "b"],
                        SVMParams(c=1.0, kernel="linear"))
        assert not model.converged
        assert model.smo_steps == 0
        assert model.warnings == (
            "pair (a, b) stopped on a numerically stuck step before the gap "
            "closed",)
        monkeypatch.setattr(classify, "_step_cap", lambda n: 1)
        x, y = make_blobs(20, [0.0, 1.0], spread=2.0, seed=14)
        capped = svm_fit(x, y, SVMParams(c=10.0, kernel="rbf"))
        assert capped.warnings == ("pair (0, 1) hit the iteration cap",)


def solve_in_lockstep(problems):
    """Solve ``(name, K, y, c, max_steps)`` problems in one lockstep call.

    ``_step_cap`` is patched to give each size the ``max_steps`` of its
    problems, which must agree; None is the solver's own cap.
    """
    caps = {y.size: max_steps for _, _, y, _, max_steps in problems}
    assert all(caps[y.size] == max_steps for _, _, y, _, max_steps in problems)
    step_cap = classify._step_cap
    kernels = [(y.size, lambda K=K: K) for _, K, y, _, _ in problems]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classify, "_step_cap",
                      lambda n: step_cap(n) if caps[n] is None else caps[n])
        return classify._smo_lockstep(kernels, [
            (u, y, c) for u, (_, _, y, c, _) in enumerate(problems)])


@pytest.fixture
def block_sizes(monkeypatch):
    """Problem count and padded size of every lockstep block solved."""
    seen = []
    solve = classify._smo_block

    def spy(Kt, which, y, c, caps):
        seen.append(y.shape)
        return solve(Kt, which, y, c, caps)

    monkeypatch.setattr(classify, "_smo_block", spy)
    return seen


class TestLockstep:
    def test_one_batch_matches_reference(self, block_sizes):
        problems = list(exact_match_problems())
        got = solve_in_lockstep(problems)
        # Every problem up to n = 50 shares the first block, padded to 50.
        small = sum(y.size <= 50 for _, _, y, _, _ in problems)
        assert block_sizes[0] == (small, 50)
        for (name, K, y, c, max_steps), result in zip(problems, got):
            alpha, bias, converged, steps = result
            ref_alpha, ref_bias, ref_converged = reference_smo(
                K, y, c, max_steps=max_steps)
            assert np.array_equal(alpha, ref_alpha), name
            assert bias == ref_bias, name
            assert converged == ref_converged, name
            assert steps == capped_smo_solve(K, y, c, max_steps)[3], name

    def test_every_exit_inside_one_batch(self, block_sizes):
        problems = [p for p in exact_match_problems()
                    if p[0].startswith(("max_steps", "stuck", "all ", "rbf n=18",
                                        "linear n=10"))]
        got = solve_in_lockstep(problems)
        assert block_sizes == [(len(problems), 34)]
        by_name = {p[0]: r for p, r in zip(problems, got)}
        for steps in (1, 3):
            for kernel in ("linear", "rbf", "poly"):
                _, _, converged, taken = by_name[f"max_steps={steps} {kernel}"]
                assert taken == steps and not converged
        for scale in (1e8, 3e8, 1e9):
            alpha, _, converged, taken = by_name[f"stuck scale={scale:g}"]
            assert taken == 0 and not converged
            np.testing.assert_array_equal(alpha, 0.0)
        for n in (1, 2, 7):
            for sign in ("+1", "-1"):
                *_, converged, taken = by_name[f"all {sign} n={n}"]
                assert converged and taken == 0
        for (name, K, y, c, max_steps), result in zip(problems, got):
            assert np.array_equal(result[0], reference_smo(
                K, y, c, max_steps=max_steps)[0]), name
            assert result[1:] == capped_smo_solve(K, y, c, max_steps)[1:], name

    @pytest.mark.parametrize("per_block", [1, 2, 3])
    def test_block_size_does_not_change_results(self, monkeypatch, block_sizes,
                                                per_block):
        problems = [p for p in exact_match_problems() if p[2].size == 18]
        whole = solve_in_lockstep(problems)
        assert block_sizes == [(len(problems), 18)]
        block_sizes.clear()
        monkeypatch.setattr(classify, "SMO_BLOCK_ENTRIES", per_block * 18 * 18)
        got = solve_in_lockstep(problems)
        assert [count for count, _ in block_sizes[:-1]] == (
            [per_block] * (len(block_sizes) - 1))
        assert sum(count for count, _ in block_sizes) == len(problems)
        for (name, *_), a, b in zip(problems, whole, got):
            assert np.array_equal(a[0], b[0]) and a[1:] == b[1:], name

    def test_memory_stays_flat_as_problems_grow(self, monkeypatch):
        n = 40
        monkeypatch.setattr(classify, "SMO_BLOCK_ENTRIES", 4 * n * n)
        rng = np.random.default_rng(6)
        y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        x = rng.normal(size=(n, 3)) + 0.8 * y[:, None]

        def peak(count):
            # Each kernel is built only when its block is solved.
            kernels = [(n, lambda: kernel_matrix(x, x, "rbf", 1.0 / 3))] * count
            problems = [(u, y, 1.0) for u in range(count)]
            tracemalloc.start()
            try:
                classify._smo_lockstep(kernels, problems)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(8), peak(64)
        # A block of 4 padded kernels is 51 kB, and 64 kernels held at once
        # would be 819 kB; each problem's result adds a few hundred bytes.
        assert large < small + 64 * 1_000


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


MIXED_GRID = tuple(p for pair in zip(default_svm_grid(), default_knn_grid())
                   for p in pair) + default_knn_grid()[9:]


def comparison_problems(rng, count, sizes):
    """``count`` random blob problems of ``sizes`` rows per class, then two
    whose labels "9", "10" and "2.5" sort differently as strings and as
    numbers. In those, class "2.5" has one or two members, fewer than any
    fold count the comparisons use, so some training folds lack it."""
    for _ in range(count):
        n_classes = int(rng.integers(2, 4))
        yield make_blobs(int(rng.integers(*sizes)),
                         [[c, 0.5 * c] for c in range(n_classes)],
                         spread=float(rng.choice([0.4, 1.0, 2.0])),
                         seed=int(rng.integers(1000)))
    for small in (1, 2):
        x, y = make_blobs(int(rng.integers(*sizes)),
                          [[c, 0.5 * c] for c in range(3)], spread=1.0,
                          seed=int(rng.integers(1000)))
        keep = [i for i, v in enumerate(y) if v != "2"]
        keep += [i for i, v in enumerate(y) if v == "2"][:small]
        yield x[keep], [("9", "10", "2.5")[int(y[i])] for i in keep]


class TestGridSearchAgainstReference:
    @pytest.mark.parametrize("grid", [default_knn_grid(), default_svm_grid(),
                                      MIXED_GRID], ids=["knn", "svm", "mixed"])
    @pytest.mark.filterwarnings("ignore:smallest class")
    def test_matches_point_by_point_search(self, grid):
        rng = np.random.default_rng(31)
        for x, y in comparison_problems(rng, 5, (6, 14)):
            k = int(rng.integers(3, 6))
            seed = int(rng.integers(1000))
            assert grid_search_cv(x, y, grid, k=k, seed=seed) == \
                reference_grid_search(x, y, grid, k=k, seed=seed)

    def test_neighbours_beyond_a_training_fold_are_skipped(self):
        # Training folds hold 6 or 7 rows, so k = 8 and k = 10 are infeasible.
        x, y = make_blobs(5, [0.0, 1.0], spread=1.0, seed=4)
        grid = (KNNParams(10), KNNParams(8, "distance"), KNNParams(6, p=1),
                KNNParams(4, "distance"), SVMParams(0.1, "linear"))
        got = grid_search_cv(x, y, grid, k=3, seed=2)
        assert got == reference_grid_search(x, y, grid, k=3, seed=2)
        errors = [raised(search, x, y, grid[:2], k=3, seed=2)
                  for search in (grid_search_cv, reference_grid_search)]
        assert errors[0] == errors[1] == (
            "no grid point was feasible for this data (knn(k=10,weights="
            "uniform,p=2): n_neighbors=10 exceeds training size 6)")

    def test_single_class_fold_sinks_every_svm_point(self):
        x = np.random.default_rng(5).normal(size=(10, 2))
        y = ["a"] * 9 + ["b"]
        errors = [raised(search, x, y, default_svm_grid(), k=5, seed=0)
                  for search in (grid_search_cv, reference_grid_search)]
        assert errors[0] == errors[1] == (
            "no grid point was feasible for this data "
            "(svm(C=0.1,kernel=linear): need at least two classes)")
        assert grid_search_cv(x, y, MIXED_GRID, k=5, seed=0) == \
            reference_grid_search(x, y, MIXED_GRID, k=5, seed=0)

    def test_non_finite_kernel_sinks_only_its_points(self):
        # A tiny-variance feature next to a constant one: gamma is about
        # 4e299, so the polynomial kernel overflows while the linear and
        # rbf kernels stay finite.
        x, y = make_blobs(10, [0.0, 3.0], seed=3)
        x = np.column_stack([x[:, 0] * 1e-150, np.full(len(y), 1000.0)])
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="no grid point was feasible"):
                grid_search_cv(x, y, [SVMParams(1.0, "poly")], k=4, seed=0)
            got = grid_search_cv(x, y, MIXED_GRID, k=4, seed=0)
            assert got == reference_grid_search(x, y, MIXED_GRID, k=4, seed=0)
            svm_only = grid_search_cv(x, y, default_svm_grid(), k=4, seed=0)
            assert svm_only == reference_grid_search(x, y, default_svm_grid(),
                                                     k=4, seed=0)
        assert svm_only[0].kernel != "poly"

    def test_absent_class_never_wins_where_every_vote_is_zero(self):
        # Class "a" has no training row. Split models vote over all classes,
        # yet must predict what a model fit on the training rows alone
        # predicts, also for test rows where no class gets a vote: an
        # infinite row is at infinite distance from every training row, and
        # a NaN row gets NaN from every SVM decision.
        x = np.array([[0.0], [1.0], [2.0], [3.0], [np.inf], [np.nan], [1.5]])
        labels = ["b", "b", "c", "c", "a", "a", "b"]
        classes, codes = classify._encode(labels)
        train, test = np.arange(4), np.arange(4, 7)
        grid = (KNNParams(2, "distance"), KNNParams(3), SVMParams(1.0, "rbf"),
                SVMParams(10.0, "linear"))
        with np.errstate(invalid="ignore"):
            (fits,) = classify._predict_splits(x, classes, codes,
                                               [(train, test, grid)])
            for params, (pred, _) in zip(grid, fits):
                model = fit_model(x[train], labels[:4], params)
                assert [classes[c] for c in pred] == \
                    list(predict_model(model, x[test]))

    def test_malformed_input_rejected(self):
        with pytest.raises(ValueError):
            grid_search_cv(np.zeros((6, 2)), ["a", "b"] * 2, [KNNParams(1)],
                           k=2)
        with pytest.raises(TypeError):
            grid_search_cv(np.zeros((6, 2)), ["a", "b"] * 3, [KNNParams(1), 5],
                           k=2)


class TestNestedCV:
    def test_separable_blobs(self):
        x, y = make_blobs(100, [0.0, 4.0], spread=0.4, seed=10)
        report = nested_cv(x, y, default_svm_grid(), outer_k=10, inner_k=10,
                           seed=0)
        assert np.mean(report.fold_accuracies) >= 0.98
        assert report.confusion.sum() == 200
        # Row sums of the pooled confusion equal per-class test counts.
        np.testing.assert_array_equal(report.confusion.sum(axis=1), [100, 100])

    def test_permuted_labels_near_chance(self):
        x, y = make_blobs(50, [0.0, 4.0], spread=0.4, seed=11)
        rng = np.random.default_rng(11)
        y_perm = [y[i] for i in rng.permutation(len(y))]
        report = nested_cv(x, y_perm, [SVMParams(c=1.0, kernel="linear")],
                           outer_k=5, inner_k=5, seed=1)
        assert 0.4 <= np.mean(report.fold_accuracies) <= 0.6

    def test_bit_reproducible(self):
        x, y = make_blobs(20, [0.0, 3.0], seed=12)
        a = nested_cv(x, y, default_knn_grid(), outer_k=5, inner_k=5, seed=77)
        b = nested_cv(x, y, default_knn_grid(), outer_k=5, inner_k=5, seed=77)
        assert a.fold_accuracies == b.fold_accuracies
        assert a.chosen_params == b.chosen_params
        np.testing.assert_array_equal(a.confusion, b.confusion)

    def test_report_statistics_consistent(self):
        # 20 rows in 5 outer folds of 4: the pooled confusion's accuracy is
        # the mean of the fold accuracies.
        x, y = make_blobs(10, [0.0, 1.0], spread=1.5, seed=13)
        report = nested_cv(x, y, default_knn_grid(), outer_k=5, inner_k=3,
                           seed=2)
        assert len(report.fold_accuracies) == len(report.chosen_params) == 5
        assert report.classes == ("0", "1")
        np.testing.assert_array_equal(report.confusion.sum(axis=1), [10, 10])
        assert np.trace(report.confusion) / 20 == pytest.approx(
            np.mean(report.fold_accuracies))
        assert 0.0 < np.mean(report.fold_accuracies) < 1.0


@pytest.fixture
def lockstep_calls(monkeypatch):
    """Number of ``_smo_lockstep`` calls made."""
    calls = []
    solve = classify._smo_lockstep

    def spy(kernels, problems):
        calls.append(len(problems))
        return solve(kernels, problems)

    monkeypatch.setattr(classify, "_smo_lockstep", spy)
    return calls


GRIDS = pytest.mark.parametrize(
    "grid", [default_knn_grid(), default_svm_grid(), MIXED_GRID],
    ids=["knn", "svm", "mixed"])


class TestNestedCVAgainstReference:
    @GRIDS
    @pytest.mark.filterwarnings("ignore:smallest class")
    def test_matches_fold_by_fold_loop(self, grid):
        rng = np.random.default_rng(41)
        for x, y in comparison_problems(rng, 4, (6, 12)):
            outer_k, inner_k = (int(v) for v in rng.integers(3, 6, size=2))
            seed = int(rng.integers(1000))
            assert_same_report(
                nested_cv(x, y, grid, outer_k, inner_k, seed),
                reference_nested_cv(x, y, grid, outer_k, inner_k, seed))

    @GRIDS
    def test_two_lockstep_calls_per_run(self, grid, lockstep_calls):
        x, y = make_blobs(12, [0.0, 1.0, 2.0], spread=1.0, seed=8)
        nested_cv(x, y, grid, outer_k=4, inner_k=3, seed=5)
        batched = len(lockstep_calls)
        lockstep_calls.clear()
        report = reference_nested_cv(x, y, grid, outer_k=4, inner_k=3, seed=5)
        svm_refits = sum(isinstance(p, SVMParams) for p in report.chosen_params)
        if grid == default_knn_grid():
            assert batched == len(lockstep_calls) == 0
        else:
            # A search and (for SVM winners) a refit per outer fold before.
            assert len(lockstep_calls) == 4 + svm_refits
            assert batched == 1 + (svm_refits > 0)
        if grid == default_svm_grid():
            assert batched == 2 and len(lockstep_calls) == 8

    def test_refits_use_no_per_model_function(self, monkeypatch):
        called = []
        for name in ("fit_model", "predict_model", "knn_fit", "knn_predict"):
            monkeypatch.setattr(classify, name,
                                lambda *a, name=name, **k: called.append(name))
        x, y = make_blobs(12, [0.0, 1.0, 2.0], spread=1.0, seed=8)
        report = nested_cv(x, y, MIXED_GRID, outer_k=4, inner_k=3, seed=0)
        holdout_cv(x[::2], y[::2], x[1::2], y[1::2], default_svm_grid(), 3, 0)
        assert called == []
        assert {type(p) for p in report.chosen_params} == {KNNParams, SVMParams}

    def test_capped_refits_report_the_same_notes(self, monkeypatch):
        monkeypatch.setattr(classify, "_step_cap", lambda n: 1)
        x, y = make_blobs(10, [0.0, 1.0, 2.0], spread=1.0, seed=12)
        for grid in (default_svm_grid(), MIXED_GRID):
            got = nested_cv(x, y, grid, outer_k=3, inner_k=3, seed=4)
            assert_same_report(
                got, reference_nested_cv(x, y, grid, outer_k=3, inner_k=3,
                                         seed=4))
            assert any(got.notes)

    @pytest.mark.parametrize("grid, inner_k, message", [
        # Outer training sets of 5 and 6 rows split in 2 inner folds train
        # on 2 or 3 rows, so k = 3 is feasible only on the larger ones.
        ((KNNParams(3),), 2, "no grid point was feasible"),
        # Six inner folds fit only the 6-row outer training set.
        ((KNNParams(1),), 6,
         "outer fold 0 leaves 5 training rows, fewer than 6 inner folds"),
    ], ids=["infeasible-search", "too-many-inner-folds"])
    def test_failed_outer_fold_raises_the_same_error(self, grid, inner_k,
                                                     message):
        x, y = make_blobs(6, [0.0, 1.0], spread=1.0, seed=2)
        x, y = x[:11], y[:11]
        sizes = {11 - len(f) for f in kfold_splits(
            y, 2, np.random.SeedSequence(3).spawn(3)[0])}
        assert sizes == {5, 6}
        for run in (nested_cv, reference_nested_cv):
            with pytest.raises(ValueError, match=message):
                run(x, y, grid, outer_k=2, inner_k=inner_k, seed=3)


def split_problem(rng, x, y):
    """Random train and test rows of a problem, about a third for test."""
    test = rng.random(len(y)) < 1 / 3
    test[:2] = [False, True]
    y = np.array(y, dtype=object)
    return x[~test], list(y[~test]), x[test], list(y[test])


class TestTrainingRowsChecked:
    """Inputs no fold can train on raise before any search or refit."""

    @pytest.fixture(autouse=True)
    def no_fit(self, monkeypatch):
        for name in ("_search_many", "_predict_splits"):
            monkeypatch.setattr(classify, name,
                                lambda *a: pytest.fail("a fit started"))

    @GRIDS
    def test_one_class_is_error(self, grid):
        x, _ = make_blobs(6, [0.0, 1.0], seed=2)
        labels = ["a"] * len(x)
        message = "every training row has class 'a'; need at least two classes"
        assert raised(nested_cv, x, labels, grid, 3, 3, 0) == message
        assert raised(holdout_cv, x[:8], labels[:8], x[8:],
                      ["a", "b", "b", "c"], grid, 3, 0) == message

    @pytest.mark.parametrize("rows, folds, message", [
        (3, 2, "outer fold 0 leaves 1 training row, fewer than 2 inner folds"),
        (4, 3, "outer fold 0 leaves 2 training rows, fewer than 3 inner "
               "folds")], ids=["one-row", "two-rows"])
    @pytest.mark.filterwarnings("ignore:smallest class")
    def test_inner_folds_beyond_outer_fold_0_is_error(self, rows, folds,
                                                      message):
        x, y = make_blobs(2, [0.0, 1.0], seed=2)
        assert raised(nested_cv, x[:rows], y[:rows], default_knn_grid(),
                      folds, folds, 0) == message


class TestHoldoutCVAgainstReference:
    @GRIDS
    @pytest.mark.filterwarnings("ignore:smallest class")
    def test_matches_search_then_refit(self, grid):
        rng = np.random.default_rng(43)
        for x, y in comparison_problems(rng, 4, (6, 12)):
            problem = split_problem(rng, x, y)
            k = int(rng.integers(2, 5))
            seed = int(rng.integers(1000))
            assert holdout_cv(*problem, grid, k, seed) == \
                reference_holdout_cv(*problem, grid, k, seed)

    @GRIDS
    def test_test_only_label_counts_as_wrong(self, grid):
        x, y = make_blobs(8, [0.0, 1.0, 2.0], spread=1.0, seed=6)
        train_x, train_y, test_x, test_y = split_problem(
            np.random.default_rng(6), x, y)
        test_y = ["new"] * 3 + test_y[3:]
        got = holdout_cv(train_x, train_y, test_x, test_y, grid, 3, 1)
        assert got == reference_holdout_cv(train_x, train_y, test_x, test_y,
                                           grid, 3, 1)
        assert got[0] <= 1 - 3 / len(test_y)

    def test_infeasible_grid_raises_the_same_error(self):
        x, y = make_blobs(4, [0.0, 1.0], spread=1.0, seed=3)
        for grid, k, reason in [
                ((KNNParams(8), KNNParams(6)), 2,
                 "knn(k=8,weights=uniform,p=2): n_neighbors=8 exceeds "
                 "training size 3"),
                (default_svm_grid(), 3, "svm(C=0.1,kernel=linear): "
                 "need at least two classes")]:
            train_y = y[:6] if k == 2 else ["0"] * 5 + ["1"]
            errors = [raised(run, x[:6], train_y, x[6:], y[6:], grid, k, 0)
                      for run in (holdout_cv, reference_holdout_cv)]
            assert errors[0] == errors[1] == (
                f"no grid point was feasible for this data ({reason})")

    def test_capped_refits_report_the_same_notes(self, monkeypatch):
        monkeypatch.setattr(classify, "_step_cap", lambda n: 1)
        x, y = make_blobs(10, [0.0, 1.0, 2.0], spread=1.0, seed=12)
        problem = split_problem(np.random.default_rng(12), x, y)
        for grid in (default_svm_grid(), MIXED_GRID):
            got = holdout_cv(*problem, grid, 3, 4)
            assert got == reference_holdout_cv(*problem, grid, 3, 4)
            # Only SVM refits carry notes, and each of these hits the cap.
            assert bool(got[2]) == isinstance(got[1], SVMParams)

    def test_two_lockstep_calls_per_svm_call(self, lockstep_calls):
        x, y = make_blobs(12, [0.0, 1.0, 2.0], spread=1.0, seed=8)
        holdout_cv(*split_problem(np.random.default_rng(8), x, y),
                   default_svm_grid(), 3, 5)
        assert len(lockstep_calls) == 2

    def test_rows_and_labels_must_match(self):
        with pytest.raises(ValueError, match="one label per training row"):
            holdout_cv(np.zeros((4, 2)), ["a", "b"] * 3, np.zeros((2, 2)),
                       ["a"], [KNNParams(1)], 2, 0)
