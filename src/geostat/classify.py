"""Nearest-neighbor and support-vector classifiers with CV harnesses.

Both classifiers are self-contained. KNN stores the training rows verbatim
and predicts with an exhaustive distance scan (Minkowski p in {1, 2}),
optionally weighting votes by inverse distance. The SVM trains one binary
soft-margin problem per class pair with a sequential-minimal-optimization
solver working on the dual; multi-class prediction is one-vs-one majority
vote. All tie-breaks land on the smallest class identifier so results are
deterministic.

The harnesses (stratified k-fold splitting, grid search, nested
cross-validation) derive every random stream from an explicit seed, making
runs bit-reproducible regardless of scheduling.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "KNNParams",
    "SVMParams",
    "KNNModel",
    "SVMModel",
    "CVReport",
    "default_knn_grid",
    "default_svm_grid",
    "default_grid",
    "knn_fit",
    "knn_predict",
    "svm_fit",
    "svm_predict",
    "smo_solve",
    "fit_model",
    "predict_model",
    "kfold_splits",
    "grid_search_cv",
    "nested_cv",
    "confusion_matrix",
    "accuracy",
]

KNN_NEIGHBOR_CHOICES = (1, 2, 4, 6, 8, 10)
KNN_WEIGHT_CHOICES = ("uniform", "distance")
KNN_P_CHOICES = (1, 2)
SVM_C_CHOICES = (0.1, 1.0, 10.0)
SVM_KERNEL_CHOICES = ("linear", "rbf", "poly")
# The polynomial kernel is (gamma <a, b> + POLY_COEF0) ** POLY_DEGREE.
POLY_DEGREE = 2
POLY_COEF0 = 1.0

# Distances are computed for as many queries at a time as keep the
# (queries x training rows x features) temporary under this many entries,
# 8 MB of float64.
KNN_BLOCK_ENTRIES = 1 << 20


def _class_sort_key(label: str):
    try:
        return (0, float(label), label)
    except ValueError:
        return (1, 0.0, label)


def sorted_classes(labels) -> list:
    """Distinct labels in canonical order (numeric when possible)."""
    return sorted({str(v) for v in labels}, key=_class_sort_key)


@dataclass(frozen=True)
class KNNParams:
    n_neighbors: int = 1
    weights: str = "uniform"
    p: int = 2

    def __post_init__(self):
        if self.weights not in KNN_WEIGHT_CHOICES:
            raise ValueError(f"unknown weighting {self.weights!r}")
        if self.p not in KNN_P_CHOICES:
            raise ValueError("p must be 1 or 2")
        if self.n_neighbors < 1:
            raise ValueError("n_neighbors must be positive")

    def tag(self) -> str:
        return f"knn(k={self.n_neighbors},weights={self.weights},p={self.p})"


@dataclass(frozen=True)
class SVMParams:
    c: float = 1.0
    kernel: str = "rbf"

    def __post_init__(self):
        if self.kernel not in SVM_KERNEL_CHOICES:
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if self.c <= 0:
            raise ValueError("c must be positive")

    def tag(self) -> str:
        return f"svm(C={self.c:g},kernel={self.kernel})"


def default_knn_grid() -> tuple:
    return tuple(
        KNNParams(k, w, p)
        for k in KNN_NEIGHBOR_CHOICES
        for w in KNN_WEIGHT_CHOICES
        for p in KNN_P_CHOICES)


def default_svm_grid() -> tuple:
    return tuple(
        SVMParams(c=c, kernel=k)
        for c in SVM_C_CHOICES
        for k in SVM_KERNEL_CHOICES)


def default_grid(model: str) -> tuple:
    if model == "knn":
        return default_knn_grid()
    if model == "svm":
        return default_svm_grid()
    raise ValueError(f"unknown model {model!r}")


# ---------------------------------------------------------------------------
# k-nearest neighbors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KNNModel:
    points: np.ndarray
    labels: tuple
    classes: tuple
    params: KNNParams


def knn_fit(points, labels, params: KNNParams) -> KNNModel:
    """Store the training set. Raises if ``n_neighbors`` exceeds its size."""
    pts = np.asarray(points, dtype=float)
    labels = tuple(str(v) for v in labels)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("training data must be a nonempty 2-d array")
    if len(labels) != pts.shape[0]:
        raise ValueError("label count does not match row count")
    if params.n_neighbors > pts.shape[0]:
        raise ValueError(
            f"n_neighbors={params.n_neighbors} exceeds training size {pts.shape[0]}")
    return KNNModel(pts, labels, tuple(sorted_classes(labels)), params)


def _minkowski(queries: np.ndarray, points: np.ndarray, p: int) -> np.ndarray:
    per_block = max(1, KNN_BLOCK_ENTRIES // max(1, points.size))
    out = np.empty((queries.shape[0], points.shape[0]))
    for start in range(0, queries.shape[0], per_block):
        rows = slice(start, start + per_block)
        diff = np.abs(queries[rows, None, :] - points[None, :, :])
        out[rows] = diff.sum(axis=2) if p == 1 else np.sqrt((diff**2).sum(axis=2))
    return out


def knn_predict(model: KNNModel, queries) -> np.ndarray:
    """Predict labels by majority vote over the nearest training rows.

    Distance weighting uses weight 1/d; a query at distance zero from a
    training row takes the vote of the zero-distance rows alone. Equal
    distances are resolved by training order, and vote ties go to the
    smallest class identifier.
    """
    q = np.asarray(queries, dtype=float)
    if q.ndim == 1:
        q = q.reshape(1, -1)
    if q.shape[1] != model.points.shape[1]:
        raise ValueError(
            f"query dimension {q.shape[1]} does not match training "
            f"dimension {model.points.shape[1]}")
    dist = _minkowski(q, model.points, model.params.p)
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


# ---------------------------------------------------------------------------
# support-vector machine (sequential minimal optimization)
# ---------------------------------------------------------------------------

def kernel_matrix(a: np.ndarray, b: np.ndarray, kernel: str,
                  gamma: float) -> np.ndarray:
    if kernel == "linear":
        return a @ b.T
    if kernel == "poly":
        return (gamma * (a @ b.T) + POLY_COEF0) ** POLY_DEGREE
    if kernel == "rbf":
        sq = (np.sum(a**2, axis=1)[:, None] + np.sum(b**2, axis=1)[None, :]
              - 2.0 * (a @ b.T))
        return np.exp(-gamma * np.maximum(sq, 0.0))
    raise ValueError(f"unknown kernel {kernel!r}")


def resolve_gamma(params: SVMParams, train: np.ndarray) -> float:
    """Kernel width ``1 / (n_features * mean per-feature variance)`` of the
    training data (1 for the linear kernel or constant data)."""
    if params.kernel == "linear":
        return 1.0
    var = float(train.var(axis=0).mean())
    if var <= 0:
        return 1.0
    return 1.0 / (train.shape[1] * var)


def _step_cap(n: int, max_steps) -> int:
    """Pair updates allowed for a binary problem of ``n`` points."""
    return 10 * n * n if max_steps is None else int(max_steps)


def smo_solve(K: np.ndarray, y: np.ndarray, c: float, tol: float = 1e-3,
              max_steps=None):
    """Solve the binary soft-margin dual by sequential minimal optimization.

    Maximizes ``sum(alpha) - alpha' Q alpha / 2`` with ``Q = yy' * K`` over
    the box ``0 <= alpha <= c`` intersected with ``sum(alpha * y) = 0``. The
    working pair at each step is the maximally violating one, and iteration
    stops once the violation gap falls below ``tol``.

    ``y`` is a nonempty 1-d array of labels that are exactly +1 or -1, and
    ``K`` a finite ``(n, n)`` kernel matrix with ``n = y.size``. The
    violation vector ``-y * grad`` and the working sets are kept across
    steps and only the two updated entries change, so a step costs a few
    O(n) array operations and no n x n temporary.

    Returns ``(alpha, bias, converged, steps)`` where ``bias`` completes the
    decision function ``f(x) = sum alpha_i y_i K(x_i, x) + bias``,
    ``converged`` reports whether the gap criterion was met within
    ``max_steps`` pair updates (default ``10 n^2``), and ``steps`` counts
    the pair updates made.

    Raises
    ------
    ValueError
        If ``y`` is empty or not 1-d, ``K`` is not ``(n, n)`` or not finite,
        a label is not +1 or -1, or ``c`` is not positive and finite.
    """
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.size
    if y.ndim != 1 or n == 0 or K.shape != (n, n):
        raise ValueError(f"need a nonempty 1-d y and an (n, n) kernel matrix; "
                         f"got y of shape {y.shape} and K of shape {K.shape}")
    # max and min propagate NaN and reach any infinity without an n x n mask.
    if not (math.isfinite(K.max()) and math.isfinite(K.min())):
        raise ValueError("kernel matrix must be finite")
    if not np.all(np.abs(y) == 1.0):
        raise ValueError("labels must be +1 or -1")
    if not 0.0 < c < math.inf:
        raise ValueError(f"c must be positive and finite, got {c!r}")
    max_steps = _step_cap(n, max_steps)
    eps = 1e-12
    top = c - eps
    signs = y.tolist()
    alpha = [0.0] * n
    # yg = -y * grad, with grad = Q alpha - 1 the gradient of the
    # minimization form. Since every y is +1 or -1, updating yg in place
    # rounds exactly as updating grad and negating would.
    yg = y.copy()
    # Working sets: alpha_k can still move up (along y_k) or down. At
    # alpha = 0 only the lower bound is active.
    up = (y > 0) & (0.0 < top)
    low = (y < 0) & (0.0 < top)

    converged = False
    m_val = M_val = 0.0
    steps = 0
    while steps < max_steps:
        # Outside its working set an entry is never chosen; argmax and
        # argmin return the first extreme, the smallest index.
        i = int(np.where(up, yg, -np.inf).argmax())
        j = int(np.where(low, yg, np.inf).argmin())
        if not (up[i] and low[j]):
            converged = True
            m_val = float(yg[i]) if up[i] else 0.0
            M_val = float(yg[j]) if low[j] else m_val
            break
        m_val = float(yg[i])
        M_val = float(yg[j])
        if m_val - M_val <= tol:
            converged = True
            break

        # Two-variable subproblem along the feasible direction through (i, j).
        y_i, y_j = signs[i], signs[j]
        a_i, a_j = alpha[i], alpha[j]
        eta = max(K.item(i, i) + K.item(j, j) - 2.0 * K.item(i, j), 1e-12)
        s = y_i * y_j
        if s < 0:
            lo = max(0.0, a_j - a_i)
            hi = min(c, c + a_j - a_i)
        else:
            lo = max(0.0, a_i + a_j - c)
            hi = min(c, a_i + a_j)
        a_j_new = a_j + y_j * (M_val - m_val) / eta
        a_j_new = min(max(a_j_new, lo), hi)
        d_j = a_j_new - a_j
        d_i = -s * d_j
        if abs(d_j) < 1e-15:
            # Numerically stuck pair; the gap is still above tol.
            break
        a_i += d_i
        a_j += d_j
        alpha[i] = a_i
        alpha[j] = a_j
        yg += K[:, i] * (-y_i * d_i) + K[:, j] * (-y_j * d_j)
        up[i] = a_i < top if y_i > 0 else a_i > eps
        low[i] = a_i > eps if y_i > 0 else a_i < top
        up[j] = a_j < top if y_j > 0 else a_j > eps
        low[j] = a_j > eps if y_j > 0 else a_j < top
        steps += 1
    bias = (m_val + M_val) / 2.0
    return np.array(alpha), float(bias), converged, steps


@dataclass(frozen=True)
class _BinarySVM:
    pos_class: str
    neg_class: str
    sv_points: np.ndarray
    sv_coef: np.ndarray  # alpha_i * y_i for the support vectors
    bias: float

    def decision(self, queries: np.ndarray, kernel: str, gamma: float) -> np.ndarray:
        if self.sv_points.shape[0] == 0:
            return np.full(queries.shape[0], self.bias)
        k = kernel_matrix(queries, self.sv_points, kernel, gamma)
        return k @ self.sv_coef + self.bias


@dataclass(frozen=True)
class SVMModel:
    classes: tuple
    pairs: tuple
    params: SVMParams
    gamma: float
    converged: bool
    smo_steps: int  # pair updates summed over the binary problems
    warnings: tuple = field(default=())


def svm_fit(points, labels, params: SVMParams, tol: float = 1e-3,
            max_steps=None) -> SVMModel:
    """Train one-vs-one soft-margin SVMs over all class pairs.

    The smaller class identifier of each pair takes the +1 side. If a binary
    problem stops before the violation gap closes, because it hit its
    pair-update cap or took a step too small to move alpha, the model
    carries a warning saying which in its metadata instead of failing.
    """
    pts = np.asarray(points, dtype=float)
    labels = np.array([str(v) for v in labels], dtype=object)
    classes = sorted_classes(labels)
    if len(classes) < 2:
        raise ValueError("need at least two classes")
    gamma = resolve_gamma(params, pts)
    pairs = []
    notes = []
    all_converged = True
    smo_steps = 0
    for a_i in range(len(classes)):
        for b_i in range(a_i + 1, len(classes)):
            pos, neg = classes[a_i], classes[b_i]
            mask = (labels == pos) | (labels == neg)
            sub = pts[mask]
            y = np.where(labels[mask] == pos, 1.0, -1.0)
            K = kernel_matrix(sub, sub, params.kernel, gamma)
            cap = _step_cap(y.size, max_steps)
            alpha, bias, ok, steps = smo_solve(K, y, params.c, tol=tol,
                                               max_steps=cap)
            smo_steps += steps
            if not ok:
                all_converged = False
                notes.append(f"pair ({pos}, {neg}) hit the iteration cap"
                             if steps >= cap else
                             f"pair ({pos}, {neg}) stopped on a numerically "
                             f"stuck step before the gap closed")
            sv = alpha > 1e-12
            pairs.append(_BinarySVM(pos, neg, sub[sv], alpha[sv] * y[sv],
                                    bias))
    return SVMModel(tuple(classes), tuple(pairs), params, gamma,
                    all_converged, smo_steps, tuple(notes))


def svm_predict(model: SVMModel, queries) -> np.ndarray:
    """One-vs-one majority vote; ties go to the smallest class identifier."""
    q = np.asarray(queries, dtype=float)
    if q.ndim == 1:
        q = q.reshape(1, -1)
    votes = np.zeros((q.shape[0], len(model.classes)))
    index = {c: i for i, c in enumerate(model.classes)}
    for pair in model.pairs:
        dec = pair.decision(q, model.params.kernel, model.gamma)
        votes[dec > 0, index[pair.pos_class]] += 1
        votes[dec <= 0, index[pair.neg_class]] += 1
    winners = np.argmax(votes, axis=1)
    return np.array([model.classes[w] for w in winners], dtype=object)


def fit_model(points, labels, params):
    if isinstance(params, KNNParams):
        return knn_fit(points, labels, params)
    if isinstance(params, SVMParams):
        return svm_fit(points, labels, params)
    raise TypeError(f"unsupported parameter type {type(params).__name__}")


def predict_model(model, queries) -> np.ndarray:
    if isinstance(model, KNNModel):
        return knn_predict(model, queries)
    if isinstance(model, SVMModel):
        return svm_predict(model, queries)
    raise TypeError(f"unsupported model type {type(model).__name__}")


# ---------------------------------------------------------------------------
# cross-validation harnesses
# ---------------------------------------------------------------------------

def kfold_splits(labels, k: int, seed) -> list:
    """Deterministic stratified folds: disjoint, covering, per-class counts
    differing by at most one across folds.

    If some class has fewer members than ``k``, splitting falls back to
    plain (unstratified) shuffled folds with a warning.
    """
    labels = [str(v) for v in labels]
    n = len(labels)
    if k < 2 or k > n:
        raise ValueError(f"k={k} is invalid for {n} items")
    rng = np.random.default_rng(seed)
    classes = sorted_classes(labels)
    counts = {c: labels.count(c) for c in classes}
    folds = [[] for _ in range(k)]
    if min(counts.values()) < k:
        warnings.warn(
            f"smallest class has {min(counts.values())} members (< {k} folds); "
            "falling back to unstratified folds", stacklevel=2)
        order = rng.permutation(n)
        for pos, idx in enumerate(order):
            folds[pos % k].append(int(idx))
    else:
        offset = 0
        for c in classes:
            idx = [i for i, l in enumerate(labels) if l == c]
            idx = [idx[i] for i in rng.permutation(len(idx))]
            for pos, i in enumerate(idx):
                folds[(offset + pos) % k].append(i)
            offset += len(idx)
    return [np.array(sorted(f), dtype=int) for f in folds]


def accuracy(true_labels, predicted) -> float:
    true_labels = np.asarray([str(v) for v in true_labels], dtype=object)
    predicted = np.asarray([str(v) for v in predicted], dtype=object)
    if true_labels.size != predicted.size:
        raise ValueError("label vectors differ in length")
    if true_labels.size == 0:
        raise ValueError("empty label vectors")
    return float(np.mean(true_labels == predicted))


def confusion_matrix(true_labels, predicted, classes=None):
    """Counts of (true class, predicted class). Returns ``(classes, matrix)``
    with entry (i, j) counting class-i items predicted as class j."""
    true_labels = [str(v) for v in true_labels]
    predicted = [str(v) for v in predicted]
    if len(true_labels) != len(predicted):
        raise ValueError("label vectors differ in length")
    if classes is None:
        classes = sorted_classes(true_labels + predicted)
    classes = list(classes)
    index = {c: i for i, c in enumerate(classes)}
    mat = np.zeros((len(classes), len(classes)), dtype=int)
    for t, p in zip(true_labels, predicted):
        mat[index[t], index[p]] += 1
    return tuple(classes), mat


def grid_search_cv(points, labels, grid, k: int = 10, seed=0):
    """Pick the grid point with the best mean validation accuracy.

    Ties keep the earliest grid entry, so the grid's canonical enumeration
    order doubles as the tie-break. Returns ``(best_params, best_score)``.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("empty hyperparameter grid")
    pts = np.asarray(points, dtype=float)
    labels = np.asarray([str(v) for v in labels], dtype=object)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        folds = kfold_splits(labels, k, seed)
    all_idx = np.arange(pts.shape[0])
    best_params = None
    best_score = -np.inf
    for params in grid:
        scores = []
        for fold in folds:
            train_mask = np.ones(pts.shape[0], dtype=bool)
            train_mask[fold] = False
            train_idx = all_idx[train_mask]
            try:
                model = fit_model(pts[train_idx], labels[train_idx], params)
            except ValueError:
                # Parameter infeasible for this fold size (e.g. k too large).
                scores = None
                break
            pred = predict_model(model, pts[fold])
            scores.append(accuracy(labels[fold], pred))
        if scores is None:
            continue
        score = float(np.mean(scores))
        if score > best_score:
            best_score = score
            best_params = params
    if best_params is None:
        raise ValueError("no grid point was feasible for this data")
    return best_params, best_score


@dataclass(frozen=True)
class CVReport:
    """Outcome of one nested cross-validation run."""

    fold_accuracies: tuple
    chosen_params: tuple
    classes: tuple
    confusion: np.ndarray

    @property
    def minimum(self) -> float:
        return float(np.min(self.fold_accuracies))

    @property
    def maximum(self) -> float:
        return float(np.max(self.fold_accuracies))

    @property
    def mean(self) -> float:
        return float(np.mean(self.fold_accuracies))

    @property
    def std(self) -> float:
        return float(np.std(self.fold_accuracies))

    @property
    def pooled_accuracy(self) -> float:
        return float(np.trace(self.confusion) / self.confusion.sum())


def nested_cv(points, labels, grid, outer_k: int = 10, inner_k: int = 10,
              seed=0) -> CVReport:
    """Nested cross-validation: inner folds tune, outer folds score.

    Each outer holdout is scored by a model refit on the remaining data with
    the hyperparameters the inner grid search picked there. Per-fold seeds
    are derived from the master seed so parallel and serial evaluation of
    folds agree bit-for-bit.
    """
    pts = np.asarray(points, dtype=float)
    labels = np.asarray([str(v) for v in labels], dtype=object)
    classes = tuple(sorted_classes(labels))
    ss = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    seeds = ss.spawn(outer_k + 1)
    folds = kfold_splits(labels, outer_k, seeds[0])
    all_idx = np.arange(pts.shape[0])
    fold_acc = []
    chosen = []
    pooled = np.zeros((len(classes), len(classes)), dtype=int)
    for f, holdout in enumerate(folds):
        train_mask = np.ones(pts.shape[0], dtype=bool)
        train_mask[holdout] = False
        train_idx = all_idx[train_mask]
        params, _ = grid_search_cv(pts[train_idx], labels[train_idx], grid,
                                   k=inner_k, seed=seeds[f + 1])
        model = fit_model(pts[train_idx], labels[train_idx], params)
        pred = predict_model(model, pts[holdout])
        fold_acc.append(accuracy(labels[holdout], pred))
        chosen.append(params)
        _, mat = confusion_matrix(labels[holdout], pred, classes)
        pooled += mat
    return CVReport(tuple(fold_acc), tuple(chosen), classes, pooled)
