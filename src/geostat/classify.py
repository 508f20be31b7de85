"""Nearest-neighbor and support-vector classifiers with CV harnesses.

Both classifiers are self-contained. KNN stores the training rows verbatim
and predicts with an exhaustive distance scan (Minkowski p in {1, 2}),
optionally weighting votes by inverse distance. The SVM trains one binary
soft-margin problem per class pair with a sequential-minimal-optimization
solver working on the dual; multi-class prediction is one-vs-one majority
vote. The solver has no settings: it stops when the violation gap of its
working pair is at most ``SMO_TOL`` (1e-3), or unconverged after
``10 n^2`` pair updates of a binary problem of ``n`` points. All
tie-breaks land on the smallest class identifier so results are
deterministic.

The harnesses (stratified k-fold splitting, grid search, scoring on a
held-out split, nested cross-validation) derive every random stream from
an explicit seed, making runs bit-reproducible regardless of scheduling.
Labels become integer class codes once per call. One routine scores every
split, the inner folds of a grid search and the refits on held-out rows
alike: each split's KNN points sort its neighbours once per Minkowski p for
all (k, weights) points, and every binary SVM problem of all splits is
solved in one lockstep batch, with the same results as fitting each grid
point on its own. Split models vote over the full class list; a class with
no training row in a split never wins there. Above it, one routine tunes,
refits and scores held-out rows: ``holdout_cv`` runs it on one train/test
split and ``nested_cv`` on every outer fold at once.
"""

from __future__ import annotations

import functools
import itertools
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
    "holdout_cv",
    "nested_cv",
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

# Binary SVM problems are solved in lockstep over stacks of zero-padded
# kernel matrices holding at most this many entries, 8 MB of float64.
SMO_BLOCK_ENTRIES = 1 << 20

# SMO stops once the violation gap of its working pair is at most this.
SMO_TOL = 1e-3


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
        if not 0.0 < self.c < math.inf:
            raise ValueError(f"c must be positive and finite, got {self.c!r}")

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


def _knn_votes(dist, order, train_class, n_classes, points) -> dict:
    """Winning class index of every query for each ``(k, weights)`` point.

    ``order`` ranks each query's training rows by distance with a stable
    sort, so zero distances come first and equal distances keep training
    order. Votes are added rank by rank for all queries at once, in the
    order the per-row loop added them, and read off at each wanted k.
    Distance weighting uses weight 1/d; a query at distance zero from a
    training row takes the uniform vote of the zero-distance rows alone.
    Vote ties go to the first class, the smallest identifier.
    """
    rows = np.arange(dist.shape[0])
    counts = np.zeros((dist.shape[0], n_classes))
    # A class with no training row starts below every vote, so it never
    # wins, even where all inverse-distance votes are 0 (infinite distances).
    counts[:, np.bincount(train_class, minlength=n_classes) == 0] = -1.0
    zero_counts = counts.copy()
    inverse = counts.copy()
    at_zero = (dist[rows, order[:, 0]] == 0.0)[:, None]
    wanted = {}
    for k, weights in points:
        wanted.setdefault(k, set()).add(weights)
    out = {}
    for rank in range(max(wanted)):
        col = order[:, rank]
        cls = train_class[col]
        d = dist[rows, col]
        counts[rows, cls] += 1.0
        zero_counts[rows, cls] += d == 0.0
        with np.errstate(divide="ignore"):
            inverse[rows, cls] += 1.0 / d
        for weights in wanted.get(rank + 1, ()):
            votes = (counts if weights == "uniform"
                     else np.where(at_zero, zero_counts, inverse))
            out[(rank + 1, weights)] = votes.argmax(axis=1)
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
    order = np.argsort(dist, axis=1, kind="stable")
    _, train_class = _encode(model.labels)
    point = (model.params.n_neighbors, model.params.weights)
    winners = _knn_votes(dist, order, train_class, len(model.classes),
                         [point])[point]
    return np.array(model.classes, dtype=object)[winners]


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


def _step_cap(n: int) -> int:
    """Pair updates allowed for a binary problem of ``n`` points."""
    return 10 * n * n


def smo_solve(K: np.ndarray, y: np.ndarray, c: float):
    """Solve the binary soft-margin dual by sequential minimal optimization.

    Maximizes ``sum(alpha) - alpha' Q alpha / 2`` with ``Q = yy' * K`` over
    the box ``0 <= alpha <= c`` intersected with ``sum(alpha * y) = 0``. The
    working pair at each step is the maximally violating one, and iteration
    stops once the violation gap is at most ``SMO_TOL``.

    ``y`` is a nonempty 1-d array of labels that are exactly +1 or -1, and
    ``K`` a finite ``(n, n)`` kernel matrix with ``n = y.size``. This is the
    one-problem case of the lockstep solver that fits use: the violation
    vector ``-y * grad`` and the working sets are kept across steps and only
    the two updated entries change, so a step costs a few O(n) array
    operations, and ``K`` is read in place, without an n x n temporary.

    Returns ``(alpha, bias, converged, steps)`` where ``bias`` completes the
    decision function ``f(x) = sum alpha_i y_i K(x_i, x) + bias``,
    ``converged`` reports whether the gap criterion was met within
    ``10 n^2`` pair updates, and ``steps`` counts the pair updates made.

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
    if not np.all(np.abs(y) == 1.0):
        raise ValueError("labels must be +1 or -1")
    if not 0.0 < c < math.inf:
        raise ValueError(f"c must be positive and finite, got {c!r}")
    (result,) = _smo_lockstep([(n, lambda: K)], [(0, y, c)])
    if isinstance(result, ValueError):
        raise result
    return result


def _smo_lockstep(kernels, problems) -> list:
    """Solve many binary duals in lockstep, in blocks of padded kernels.

    ``kernels`` holds ``(n, make)`` pairs, where ``make()`` returns an
    ``(n, n)`` kernel matrix; it is called when the kernel's block is
    solved, so only one block of kernels exists at a time. ``problems``
    holds ``(kernel index, y, c)`` tuples with ``y`` of length n, and
    problems may share a kernel; a problem stops after ``_step_cap(n)``
    pair updates. Kernels are taken in order of size into blocks of at
    most ``SMO_BLOCK_ENTRIES`` padded entries.

    Returns, per problem, ``smo_solve``'s ``(alpha, bias, converged,
    steps)``, or a ``ValueError`` if its kernel is not finite.
    """
    results = [None] * len(problems)
    users = [[] for _ in kernels]
    for b, problem in enumerate(problems):
        users[problem[0]].append(b)
    by_size = sorted(range(len(kernels)), key=lambda u: kernels[u][0])
    blocks = []
    for u in by_size:
        if not blocks or ((len(blocks[-1]) + 1) * kernels[u][0] ** 2
                          > SMO_BLOCK_ENTRIES):
            blocks.append([])
        blocks[-1].append(u)
    for block in blocks:
        size = kernels[block[-1]][0]
        # A block of one kernel reads it in place through a transposed view.
        stack = None if len(block) == 1 else np.zeros((len(block), size, size))
        todo = []
        for slot, u in enumerate(block):
            n, make = kernels[u]
            K = make()
            # max and min propagate NaN and reach any infinity without an
            # n x n mask.
            if not (math.isfinite(K.max()) and math.isfinite(K.min())):
                for b in users[u]:
                    results[b] = ValueError("kernel matrix must be finite")
                continue
            if stack is None:
                stack = K.T[None]
            else:
                stack[slot, :n, :n] = K.T
            todo += [(b, slot, n) for b in users[u]]
        if not todo:
            continue
        y = np.zeros((len(todo), size))
        for row, (b, _, n) in enumerate(todo):
            y[row, :n] = problems[b][1]
        alpha, bias, converged, steps = _smo_block(
            stack, np.array([slot for _, slot, _ in todo]), y,
            np.array([problems[b][2] for b, _, _ in todo], dtype=float),
            np.array([_step_cap(n) for _, _, n in todo]))
        for row, (b, _, n) in enumerate(todo):
            results[b] = (alpha[row, :n], float(bias[row]),
                          bool(converged[row]), int(steps[row]))
    return results


def _smo_block(Kt, which, y, c, caps):
    """Lockstep SMO over one block of problems; see ``smo_solve``.

    Problem b solves the dual of the kernel whose transpose is
    ``Kt[which[b]]``, with labels ``y[b]`` (0 in the padding, which keeps
    padded entries out of both working sets), box ``c[b]`` and at most
    ``caps[b]`` pair updates. Every scalar of one problem's step is an
    element of an array here, computed by the same IEEE operations in the
    same order, so each problem gets the result it would get alone. A
    problem leaves the batch when its gap closes, a working set is empty,
    its step is numerically stuck or it reaches its cap.

    Returns ``(alpha, bias, converged, steps)`` as arrays over problems.
    """
    eps = 1e-12
    size = y.shape[1]
    # Row u * size + i of kernel_rows is column i of kernel u.
    kernel_rows = Kt.reshape(-1, size)
    diag = np.diagonal(Kt, axis1=1, axis2=2).reshape(-1)
    alpha = np.zeros(y.shape)
    bias = np.zeros(len(y))
    converged = np.zeros(len(y), dtype=bool)
    steps = np.zeros(len(y), dtype=np.int64)

    # State of the live problems, compacted whenever some finish. A cap of
    # zero or less finishes at once, unconverged, with bias 0.
    live = np.flatnonzero(caps > 0)
    y, c, caps, base = y[live], c[live], caps[live], which[live] * size
    a = np.zeros(y.shape)
    # yg = -y * grad, with grad = Q alpha - 1 the gradient of the
    # minimization form; at alpha = 0 only the lower bound is active.
    yg = y.copy()
    up = (y > 0) & (0.0 < c - eps)[:, None]
    low = (y < 0) & (0.0 < c - eps)[:, None]
    st = np.zeros(live.size, dtype=np.int64)

    def record(rows, ok, m_val, M_val, live, a, st):
        idx = live[rows]
        alpha[idx] = a[rows]
        bias[idx] = (m_val[rows] + M_val[rows]) / 2.0
        converged[idx] = ok
        steps[idx] = st[rows]

    n_done = n_capped = 1
    while live.size:
        if n_done or n_capped:
            # Per-pair arrays hold the i entries of all live problems, then
            # their j entries; entry (b, k) sits at flat position b * size + k.
            n = live.size
            starts = np.tile(np.arange(0, n * size, size), 2)
            bases = np.tile(base, 2)
            top = np.tile(c - eps, 2)
            a_flat, yg_flat, up_flat, low_flat, y_flat = (
                v.reshape(-1) for v in (a, yg, up, low, y))
        # Outside its working set an entry is never chosen; argmax and
        # argmin return the first extreme, the smallest index.
        i = np.where(up, yg, -np.inf).argmax(axis=1)
        j = np.where(low, yg, np.inf).argmin(axis=1)
        ij = np.concatenate((i, j))
        flat = starts + ij
        has_i = up_flat[flat[:n]]
        has_j = low_flat[flat[n:]]
        yg_ij = yg_flat[flat]
        m_val = yg_ij[:n]
        M_val = yg_ij[n:]
        both = has_i & has_j
        gap_closed = m_val - M_val <= SMO_TOL
        if np.count_nonzero(both) < n:
            # An empty working set ends a problem as converged.
            m_val = np.where(has_i, m_val, 0.0)
            M_val = np.where(has_j, M_val, m_val)
            gap_closed |= ~both

        # Two-variable subproblem along the feasible direction through (i, j).
        rows = bases + ij
        y_ij = y_flat[flat]
        a_ij = a_flat[flat]
        y_i, y_j = y_ij[:n], y_ij[n:]
        a_i, a_j = a_ij[:n], a_ij[n:]
        d_ii = diag[rows]
        eta = np.maximum(d_ii[:n] + d_ii[n:] - 2.0 * kernel_rows[rows[n:], i],
                         1e-12)
        s = y_i * y_j
        opposite = s < 0
        total = a_i + a_j
        lo = np.maximum(0.0, np.where(opposite, a_j - a_i, total - c))
        hi = np.minimum(c, np.where(opposite, c + a_j - a_i, total))
        a_j_new = np.minimum(np.maximum(a_j + y_j * (M_val - m_val) / eta, lo),
                             hi)
        d_j = a_j_new - a_j
        d_ij = np.concatenate((-s * d_j, d_j))
        # A numerically stuck pair stops while the gap is still above SMO_TOL.
        done = gap_closed | (np.abs(d_j) < 1e-15)
        n_done = np.count_nonzero(done)
        if n_done:
            record(done, gap_closed[done], m_val, M_val, live, a, st)

        # Problems recorded as done take this update too; it is discarded
        # when they leave the batch below. Elsewhere i and j differ.
        a_ij = a_ij + d_ij
        a_flat[flat] = a_ij
        step = kernel_rows[rows] * (-y_ij * d_ij)[:, None]
        yg += step[:n] + step[n:]
        pos = y_ij > 0
        below = a_ij < top
        above = a_ij > eps
        up_flat[flat] = np.where(pos, below, above)
        low_flat[flat] = np.where(pos, above, below)
        st += ~done
        capped = st >= caps
        n_capped = np.count_nonzero(capped)
        if n_capped:
            record(capped, False, m_val, M_val, live, a, st)
        if n_done or n_capped:
            keep = ~(done | capped)
            live, a, yg, up, low, y, c, caps, base, st = (
                v[keep] for v in (live, a, yg, up, low, y, c, caps, base, st))
    return alpha, bias, converged, steps


@dataclass(frozen=True)
class _BinarySVM:
    pos: int  # class codes: indices into the model's classes
    neg: int
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


def svm_fit(points, labels, params: SVMParams) -> SVMModel:
    """Train one-vs-one soft-margin SVMs over all class pairs.

    The smaller class identifier of each pair takes the +1 side, and the
    pairs are solved together in one lockstep batch. If a binary problem
    stops before the violation gap closes, because it hit its pair-update
    cap or took a step too small to move alpha, the model carries a warning
    saying which in its metadata instead of failing.
    """
    pts, classes, codes = _training_data(points, labels)
    ((model,),) = _svm_fit_many(pts, classes, codes, [np.arange(pts.shape[0])],
                                [[params]])
    if isinstance(model, ValueError):
        raise model
    return model


def _encode(labels):
    """Distinct labels as strings in canonical order, and the integer code
    of every label: its class's index in that order."""
    names = [str(v) for v in labels]
    classes = tuple(sorted_classes(names))
    index = {c: i for i, c in enumerate(classes)}
    return classes, np.array([index[v] for v in names], dtype=np.intp)


def _training_data(points, labels):
    """Points as a float array, and ``_encode``'s classes and codes."""
    pts = np.asarray(points, dtype=float)
    classes, codes = _encode(labels)
    if pts.ndim != 2 or pts.shape[0] != codes.size:
        raise ValueError("need a 2-d array of points with one label per row")
    return pts, classes, codes


def _two_classes(classes, codes) -> None:
    """Raise before any fit when the training rows hold one class."""
    if codes.size and (codes == codes[0]).all():
        raise ValueError(f"every training row has class "
                         f"{classes[codes[0]]!r}; need at least two classes")


def _pair_kernel(points, members, kernel: str, gamma: float) -> np.ndarray:
    sub = points[members]
    return kernel_matrix(sub, sub, kernel, gamma)


def _svm_fit_many(pts, classes, codes, folds, params_lists):
    """``svm_fit`` for parameter points on many training folds at once.

    ``pts``, ``classes`` and ``codes`` are as ``_training_data`` returns
    them, ``folds`` holds arrays of the row indices that each fold trains
    on, and ``params_lists`` the parameter points to fit on each fold. Every
    model votes over all of ``classes``, with a pair for each two classes
    the fold has rows of. Each class pair's kernel is built once per fold
    and kernel type and shared by the points that differ only in C, and
    every binary problem of every fold is solved by one lockstep call.
    Yields, per fold, an iterator over its points of the model ``svm_fit``
    would return or the ``ValueError`` it would raise. Models are assembled
    one at a time, as they are read, because each holds copies of its
    support vectors.
    """
    kernels = []
    problems = []
    fits = []
    for rows, params_list in zip(folds, params_lists):
        fold_codes = codes[rows]
        present = np.flatnonzero(np.bincount(fold_codes,
                                             minlength=len(classes)))
        if present.size < 2:
            fits.append(None)
            continue
        pairs = []
        for pos, neg in itertools.combinations(present.tolist(), 2):
            mask = (fold_codes == pos) | (fold_codes == neg)
            pairs.append((pos, neg, rows[mask],
                          np.where(fold_codes[mask] == pos, 1.0, -1.0)))
        first_kernel = {}
        plans = []
        for params in params_list:
            if params.kernel not in first_kernel:
                gamma = resolve_gamma(params, pts[rows])
                first_kernel[params.kernel] = (len(kernels), gamma)
                kernels += [(members.size, functools.partial(
                    _pair_kernel, pts, members, params.kernel, gamma))
                    for _, _, members, _ in pairs]
            first, gamma = first_kernel[params.kernel]
            plans.append((params, gamma, len(problems)))
            problems += [(first + q, y, params.c)
                         for q, (_, _, _, y) in enumerate(pairs)]
        fits.append((pairs, plans))
    results = _smo_lockstep(kernels, problems)

    def assemble(pairs, plan):
        params, gamma, start = plan
        binary = []
        notes = []
        smo_steps = 0
        for q, (pos, neg, members, y) in enumerate(pairs):
            result = results[start + q]
            if isinstance(result, ValueError):
                return result
            alpha, bias, ok, steps = result
            smo_steps += steps
            if not ok:
                names = f"({classes[pos]}, {classes[neg]})"
                notes.append(f"pair {names} hit the iteration cap"
                             if steps >= _step_cap(y.size) else
                             f"pair {names} stopped on a numerically stuck "
                             f"step before the gap closed")
            sv = alpha > 1e-12
            binary.append(_BinarySVM(pos, neg, pts[members[sv]],
                                     alpha[sv] * y[sv], bias))
        return SVMModel(classes, tuple(binary), params, gamma, not notes,
                        smo_steps, tuple(notes))

    for fit, params_list in zip(fits, params_lists):
        if fit is None:
            yield [ValueError("need at least two classes")] * len(params_list)
        else:
            pairs, plans = fit
            # Bound now, so that folds may be read after later ones.
            yield map(functools.partial(assemble, pairs), plans)


def _svm_votes(model: SVMModel, queries: np.ndarray) -> np.ndarray:
    """Class code of each query row by one-vs-one majority vote; ties go
    to the smallest class identifier."""
    votes = np.full((queries.shape[0], len(model.classes)), -1.0)
    # Only classes that some pair separates start at zero votes, so a class
    # with no training row never wins, even where every decision is NaN.
    votes[:, [c for pair in model.pairs for c in (pair.pos, pair.neg)]] = 0.0
    for pair in model.pairs:
        dec = pair.decision(queries, model.params.kernel, model.gamma)
        votes[dec > 0, pair.pos] += 1
        votes[dec <= 0, pair.neg] += 1
    return np.argmax(votes, axis=1)


def svm_predict(model: SVMModel, queries) -> np.ndarray:
    """One-vs-one majority vote; ties go to the smallest class identifier."""
    q = np.asarray(queries, dtype=float)
    if q.ndim == 1:
        q = q.reshape(1, -1)
    return np.array(model.classes, dtype=object)[_svm_votes(model, q)]


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
    _, codes = _encode(labels)
    n = codes.size
    if k < 2 or k > n:
        raise ValueError(f"cannot split {n} rows into {k} folds")
    rng = np.random.default_rng(seed)
    counts = np.bincount(codes)
    if counts.min() < k:
        warnings.warn(
            f"smallest class has {counts.min()} members (< {k} folds); "
            "falling back to unstratified folds", stacklevel=2)
        order = rng.permutation(n)
    else:
        # Each class's members, shuffled, one class after another.
        members = [np.flatnonzero(codes == c) for c in range(counts.size)]
        order = np.concatenate([idx[rng.permutation(idx.size)]
                                for idx in members])
    # Position t of the order goes to fold t mod k.
    return [np.sort(order[f::k]) for f in range(k)]


def _predict_splits(pts, classes, codes, splits):
    """Fit grid points on training rows and predict the class codes of
    test rows, for many splits at once.

    ``pts``, ``classes`` and ``codes`` are as ``_training_data`` returns
    them, and ``splits`` holds ``(train, test, grid)`` tuples: row numbers
    of ``pts`` and the parameter points to fit on ``train``. Yields, per
    split, a list over its grid of ``(predicted codes of test, the fitted
    model's warnings)`` or the ``ValueError`` the fit would raise. Per
    split, the KNN points share one neighbour order per Minkowski p; the SVM
    points of every split are solved in one lockstep call, and each SVM
    model is assembled, used and dropped in turn.
    """
    svm_lists = [[params for params in grid if isinstance(params, SVMParams)]
                 for _, _, grid in splits]
    svm_fits = (_svm_fit_many(pts, classes, codes,
                              [train for train, _, _ in splits], svm_lists)
                if any(svm_lists) else itertools.repeat(()))
    for (train, test, grid), models in zip(splits, svm_fits):
        out = [None] * len(grid)
        by_p = {}
        for g, params in enumerate(grid):
            if not isinstance(params, KNNParams):
                continue
            if params.n_neighbors > train.size:
                out[g] = ValueError(f"n_neighbors={params.n_neighbors} "
                                    f"exceeds training size {train.size}")
            else:
                by_p.setdefault(params.p, []).append(
                    (g, (params.n_neighbors, params.weights)))
        for p, points in by_p.items():
            dist = _minkowski(pts[test], pts[train], p)
            order = np.argsort(dist, axis=1, kind="stable")
            winners = _knn_votes(dist, order, codes[train], len(classes),
                                 [point for _, point in points])
            for g, point in points:
                out[g] = (winners[point], ())
        svm_points = [g for g, params in enumerate(grid)
                      if isinstance(params, SVMParams)]
        for g, model in zip(svm_points, models):
            out[g] = model if isinstance(model, ValueError) else (
                _svm_votes(model, pts[test]), model.warnings)
        yield out


def grid_search_cv(points, labels, grid, k: int = 10, seed=0):
    """Pick the grid point with the best mean validation accuracy.

    Ties keep the earliest grid entry, so the grid's canonical enumeration
    order doubles as the tie-break. A point is skipped as infeasible when
    fitting it on some training fold would raise ``ValueError`` (k above
    the fold size, a single-class fold, a kernel that is not finite). When
    every point is, the ``ValueError`` names the first point's reason.
    Returns ``(best_params, best_score)``.

    The search runs fold by fold and gives the scores of fitting each point
    on its own: per fold, the KNN points sort the neighbours once per
    Minkowski p, and the SVM points of all folds share their class-pair
    kernels across C and are solved in one lockstep batch. It is the
    one-search case of the batch of searches that ``nested_cv`` runs.
    """
    pts, classes, codes = _training_data(points, labels)
    (result,) = _search_many(pts, classes, codes,
                             [(np.arange(pts.shape[0]), k, seed)], grid)
    if isinstance(result, ValueError):
        raise result
    return result


def _search_many(pts, classes, codes, searches, grid) -> list:
    """``grid_search_cv`` on many ``(rows, k, seed)`` searches at once.

    ``pts``, ``classes`` and ``codes`` are as ``_training_data`` returns
    them. ``rows`` holds ascending row numbers of ``pts``, and folds index
    ``pts`` by those numbers. Every fold of every search is scored by one
    ``_predict_splits`` call. Returns, per search, ``(best_params,
    best_score)`` or the ``ValueError`` for a search with no feasible
    point; an invalid ``k`` raises at once.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("empty hyperparameter grid")
    for params in grid:
        if not isinstance(params, (KNNParams, SVMParams)):
            raise TypeError(
                f"unsupported parameter type {type(params).__name__}")
    owners = []
    splits = []  # (training rows, validation rows, grid)
    for s, (rows, k, seed) in enumerate(searches):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            folds = kfold_splits(codes[rows], k, seed)
        owners += [s] * len(folds)
        splits += [(np.delete(rows, fold), rows[fold], grid) for fold in folds]

    # Validation accuracies per search and grid point; once a fold is
    # infeasible, the ValueError of its first infeasible fold.
    scores = [[[] for _ in grid] for _ in searches]
    fits = _predict_splits(pts, classes, codes, splits)
    for s, (_, fold, _), fold_fits in zip(owners, splits, fits):
        for g, fit in enumerate(fold_fits):
            if isinstance(scores[s][g], list):
                scores[s][g] = fit if isinstance(fit, ValueError) else (
                    scores[s][g] + [float(np.mean(codes[fold] == fit[0]))])

    results = []
    for search_scores in scores:
        feasible = [(params, float(np.mean(v))) for params, v
                    in zip(grid, search_scores) if isinstance(v, list)]
        # max keeps the first of equal scores, the earliest grid entry.
        results.append(max(feasible, key=lambda e: e[1]) if feasible else
                       ValueError(f"no grid point was feasible for this data "
                                  f"({grid[0].tag()}: {search_scores[0]})"))
    return results


@dataclass(frozen=True)
class CVReport:
    """Outcome of one nested cross-validation run.

    ``notes`` holds, per outer fold, the warnings of the model refit there
    (an SVM pair that stopped before its gap closed); KNN refits have none.
    """

    fold_accuracies: tuple
    chosen_params: tuple
    classes: tuple
    confusion: np.ndarray
    notes: tuple = ()


def _score_holdouts(pts, classes, codes, splits, grid) -> list:
    """Tune on each split's training rows, refit the choice there and
    predict its holdout rows.

    ``pts``, ``classes`` and ``codes`` are as ``_training_data`` returns
    them, and ``splits`` holds ``(train, holdout, inner_k, seed)`` tuples:
    row numbers of ``pts``, and the folds and seed of the grid search on
    ``train``. One ``_search_many`` call tunes every split and one
    ``_predict_splits`` call refits every choice. Returns, per split,
    ``(params, accuracy, predicted codes of holdout, the refit's
    warnings)``. Errors are those of a split-by-split loop: the first
    failed search or refit raises, and no split after a failed search is
    refit.
    """
    searches = _search_many(pts, classes, codes, [
        (train, inner_k, seed) for train, _, inner_k, seed in splits], grid)
    failed = next((f for f, r in enumerate(searches)
                   if isinstance(r, ValueError)), len(splits))
    refits = _predict_splits(pts, classes, codes, [
        (train, holdout, (search[0],))
        for (train, holdout, _, _), search in zip(splits, searches[:failed])])
    out = []
    for (_, holdout, _, _), (params, _), (fit,) in zip(splits, searches, refits):
        if isinstance(fit, ValueError):
            raise fit
        out.append((params, float(np.mean(codes[holdout] == fit[0])), *fit))
    if failed < len(splits):
        raise searches[failed]
    return out


def holdout_cv(train_points, train_labels, test_points, test_labels, grid,
               k: int = 10, seed=0):
    """Tune on the training rows, refit the choice on all of them and
    score the test rows, as ``nested_cv`` scores one outer fold.

    The grid search runs on ``k`` folds of the training rows, seeded by
    ``seed``. A test label that the training rows lack never wins a vote,
    so its rows count as wrong. Returns ``(accuracy, params, notes)``, the
    notes being the refit's warnings. Training rows of one class raise
    before any fit.
    """
    n_train = len(train_labels)
    if np.shape(train_points)[0] != n_train:
        raise ValueError("need one label per training row")
    pts, classes, codes = _training_data(np.vstack([train_points, test_points]),
                                         [*train_labels, *test_labels])
    _two_classes(classes, codes[:n_train])
    splits = [(np.arange(n_train), np.arange(n_train, pts.shape[0]), k, seed)]
    ((params, accuracy, _, notes),) = _score_holdouts(pts, classes, codes,
                                                      splits, grid)
    return accuracy, params, notes


def nested_cv(points, labels, grid, outer_k: int = 10, inner_k: int = 10,
              seed=0) -> CVReport:
    """Nested cross-validation: inner folds tune, outer folds score.

    Each outer holdout is scored by a model refit on the remaining data with
    the hyperparameters the inner grid search picked there. Per-fold seeds
    are derived from the master seed so parallel and serial evaluation of
    folds agree bit-for-bit.

    The SVM problems of all outer folds' inner searches are solved in one
    lockstep call and their SVM refits in a second; results and errors are
    those of running the folds one after another. Rows of one class, and
    an ``inner_k`` larger than outer fold 0's training set, raise before
    any fit.
    """
    pts, classes, codes = _training_data(points, labels)
    _two_classes(classes, codes)
    ss = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    seeds = ss.spawn(outer_k + 1)
    folds = kfold_splits(codes, outer_k, seeds[0])
    # Training sets grow with the fold index, so an inner k too large for
    # one is too large for fold 0's, as a fold-by-fold loop would find.
    smallest = pts.shape[0] - folds[0].size
    if inner_k > smallest:
        raise ValueError(f"outer fold 0 leaves {smallest} training "
                         f"row{'s' * (smallest != 1)}, fewer than {inner_k} "
                         f"inner folds")
    scored = _score_holdouts(pts, classes, codes, [
        (np.delete(np.arange(pts.shape[0]), holdout), holdout, inner_k,
         seeds[f + 1]) for f, holdout in enumerate(folds)], grid)
    pooled = np.zeros((len(classes), len(classes)), dtype=int)
    for holdout, (_, _, pred, _) in zip(folds, scored):
        np.add.at(pooled, (codes[holdout], pred), 1)
    chosen, fold_acc, _, notes = zip(*scored)
    return CVReport(fold_acc, chosen, classes, pooled, notes)
