"""Checks on geostat's output files, and the references they compare with.

Every check returns a list of problems; an empty list means the output is
verified. The references are computed once per benchmark run, before any
timing starts: feature rows re-derived one series at a time through
``extract_univariate``, and 1-NN warping predictions recomputed without
early abandoning by :func:`dtw_reference`, which shares no code with
geostat's ``dtw`` module.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

import numpy as np

# Accuracy floors, set below the lowest value the seed code reached on
# seeds 0-39 (0.63 and 0.60). Chance level is 1/3 on every dataset.
EVALUATE_FLOOR = 0.45      # best grid cell per model, archive_evaluate
NESTED_FLOOR = 0.45        # mean over nested-CV folds per model
REL_TOL = 1e-9
ABS_TOL = 1e-12


def read_csv(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def digest(paths) -> str:
    """One hash over the names and bytes of the given files."""
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _accuracy_ok(value: str, n: int, where: str, problems: list) -> float:
    """Parse an accuracy and check it is k/n for a whole k."""
    try:
        acc = float(value)
    except ValueError:
        problems.append(f"{where}: accuracy {value!r} is not a number")
        return float("nan")
    if not (math.isfinite(acc) and 0.0 <= acc <= 1.0
            and abs(acc * n - round(acc * n)) < 1e-6):
        problems.append(f"{where}: accuracy {acc!r} is not k/{n}")
    return acc


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------

def feature_header(windows: int, stat_names, dists) -> list:
    return [f"{d}.{w}.{s}" for d in dists for w in range(windows)
            for s in stat_names] + ["label"]


def check_feature_file(path: str, header: list, labels: list,
                       expected_rows: dict) -> list:
    """Shape, header, labels, finiteness, and sampled rows of one CSV.

    ``expected_rows`` maps a row index to its re-derived feature values.
    """
    if not os.path.exists(path):
        return [f"{path}: missing"]
    rows = read_csv(path)
    name = os.path.basename(path)
    problems = []
    if not rows or rows[0] != header:
        return [f"{name}: header differs from the 5 x 18 x windows layout"]
    body = rows[1:]
    if len(body) != len(labels):
        return [f"{name}: {len(body)} rows, expected {len(labels)}"]
    if any(len(r) != len(header) for r in body):
        return [f"{name}: a row has the wrong number of fields"]
    if [r[-1] for r in body] != labels:
        problems.append(f"{name}: class labels differ from the dataset")
    try:
        values = np.array([r[:-1] for r in body], dtype=float)
    except ValueError:
        return problems + [f"{name}: a field is not a number"]
    if not np.all(np.isfinite(values)):
        problems.append(f"{name}: non-finite feature values")
    for idx, want in expected_rows.items():
        got = values[idx]
        bad = np.abs(got - want) > REL_TOL * np.maximum(np.abs(got), np.abs(want)) + ABS_TOL
        if bad.any():
            col = int(np.flatnonzero(bad)[0])
            problems.append(f"{name}: row {idx} column {header[col]} is "
                            f"{got[col]!r}, re-derived {want[col]!r}")
    return problems


# ---------------------------------------------------------------------------
# evaluate and dtw
# ---------------------------------------------------------------------------

def check_evaluate(out: str, cells: list, models: list, n_test: int) -> list:
    results = os.path.join(out, "results.csv")
    summary = os.path.join(out, "summary.csv")
    for path in (results, summary):
        if not os.path.exists(path):
            return [f"{path}: missing"]
    rows = read_csv(results)
    problems = []
    if rows[0] != ["model", "windows", "smoothings", "run", "fold", "accuracy"]:
        return ["results.csv: unexpected header"]
    want_keys = [(m, str(w), str(s), "0") for (w, s) in cells for m in models]
    got_keys = [tuple(r[:4]) for r in rows[1:]]
    if got_keys != want_keys:
        return [f"results.csv: rows {got_keys} differ from grid {want_keys}"]
    accs = {}
    for r in rows[1:]:
        accs[(r[0], int(r[1]), int(r[2]))] = _accuracy_ok(
            r[5], n_test, f"results.csv {r[0]} {r[1]}W {r[2]}S", problems)
    srows = read_csv(summary)
    if len(srows) != 1 + len(want_keys):
        problems.append(f"summary.csv: {len(srows) - 1} rows, expected {len(want_keys)}")
    else:
        for r, (m, w, s, _) in zip(srows[1:], want_keys):
            acc = accs[(m, int(w), int(s))]
            if r[0] != f"{m.upper()}_{w}W_{s}S" or any(
                    float(v) != acc for v in r[1:4]):
                problems.append(f"summary.csv: row {r} disagrees with results.csv")
    for m in models:
        best = max(a for (mm, _, _), a in accs.items() if mm == m)
        if not best >= EVALUATE_FLOOR:
            problems.append(f"evaluate: best {m} accuracy {best} below floor "
                            f"{EVALUATE_FLOOR}")
    return problems


def dtw_reference(queries, train, band_fraction: float) -> np.ndarray:
    """Warping distances of every (query, train) pair, no early abandoning.

    Same recurrence and local cost as geostat's distance (squared
    differences, steps (i-1, j), (i, j-1), (i-1, j-1), square root of the
    total), evaluated for all pairs at once. All series share one length.
    Returns a (queries, train) array.
    """
    q = np.asarray(queries, dtype=float)
    t = np.asarray(train, dtype=float)
    n = m = q.shape[1]
    w = int(np.ceil(band_fraction * n))
    prev = np.full((q.shape[0], t.shape[0], m), np.inf)
    for i in range(n):
        lo, hi = max(0, i - w), min(m - 1, i + w)
        cost = (q[:, None, i, None] - t[None, :, lo:hi + 1]) ** 2
        cur = np.full_like(prev, np.inf)
        # The (i-1, j) and (i-1, j-1) candidates do not depend on this row.
        up = prev[:, :, lo:hi + 1].copy()
        if lo > 0:
            np.minimum(up, prev[:, :, lo - 1:hi], out=up)
        else:
            np.minimum(up[:, :, 1:], prev[:, :, lo:hi], out=up[:, :, 1:])
        if i == 0:
            up[:, :, 0] = 0.0
        for j in range(lo, hi + 1):
            best = up[:, :, j - lo]
            if j > lo:
                best = np.minimum(best, cur[:, :, j - 1])
            cur[:, :, j] = cost[:, :, j - lo] + best
        prev = cur
    return np.sqrt(prev[:, :, m - 1])


def nn_predictions(distances: np.ndarray, train_labels) -> list:
    """Nearest training label per query; ties go to the earliest row."""
    return [train_labels[int(np.argmin(row))] for row in distances]


def check_dtw(out: str, name: str, band: float, expected_acc: float) -> list:
    path = os.path.join(out, "dtw_results.csv")
    if not os.path.exists(path):
        return [f"{path}: missing"]
    rows = read_csv(path)
    if rows != [["dataset", "band", "accuracy"],
                [name, repr(float(band)), repr(float(expected_acc))]]:
        return [f"dtw_results.csv: {rows[1:]} differs from the recomputed "
                f"accuracy {expected_acc!r}"]
    return []


# ---------------------------------------------------------------------------
# nested
# ---------------------------------------------------------------------------

def check_nested(out: str, models: list, folds: int, kept_counts: dict) -> list:
    problems = []
    paths = [os.path.join(out, "nested_folds.csv"),
             os.path.join(out, "nested_summary.csv")]
    paths += [os.path.join(out, f"confusion_{m}.csv") for m in models]
    for path in paths:
        if not os.path.exists(path):
            return [f"{path}: missing"]
    n_tracks = sum(kept_counts.values())
    fold_rows = read_csv(paths[0])
    want = [(m, "0", str(f)) for m in models for f in range(folds)]
    if [tuple(r[:3]) for r in fold_rows[1:]] != want:
        return ["nested_folds.csv: rows differ from models x folds"]
    means = {}
    for r in fold_rows[1:]:
        acc = float(r[3])
        if not (math.isfinite(acc) and 0.0 <= acc <= 1.0) or not r[4]:
            problems.append(f"nested_folds.csv: bad row {r}")
        means.setdefault(r[0], []).append(acc)
    summary = read_csv(paths[1])
    if [r[0] for r in summary[1:]] != [m.upper() for m in models]:
        problems.append("nested_summary.csv: unexpected model rows")
    else:
        for r, m in zip(summary[1:], models):
            mean = float(r[3])
            if abs(mean - float(np.mean(means[m]))) > 1e-12:
                problems.append(f"nested_summary.csv: {m} mean disagrees with folds")
            if not mean >= NESTED_FLOOR:
                problems.append(f"nested: {m} accuracy {mean} below floor {NESTED_FLOOR}")
    classes = sorted(kept_counts)
    for m, path in zip(models, paths[2:]):
        rows = read_csv(path)
        if rows[0] != ["class"] + classes or [r[0] for r in rows[1:]] != classes:
            problems.append(f"confusion_{m}.csv: classes differ from {classes}")
            continue
        counts = np.array([[int(v) for v in r[1:]] for r in rows[1:]])
        if counts.sum(axis=1).tolist() != [kept_counts[c] for c in classes]:
            problems.append(f"confusion_{m}.csv: per-class totals differ from "
                            f"the {n_tracks} tracks the filter should keep")
    return problems
