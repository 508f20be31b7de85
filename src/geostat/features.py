"""Feature-matrix assembly: windowed summaries of geometric distributions.

A feature row is built by deriving the geometric signal stack of a series
once, splitting the time axis into consecutive equal windows, and
summarizing every derived distribution inside every window. Columns follow a
fixed (distribution, window, statistic) order, distribution-major, so that
ablation masks and single-window slices are plain index computations.

Univariate rows have one builder, :func:`univariate_grid`: it featurizes
series that share a sample count and step in blocks, deriving the signals
of a block in one array pass and summarizing them under every window count
of one smoothing before moving on, in scratch buffers all blocks reuse.
:func:`univariate_matrix` and :func:`extract_univariate` call it.

Every featurizer here summarizes under one statistics ladder,
``UNIVARIATE_SUMMARY``. Of a :class:`GeoStatConfig`, the univariate
featurizers and :func:`extract_multivariate` read ``smoothing_iterations``
and ``num_windows``; none reads ``min_samples``, as series arrive already
resampled.

The vessel featurizers in :mod:`geostat.ingest` take no config; their
smoothing, window length and statistics are module constants there.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .geometry import build_stack, univariate_signals
from .series import UniformSeries
from .stats import (
    SCRATCH_COPIES,
    SphericalSample,
    SummaryConfig,
    frechet_mean_variance,
    summarize,
    summarize_into,
)

__all__ = [
    "GeoStatConfig",
    "FeatureMatrix",
    "AblationMask",
    "UNIVARIATE_DISTRIBUTIONS",
    "UNIVARIATE_SUMMARY",
    "FRECHET_STATISTICS",
    "window_bounds",
    "extract_univariate",
    "extract_multivariate",
    "univariate_matrix",
    "univariate_grid",
    "z_normalize",
    "mask_columns",
    "window_columns",
    "select_columns",
    "write_feature_csv",
    "read_feature_csv",
]

UNIVARIATE_DISTRIBUTIONS = (
    "position", "velocity", "acceleration", "curvature", "signed_curvature",
)

# The statistics of every summary vector this module computes.
UNIVARIATE_SUMMARY = SummaryConfig()

# Spherical position is summarized by intrinsic mean coordinates plus the
# intrinsic variance rather than by a scalar summary vector.
FRECHET_STATISTICS = ("frechet_lat", "frechet_lon", "frechet_var")

# Samples featurized together: a block holds this many samples' worth of
# series (16 series of 500 samples), which bounds the transient arrays of
# the batched path whatever the number of series. Blocks of 4,000 to
# 16,000 samples were equally fast; larger ones only cost memory.
BLOCK_SAMPLES = 8_000


@dataclass(frozen=True)
class GeoStatConfig:
    """Extraction settings: smoothing and windows.

    ``smoothing_iterations`` and ``num_windows`` are read by
    :func:`extract_univariate`, :func:`univariate_matrix` and
    :func:`extract_multivariate`; every one of them summarizes under
    ``UNIVARIATE_SUMMARY``. The vessel featurizers of
    :mod:`geostat.ingest` read no config.

    ``min_samples`` is checked but read by no featurization: the functions
    here take series already resampled, and the CLI resamples with its own
    ``RunConfig.min_samples``. The field stays only because the benchmark's
    workloads (``perfbench/workloads.py``) build configs with it.
    """

    min_samples: int = 500
    smoothing_iterations: int = 1
    num_windows: int = 1

    def __post_init__(self):
        if self.min_samples < 3:
            raise ValueError("min_samples must be at least 3")
        if self.smoothing_iterations < 0:
            raise ValueError("smoothing_iterations must be non-negative")
        if self.num_windows < 1:
            raise ValueError("num_windows must be at least 1")


@dataclass(frozen=True)
class FeatureMatrix:
    """Rectangular feature block: one row per series, labeled columns.

    ``column_labels`` holds (distribution, window, statistic) triples aligned
    with the columns of ``rows``; ``labels`` holds one class label per row.
    """

    rows: np.ndarray
    column_labels: tuple
    labels: tuple

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2:
            raise ValueError("rows must be a 2-d array")
        cols = tuple((str(d), int(w), str(s)) for d, w, s in self.column_labels)
        if rows.shape[1] != len(cols):
            raise ValueError("column label count does not match row width")
        if len(set(cols)) != len(cols):
            raise ValueError("column labels must be unique")
        labels = tuple(str(v) for v in self.labels)
        if rows.shape[0] != len(labels):
            raise ValueError("label count does not match row count")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "column_labels", cols)
        object.__setattr__(self, "labels", labels)

    @property
    def n_columns(self) -> int:
        return self.rows.shape[1]

    @property
    def distributions(self) -> tuple:
        seen = []
        for d, _, _ in self.column_labels:
            if d not in seen:
                seen.append(d)
        return tuple(seen)

    @property
    def statistics(self) -> tuple:
        seen = []
        for _, _, s in self.column_labels:
            if s not in seen:
                seen.append(s)
        return tuple(seen)

    @property
    def windows(self) -> tuple:
        return tuple(sorted({w for _, w, _ in self.column_labels}))


@dataclass(frozen=True)
class AblationMask:
    """Named columns to drop: whole distributions and/or statistics.

    Statistic names may be the literal names present in the matrix or one of
    the quantile groups ``low_quantiles`` (lowest four), ``high_quantiles``
    (highest four), and ``mid_quantiles`` (middle three).
    """

    removed_distributions: frozenset = frozenset()
    removed_statistics: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "removed_distributions",
                           frozenset(str(x) for x in self.removed_distributions))
        object.__setattr__(self, "removed_statistics",
                           frozenset(str(x) for x in self.removed_statistics))


def window_bounds(n_samples: int, num_windows: int) -> list:
    """Split ``range(n_samples)`` into consecutive windows of near-equal size.

    The first ``n_samples % num_windows`` windows receive one extra sample,
    so sizes differ by at most one and the windows partition the index range.
    """
    if num_windows < 1:
        raise ValueError("need at least one window")
    if num_windows > n_samples:
        raise ValueError("more windows than samples")
    base = n_samples // num_windows
    extra = n_samples % num_windows
    bounds = []
    start = 0
    for w in range(num_windows):
        size = base + (1 if w < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def _check_window_sizes(n_samples: int, num_windows: int) -> list:
    bounds = window_bounds(n_samples, num_windows)
    if min(b - a for a, b in bounds) < 3:
        raise ValueError(
            f"{n_samples} samples leave fewer than 3 per window "
            f"with {num_windows} windows")
    return bounds


def extract_univariate(us: UniformSeries, cfg: GeoStatConfig):
    """Feature row of a univariate series.

    Derives the signal stack globally, then summarizes the five distributions
    (position, velocity, acceleration, curvature, signed curvature) inside
    each window. Returns ``(values, column_labels)``; this is the one-row
    case of :func:`univariate_matrix`.
    """
    fm = univariate_matrix([us], [""], cfg)
    return fm.rows[0], list(fm.column_labels)


def extract_multivariate(us: UniformSeries, cfg: GeoStatConfig):
    """Feature row of a multivariate series with spherical positions.

    The first two value dimensions are read as (latitude, longitude), in
    degrees, and the mean coordinates are given in degrees. Per window,
    position contributes the intrinsic mean coordinates and intrinsic
    variance; speed and its derivative contribute scalar summary vectors.
    """
    if us.dim < 2:
        raise ValueError("extract_multivariate requires dimension >= 2")
    bounds = _check_window_sizes(us.n_samples, cfg.num_windows)
    stack = build_stack(us, cfg.smoothing_iterations)

    lat = np.radians(stack.base.values[:, 0])
    lon = np.radians(stack.base.values[:, 1])

    values = []
    labels = []
    for w, (a, b) in enumerate(bounds):
        (m_lat, m_lon), var = frechet_mean_variance(
            SphericalSample(lat[a:b], lon[a:b]))
        values.extend([np.degrees(m_lat), np.degrees(m_lon), var])
        labels.extend(("position", w, s) for s in FRECHET_STATISTICS)

    stat_names = UNIVARIATE_SUMMARY.statistic_names
    for name, samples in (("speed", stack.speed),
                          ("speed_derivative", stack.speed_deriv)):
        for w, (a, b) in enumerate(bounds):
            vec = summarize(samples[a:b], UNIVARIATE_SUMMARY)
            values.extend(vec.tolist())
            labels.extend((name, w, s) for s in stat_names)
    return np.array(values), labels


def _window_runs(n_samples: int, num_windows: int) -> list:
    """``(first window, count, first sample, size)`` of each run of
    adjacent windows of one size; sizes differ by at most one."""
    bounds = _check_window_sizes(n_samples, num_windows)
    runs = []
    w = 0
    for size, same in itertools.groupby(b - a for a, b in bounds):
        count = len(list(same))
        runs.append((w, count, bounds[w][0], size))
        w += count
    return runs


def _column_labels(num_windows: int) -> tuple:
    stat_names = UNIVARIATE_SUMMARY.statistic_names
    return tuple((name, w, s) for name in UNIVARIATE_DISTRIBUTIONS
                 for w in range(num_windows) for s in stat_names)


def univariate_matrix(series, class_labels, cfg: GeoStatConfig) -> FeatureMatrix:
    """Feature matrix of a collection of univariate uniform series.

    Row ``i`` is the feature row of ``series[i]``, as
    :func:`extract_univariate` would give it. Series may differ in length
    and step: those sharing both are featurized by :func:`univariate_grid`,
    at most ``BLOCK_SAMPLES`` samples' worth of series per call, so
    transient memory does not grow with the number of series.
    """
    series = list(series)
    class_labels = list(class_labels)
    if len(series) != len(class_labels):
        raise ValueError("series and labels counts differ")
    if not series:
        raise ValueError("empty collection")
    groups = {}
    for i, us in enumerate(series):
        if us.dim != 1:
            raise ValueError("univariate features require 1-dimensional series")
        groups.setdefault((us.n_samples, us.step), []).append(i)
    columns = _column_labels(cfg.num_windows)
    rows = np.empty((len(series), len(columns)))
    for (n_samples, step), members in groups.items():
        per_block = max(1, BLOCK_SAMPLES // n_samples)
        for start in range(0, len(members), per_block):
            chunk = members[start:start + per_block]
            values = np.column_stack([series[i].values[:, 0] for i in chunk])
            rows[chunk] = univariate_grid(
                values, step, [class_labels[i] for i in chunk],
                cfg.smoothing_iterations, [cfg.num_windows])[0].rows
    return FeatureMatrix(rows, columns, tuple(class_labels))


def univariate_grid(values, step: float, class_labels, smoothing: int,
                    windows) -> list:
    """Feature matrices of many series on one grid, one per window count.

    ``values`` is (samples x series), one univariate series per column, all
    sampled every ``step``. Matrix ``c`` equals :func:`univariate_matrix` of
    the columns with ``smoothing`` iterations and ``windows[c]`` windows.
    This is the one function that derives and summarizes univariate
    signals.

    Series are featurized in blocks of ``BLOCK_SAMPLES`` samples' worth:
    the signals of a block are derived once and summarized under every
    window count, straight into the rows of each matrix. The signals and
    every summary's scratch space live in one buffer that all blocks reuse.
    """
    values = np.asarray(values, dtype=float)
    windows = list(windows)
    class_labels = tuple(class_labels)
    if values.ndim != 2:
        raise ValueError("values must be a (samples x series) array")
    n_samples, n_series = values.shape
    if n_series != len(class_labels):
        raise ValueError("series and labels counts differ")
    if not n_series:
        raise ValueError("empty collection")
    if not windows:
        raise ValueError("need at least one window count")
    if n_samples < 3:
        raise ValueError("uniform series needs at least 3 samples")
    if not step > 0:
        raise ValueError("step must be positive")
    runs = [_window_runs(n_samples, w) for w in windows]
    n_dist = len(UNIVARIATE_DISTRIBUTIONS)
    rows = [np.empty((n_series, n_dist, w, UNIVARIATE_SUMMARY.size))
            for w in windows]
    per_block = max(1, BLOCK_SAMPLES // n_samples)
    buffer = np.empty((1 + SCRATCH_COPIES) * n_dist * min(per_block, n_series)
                      * n_samples)
    for start in range(0, n_series, per_block):
        block = values[:, start:start + per_block]
        n_block = block.shape[1]
        size = n_dist * n_block * n_samples
        signals = buffer[:size].reshape(n_dist, n_block, n_samples)
        for out, signal in zip(signals, univariate_signals(block, step,
                                                           smoothing)):
            out[...] = signal.T
        for w_runs, matrix in zip(runs, rows):
            out = matrix[start:start + n_block].transpose(1, 0, 2, 3)
            # Windows of one size are adjacent, so each size is one
            # reshape and one summary.
            for w, count, a, width in w_runs:
                part = signals[:, :, a:a + count * width].reshape(
                    n_dist, n_block, count, width)
                summarize_into(part, UNIVARIATE_SUMMARY, out[:, :, w:w + count],
                               buffer[size:])
    return [FeatureMatrix(r.reshape(n_series, -1), _column_labels(w),
                          class_labels) for r, w in zip(rows, windows)]


def z_normalize(train: FeatureMatrix, others=()):
    """Standardize columns using training-set statistics only.

    Returns ``(train_out, others_out, means, stds)``. Columns with zero
    variance in the training data map to zero everywhere (in the training
    matrix and in every held-out matrix alike).

    Raises
    ------
    ValueError
        If a held-out matrix has a different column schema.
    """
    others = list(others)
    for fm in others:
        if fm.column_labels != train.column_labels:
            raise ValueError("column schema mismatch between matrices")
    means = train.rows.mean(axis=0)
    stds = train.rows.std(axis=0)
    safe = np.where(stds > 0, stds, 1.0)

    def transform(fm: FeatureMatrix) -> FeatureMatrix:
        normed = (fm.rows - means) / safe
        normed[:, stds == 0] = 0.0
        return FeatureMatrix(normed, fm.column_labels, fm.labels)

    return transform(train), [transform(fm) for fm in others], means, stds


def _expand_statistic_groups(names, present_stats):
    """Resolve quantile group names against the statistics actually present."""
    q_stats = [s for s in present_stats if s.startswith("q")]
    expanded = set()
    for name in names:
        if name == "low_quantiles":
            expanded.update(q_stats[:4])
        elif name == "high_quantiles":
            expanded.update(q_stats[-4:])
        elif name == "mid_quantiles":
            mid = len(q_stats) // 2
            expanded.update(q_stats[mid - 1:mid + 2])
        elif name in present_stats:
            expanded.add(name)
        else:
            raise ValueError(f"unknown statistic name {name!r}")
    return expanded


def mask_columns(fm: FeatureMatrix, mask: AblationMask) -> list:
    """Indices of the columns the mask keeps: those whose distribution and
    statistic it does not name.

    Raises if a mask name is not in the matrix vocabulary or if no columns
    would remain.
    """
    present_dists = set(fm.distributions)
    for name in mask.removed_distributions:
        if name not in present_dists:
            raise ValueError(f"unknown distribution name {name!r}")
    removed_stats = _expand_statistic_groups(mask.removed_statistics,
                                             fm.statistics)
    keep = [i for i, (d, _, s) in enumerate(fm.column_labels)
            if d not in mask.removed_distributions and s not in removed_stats]
    if not keep:
        raise ValueError("mask removes every column")
    return keep


def window_columns(fm: FeatureMatrix, window: int) -> list:
    """Indices of the columns of one window index; raises if there are none."""
    keep = [i for i, (_, w, _) in enumerate(fm.column_labels) if w == window]
    if not keep:
        raise ValueError(f"no columns for window {window}")
    return keep


def select_columns(fm: FeatureMatrix, keep) -> FeatureMatrix:
    """The matrix restricted to the columns at indices ``keep``, in order."""
    return FeatureMatrix(fm.rows[:, keep],
                         tuple(fm.column_labels[i] for i in keep), fm.labels)


def _row_ends(labels, n_columns: int) -> dict:
    """How ``csv.writer`` ends a row whose last field is each label.

    Quoting is left to the csv module; a row with no feature columns is a
    lone field, which the csv module writes differently.
    """
    ends = {}
    for label in set(labels):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(
            ["", label] if n_columns else [label])
        ends[label] = buf.getvalue()
    return ends


def write_feature_csv(fm: FeatureMatrix, path) -> None:
    """Serialize to CSV: one ``distribution.window.statistic`` header per
    column plus a trailing ``label`` column. Written atomically.

    Values are written as ``repr`` of the float, which round-trips exactly.
    """
    path = os.fspath(path)
    header = [f"{d}.{w}.{s}" for d, w, s in fm.column_labels] + ["label"]
    ends = _row_ends(fm.labels, fm.n_columns)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerow(header)
            # Row by row, so only one row is held as Python floats.
            fh.writelines(",".join(map(repr, row.tolist())) + ends[label]
                          for row, label in zip(fm.rows, fm.labels))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _is_finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def read_feature_csv(path) -> FeatureMatrix:
    """Inverse of :func:`write_feature_csv`.

    A ``ValueError`` names the file, and the line and column where there is
    one, for a file with no data row, a header column not of the form
    ``distribution.window.statistic`` with an integer window, a header
    column that repeats an earlier one, a row whose field count differs
    from the header's, and a value that is not a finite number.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, expected a header row")
        if not header or header[-1] != "label":
            raise ValueError(f"{path}: expected trailing 'label' column")
        cols = {}  # a dict, for its order and its fast membership test
        for name in header[:-1]:
            # Statistic names may themselves contain dots (q0.5), so split
            # off the distribution and window from the left.
            parts = name.split(".", 2)
            if len(parts) < 3 or not parts[1].isdecimal():
                raise ValueError(f"{path}:1: column {name!r} is not "
                                 f"distribution.window.statistic")
            col = (parts[0], int(parts[1]), parts[2])
            if col in cols:
                raise ValueError(f"{path}:1: column {name!r} repeats an "
                                 f"earlier column")
            cols[col] = None
        rows = []
        labels = []
        for line in reader:
            if len(line) != len(header):
                raise ValueError(f"{path}:{reader.line_num}: expected "
                                 f"{len(header)} fields, got {len(line)}")
            try:
                row = [float(v) for v in line[:-1]]
            except ValueError:
                row = None
            if row is None or not all(map(math.isfinite, row)):
                name, text = next((name, text) for name, text
                                  in zip(header, line) if not _is_finite(text))
                raise ValueError(f"{path}:{reader.line_num}: column {name!r} "
                                 f"holds {text!r}, not a finite number")
            rows.append(row)
            labels.append(line[-1])
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return FeatureMatrix(np.array(rows, dtype=float), tuple(cols), tuple(labels))
