"""Dataset loaders and vessel-trajectory preprocessing.

Two input families are supported. Archive-style classification datasets are
delimiter-separated text with the class label first on each row and the
series values after it; train and test splits live in ``*_TRAIN.*`` and
``*_TEST.*`` files. Vessel trajectories are CSVs of timestamped position
fixes with speed and distance-to-shore/port channels; they are segmented
into active sub-tracks, inactivity periods, and long sampling gaps before
feature extraction, which computes the windowed signals of every active
segment of every track in one array pass.
"""

from __future__ import annotations

import csv
import math
import operator
import os
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .features import FeatureMatrix, FRECHET_STATISTICS
from .geometry import _diff_values, _turn_rate, speed
from .series import TimeSeries, _lerp, _smooth_runs
from .stats import (MULTIVARIATE_QUANTILES, SphericalSample, SummaryConfig,
                    frechet_mean_variance, summarize)

__all__ = [
    "UCRDataset",
    "VesselTrack",
    "SegmentSet",
    "ActiveSegment",
    "load_ucr",
    "parse_ucr_file",
    "load_vessels",
    "segment_vessel",
    "filter_labels",
    "vessel_features",
    "vessel_feature_matrix",
    "binary_fishing_labels",
    "VESSEL_DISTRIBUTIONS",
    "VESSEL_SUMMARY",
]

_MISSING_MARKERS = {"", "nan", "?"}

ACTIVE_SPEED_KNOTS = 0.4
GAP_THRESHOLD_SECONDS = 5400.0
MIN_SEGMENT_POINTS = 4
VESSEL_SMOOTHING_ITERATIONS = 10
VESSEL_WINDOW_SECONDS = 600.0
# The statistics of every pooled vessel distribution.
VESSEL_SUMMARY = SummaryConfig(quantiles=MULTIVARIATE_QUANTILES)

DROP_LABELS = frozenset({"unknown", "other_fishing", "gear_buoy", "gear/buoy"})

DEFAULT_VESSEL_COLUMNS = {
    "timestamp": "timestamp",
    "lat": "lat",
    "lon": "lon",
    "speed": "speed",
    "shore": "distance_from_shore",
    "port": "distance_from_port",
    "label": "label",
    "vessel_id": "mmsi",
}

VESSEL_DISTRIBUTIONS = (
    "position", "speed", "speed_derivative", "curvature", "curvature_raw",
    "shore_distance", "port_distance",
    "active_duration", "inactive_duration", "gap_duration",
)


# ---------------------------------------------------------------------------
# archive-style datasets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UCRDataset:
    name: str
    train_labels: tuple
    train_series: tuple
    test_labels: tuple
    test_series: tuple

    @property
    def equal_length(self) -> bool:
        lengths = {len(s) for s in self.train_series + self.test_series}
        return len(lengths) == 1

def _fill_missing(values, path, line_no):
    """Linearly interpolate interior gaps; hold the nearest value at the ends."""
    arr = np.array(values, dtype=float)
    ok = np.isfinite(arr)
    if not ok.any():
        raise ValueError(f"{path}:{line_no}: row has no usable values")
    if ok.all():
        return arr
    idx = np.arange(arr.size)
    arr[~ok] = np.interp(idx[~ok], idx[ok], arr[ok])
    return arr


def _detect_delimiter(sample_line: str) -> str:
    return "\t" if "\t" in sample_line else ","


def parse_ucr_file(path):
    """Parse one archive split file into ``(labels, series)``.

    The first field of each row is the class label; the remaining fields are
    values. Empty fields, ``NaN`` markers, and ``?`` count as missing and
    are linearly interpolated from their neighbors. Malformed fields raise
    with the offending line number.
    """
    path = os.fspath(path)
    labels = []
    series = []
    with open(path, encoding="utf-8-sig") as fh:
        first = fh.readline()
        if not first.strip():
            raise ValueError(f"{path}:1: empty file")
        delim = _detect_delimiter(first)
        fh.seek(0)
        for line_no, line in enumerate(fh, start=1):
            line = line.strip("\n").strip("\r")
            if not line.strip():
                continue
            fields = line.split(delim)
            if len(fields) < 2:
                raise ValueError(f"{path}:{line_no}: row has no values")
            label = fields[0].strip()
            if not label:
                raise ValueError(f"{path}:{line_no}: missing class label")
            try:
                # float() strips blanks and reads nan markers itself.
                raw = list(map(float, fields[1:]))
            except ValueError:
                raw = _parse_fields(fields, path, line_no)
            labels.append(label)
            series.append(_fill_missing(raw, path, line_no))
    return labels, series


def _parse_fields(fields, path, line_no) -> list:
    """Values of a row's fields one by one: missing markers become NaN,
    and the first malformed field raises with its column."""
    raw = []
    for col, field in enumerate(fields[1:], start=2):
        try:
            raw.append(float(field))
            continue
        except ValueError:
            token = field.strip()
        # float() reads "nan" itself; the other markers do not parse.
        if token.lower() not in _MISSING_MARKERS:
            raise ValueError(
                f"{path}:{line_no}: bad value {token!r} in column {col}")
        raw.append(np.nan)
    return raw


def _find_split_file(directory: Path, suffix: str) -> Path:
    matches = sorted(p for p in directory.iterdir()
                     if p.is_file() and suffix in p.stem.upper())
    if not matches:
        raise FileNotFoundError(f"no *{suffix}* file under {directory}")
    return matches[0]


def load_ucr(path) -> UCRDataset:
    """Load a dataset directory containing ``*_TRAIN.*`` and ``*_TEST.*``."""
    directory = Path(path)
    if not directory.is_dir():
        raise FileNotFoundError(f"{directory} is not a directory")
    train_path = _find_split_file(directory, "_TRAIN")
    test_path = _find_split_file(directory, "_TEST")
    train_labels, train_series = parse_ucr_file(train_path)
    test_labels, test_series = parse_ucr_file(test_path)
    if not train_labels:
        raise ValueError(f"{train_path}: no rows")
    return UCRDataset(
        name=directory.name,
        train_labels=tuple(train_labels),
        train_series=tuple(train_series),
        test_labels=tuple(test_labels),
        test_series=tuple(test_series),
    )


def series_to_time_series(values: np.ndarray) -> TimeSeries:
    """Index-timestamped view of a plain value sequence."""
    values = np.asarray(values, dtype=float).reshape(-1)
    return TimeSeries(np.arange(values.size, dtype=float), values)


# ---------------------------------------------------------------------------
# vessel trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VesselTrack:
    """One vessel's position fixes in time order.

    ``label`` may be empty for unlabeled tracks. Speeds are in knots,
    distances in the units of the source data.
    """

    vessel_id: str
    label: str
    timestamps: np.ndarray
    lats: np.ndarray
    lons: np.ndarray
    speeds: np.ndarray
    shore_distances: np.ndarray
    port_distances: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.timestamps, dtype=float)
        if t.size == 0:
            raise ValueError("track has no samples")
        if np.any(np.diff(t) < 0):
            raise ValueError("timestamps must be nondecreasing")
        for name in ("lats", "lons", "speeds", "shore_distances", "port_distances"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.size != t.size:
                raise ValueError(f"{name} length does not match timestamps")
            object.__setattr__(self, name, arr)
        if np.any(self.speeds < 0):
            raise ValueError("speeds must be non-negative")
        object.__setattr__(self, "timestamps", t)

    @property
    def n_samples(self) -> int:
        return self.timestamps.size

    @property
    def span(self) -> float:
        return float(self.timestamps[-1] - self.timestamps[0])


@dataclass(frozen=True)
class ActiveSegment:
    """A contiguous in-motion sub-track (raw, non-uniform samples)."""

    timestamps: np.ndarray
    lats: np.ndarray
    lons: np.ndarray
    shore_distances: np.ndarray
    port_distances: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.timestamps.size

    @property
    def span(self) -> float:
        return float(self.timestamps[-1] - self.timestamps[0])


@dataclass(frozen=True)
class SegmentSet:
    """Outcome of splitting one track into activity states and gaps."""

    active: tuple
    inactive_durations: tuple
    gap_durations: tuple
    dropped_spans: tuple
    total_span: float


def load_vessels(path) -> list:
    """Load vessel tracks from a CSV file or a directory of CSV files.

    Columns are found by the names in ``DEFAULT_VESSEL_COLUMNS``. Rows are
    grouped into tracks by the vessel-id column. When a file has no label
    column, the file stem is used as the label for all its tracks (the
    one-file-per-class layout). Rows with fewer fields than the header, with
    a numeric field that is not a finite number, with a negative speed, or
    with a latitude outside [-90, 90] are skipped; a file the CSV reader
    cannot parse raises ``ValueError`` naming the file and line.
    """
    p = Path(path)
    files = sorted(p.glob("*.csv")) if p.is_dir() else [p]
    if not files:
        raise FileNotFoundError(f"no CSV files under {p}")
    tracks = []
    for f in files:
        tracks.extend(_load_vessel_file(f))
    return tracks


def _load_vessel_file(path: Path) -> list:
    cols = DEFAULT_VESSEL_COLUMNS
    numeric = ("timestamp", "lat", "lon", "speed", "shore", "port")
    default_label = path.stem
    rows = {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: missing header row")
            # A repeated name maps to its last column, as in csv.DictReader.
            index = {name: i for i, name in enumerate(header)}
            for key in numeric:
                if cols[key] not in index:
                    raise ValueError(f"{path}: missing column {cols[key]!r}")
            fields = operator.itemgetter(*(index[cols[k]] for k in numeric))
            label_at = index.get(cols["label"])
            id_at = index.get(cols["vessel_id"])
            for rec in reader:
                if len(rec) < len(header):
                    continue  # blank or short row
                try:
                    sample = tuple(map(float, fields(rec)))
                except ValueError:
                    continue  # skip rows with unusable numeric fields
                # Skip a non-finite field, a negative speed, and a latitude
                # outside [-90, 90].
                if (not all(map(math.isfinite, sample)) or sample[3] < 0
                        or abs(sample[1]) > 90):
                    continue
                vid = default_label if id_at is None else rec[id_at]
                label = (default_label if label_at is None
                         else rec[label_at].strip())
                rows.setdefault((vid, label), []).append(sample)
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    tracks = []
    for (vid, label), samples in sorted(rows.items()):
        samples.sort(key=lambda s: s[0])
        arr = np.array(samples, dtype=float)
        tracks.append(VesselTrack(
            vessel_id=vid, label=label,
            timestamps=arr[:, 0], lats=arr[:, 1], lons=arr[:, 2],
            speeds=arr[:, 3], shore_distances=arr[:, 4],
            port_distances=arr[:, 5]))
    return tracks


def segment_vessel(track: VesselTrack) -> SegmentSet:
    """Split a track into active segments, inactivity periods, and gaps.

    The track is first cut at every inter-sample spacing of at least
    ``GAP_THRESHOLD_SECONDS``, recording each such spacing as a gap
    duration. Inside a contiguous run, each inter-sample interval is active
    or inactive according to the speed reported at its left endpoint;
    maximal stretches of same-state intervals become segments, consecutive
    segments sharing their boundary sample; a run of one sample yields
    nothing. Every segment of the track is found at once, from array scans
    for cuts and state edges. Inactive segments contribute only their
    duration (last minus first timestamp); active segments with fewer than
    ``MIN_SEGMENT_POINTS`` moving samples are dropped, with their spans
    recorded separately so that spans, durations, gaps, and dropped spans
    add up to the track span exactly.
    """
    if track.n_samples < 2:
        return SegmentSet((), (), (), (), 0.0)
    dts = np.diff(track.timestamps)
    cut = dts >= GAP_THRESHOLD_SECONDS
    moving = track.speeds >= ACTIVE_SPEED_KNOTS
    state = moving[:-1]  # one per interval, from its left sample
    # Between two intervals, or at either end of the track, a segment may
    # end and the next begin; an uncut interval opens (closes) a segment
    # where such an edge lies before (after) it.
    edge = np.concatenate(
        ([True], cut[:-1] | cut[1:] | (state[:-1] != state[1:]), [True]))
    lo = np.flatnonzero(~cut & edge[:-1])
    hi = np.flatnonzero(~cut & edge[1:]) + 1  # segments share boundaries
    spans = track.timestamps[hi] - track.timestamps[lo]
    # The floor counts the samples actually in motion; the trailing shared
    # boundary sample may already be below threshold.
    counts = np.concatenate(([0], np.cumsum(moving)))
    active = state[lo]
    kept = active & (counts[hi + 1] - counts[lo] >= MIN_SEGMENT_POINTS)
    names = [f.name for f in fields(ActiveSegment)]  # arrays of the track
    segments = tuple(ActiveSegment(*(getattr(track, k)[a:b] for k in names))
                     for a, b in zip(lo[kept], hi[kept] + 1))
    return SegmentSet(segments, tuple(spans[~active].tolist()),
                      tuple(dts[cut].tolist()),
                      tuple(spans[active & ~kept].tolist()), track.span)


def filter_labels(tracks) -> list:
    """Keep tracks with a usable class label and some downtime signal.

    Drops unlabeled tracks, tracks whose label is in ``DROP_LABELS``, and
    tracks that show neither an inactivity period nor a long sampling gap.
    """
    kept = []
    for track in tracks:
        label = track.label.strip().lower()
        if not label or label in DROP_LABELS:
            continue
        if track.n_samples < 2:
            continue
        seg = segment_vessel(track)
        if not seg.inactive_durations and not seg.gap_durations:
            continue
        kept.append(track)
    return kept


def _window_means(segments):
    """Ten-minute window means of the eight signals of many active segments.

    The segments are laid end to end and computed in one array pass. Each
    one's distinct timestamps are resampled onto a uniform grid of at least
    as many samples, at least one per window plus one, and at least 4. The
    signals are smoothed latitude and longitude, speed, speed derivative,
    curvature, raw curvature (of the smoothed positions, with no further
    smoothing), shore distance and port distance. Both curvatures are the
    turn rate ``|dT/dt|`` of the (time, latitude, longitude) curve, that is
    its curvature times its speed, not its curvature per arc length (see
    ``geometry._turn_rate``). Smoothing and differences
    treat each segment's first and last samples as endpoints, so they equal
    the segment's signals computed alone. Windows of
    ``VESSEL_WINDOW_SECONDS`` run from each segment's start; the last may
    be partial. A segment that spans no time has none.

    Returns the ``(8, windows)`` means, rows in that order and each
    segment's windows in turn, and each segment's window count.
    """
    counts = np.zeros(len(segments), dtype=int)
    # Spans are never negative; a NaN one is kept, and rejected below.
    live = np.flatnonzero([s.span != 0 for s in segments])
    if not live.size:
        return np.empty((8, 0)), counts
    segments = [segments[i] for i in live]
    seg = np.repeat(np.arange(live.size), [s.n_samples for s in segments])
    t, *channels = (np.concatenate([getattr(s, name) for s in segments])
                    for name in ("timestamps", "lats", "lons",
                                 "shore_distances", "port_distances"))
    knots = np.column_stack(channels)
    same = seg[1:] == seg[:-1]
    if (not (np.isfinite(t).all() and np.isfinite(knots).all())
            or np.any(same & (t[1:] < t[:-1]))):
        raise ValueError("segment timestamps must be finite and "
                         "nondecreasing, and values finite")
    keep = np.concatenate([[True], (t[1:] != t[:-1]) | ~same])
    t, seg, knots = t[keep], seg[keep], knots[keep]  # first of repeated times
    n = np.bincount(seg)
    k_first = np.cumsum(n) - n
    t0, t_end = t[k_first], t[k_first + n - 1]
    duration = t_end - t0
    m = np.maximum(np.maximum(n, np.ceil(duration / VESSEL_WINDOW_SECONDS)
                              .astype(int) + 1), 4)
    sid = np.repeat(np.arange(live.size), m)  # segment of each grid sample
    first = np.cumsum(m) - m
    last = first + m - 1
    k = np.arange(sid.size) - first[sid]
    step = (duration / (m - 1))[sid]
    grid = k * step + t0[sid]  # as np.linspace computes it
    grid[last] = t_end
    # Complex numbers order by real part, then imaginary part, so a single
    # search finds each grid time among its own segment's timestamps.
    idx = np.searchsorted(seg + 1j * t, sid + 1j * grid, side="right")
    values = _lerp(t, knots, np.clip(idx, k_first[sid] + 1,
                                     k_first[sid] + n[sid] - 1), grid)

    ends = np.concatenate([first, last])
    h = step[:, None]
    k_smooth = VESSEL_SMOOTHING_ITERATIONS
    base = _smooth_runs(values[:, :2], k_smooth, ends)
    xd = _smooth_runs(_diff_values(base, h, first, last), k_smooth, ends)
    spd = speed(xd)
    signals = np.array([
        *base.T, spd,
        _smooth_runs(_diff_values(spd, step, first, last), k_smooth, ends),
        _smooth_runs(_turn_rate(xd, h, first, last), k_smooth, ends),
        _turn_rate(_diff_values(base, h, first, last), h, first, last),
        *values[:, 2:].T])

    window = np.minimum((step * k / VESSEL_WINDOW_SECONDS).astype(int),
                        (duration // VESSEL_WINDOW_SECONDS).astype(int)[sid])
    new = np.ones(sid.size, dtype=bool)
    new[1:] = window[1:] != window[:-1]
    new[first] = True
    starts = np.flatnonzero(new)
    lengths = np.diff(starts, append=sid.size)
    means = np.empty((8, starts.size))
    for size in np.flatnonzero(np.bincount(lengths)):
        # Windows of one length as C-contiguous rows, whose means sum
        # pairwise, as the mean of a 1-d copy of each window does.
        sel = np.flatnonzero(lengths == size)
        rows = np.take(signals, starts[sel, None] + np.arange(size), axis=1)
        means[:, sel] = rows.mean(axis=-1)
    counts[live] = np.bincount(sid[starts], minlength=live.size)
    return means, counts


def _feature_rows(segment_sets):
    """Feature rows of segmented tracks and their column labels.

    The window means of all tracks come from one :func:`_window_means` call,
    and the distributions of all tracks are summarized with one
    ``summarize`` call per length, as C-contiguous rows.
    """
    means, counts = _window_means([a for s in segment_sets for a in s.active])
    segment_bounds = np.cumsum([0] + [len(s.active) for s in segment_sets])
    column_bounds = np.concatenate([[0], np.cumsum(counts)])[segment_bounds]
    stat_names = VESSEL_SUMMARY.statistic_names
    labels = ([(VESSEL_DISTRIBUTIONS[0], 0, s) for s in FRECHET_STATISTICS]
              + [(d, 0, s) for d in VESSEL_DISTRIBUTIONS[1:] for s in stat_names])

    # Empty distributions keep all-zero summaries; summaries is a view.
    rows = np.zeros((len(segment_sets), len(labels)))
    summaries = rows[:, 3:].reshape(len(segment_sets), -1, len(stat_names))
    groups = {}  # length -> [(track, distribution, samples)]
    for i, (seg, lo, hi) in enumerate(zip(segment_sets, column_bounds[:-1],
                                          column_bounds[1:])):
        if hi > lo:
            (m_lat, m_lon), var = frechet_mean_variance(SphericalSample(
                np.radians(means[0, lo:hi]), np.radians(means[1, lo:hi])))
            rows[i, :3] = np.degrees(m_lat), np.degrees(m_lon), var
        durations = ([s.span for s in seg.active], seg.inactive_durations,
                     seg.gap_durations)
        for d, x in enumerate([*means[2:, lo:hi], *map(np.array, durations)]):
            if x.size:
                groups.setdefault(x.size, []).append((i, d, x))
    for group in groups.values():
        track, dist, xs = zip(*group)
        summaries[track, dist] = summarize(np.array(xs), VESSEL_SUMMARY)
    return rows, labels


def vessel_features(seg: SegmentSet):
    """Feature row of one segmented vessel track.

    Pools the window means of all active segments into one distribution per
    signal, summarizes each under ``VESSEL_SUMMARY``, and appends
    summaries of the activity, inactivity and gap duration distributions,
    in ``VESSEL_DISTRIBUTIONS`` order; position is summarized by its
    Frechet mean and variance.
    Distributions that are empty for this track (no active segments, no
    gaps, ...) produce all-zero summaries so every track yields the same
    feature schema. This is the one-track case of
    :func:`vessel_feature_matrix`.

    Returns ``(values, column_labels)``.
    """
    rows, labels = _feature_rows([seg])
    return rows[0], labels


def vessel_feature_matrix(tracks) -> FeatureMatrix:
    """Segment and featurize a collection of labeled tracks.

    Row ``i`` equals :func:`vessel_features` of track ``i``, but the window
    means of all tracks' active segments are computed in one array pass.
    """
    tracks = list(tracks)
    if not tracks:
        raise ValueError("no tracks to featurize")
    rows, labels = _feature_rows([segment_vessel(t) for t in tracks])
    return FeatureMatrix(rows, tuple(labels),
                         tuple(t.label for t in tracks))


def binary_fishing_labels(labels, class_map) -> tuple:
    """Collapse vessel classes to a two-class task via an explicit map.

    Raises if a label has no entry or if the mapped labels are not at
    least two classes.
    """
    if not isinstance(class_map, dict):
        raise ValueError("class map must be an object mapping class labels")
    out = []
    for label in labels:
        key = str(label)
        if key not in class_map:
            raise ValueError(f"class map has no entry for {key!r}")
        out.append(str(class_map[key]))
    classes = sorted(set(out))
    if len(classes) < 2:
        raise ValueError(f"class map leaves the binary task the classes "
                         f"{classes}; it needs two")
    return tuple(out)
