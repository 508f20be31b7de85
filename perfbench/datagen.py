"""Seeded synthetic inputs in the two file formats geostat reads.

Both generators draw everything from one ``numpy.random.Generator`` seeded
by the caller, format numbers with a fixed printf pattern and write files in
a fixed order, so one seed always yields byte-identical files.

* :func:`write_archive` writes an archive-style dataset: tab-delimited
  ``<name>_TRAIN.tsv`` / ``<name>_TEST.tsv`` with the class label first and
  ``?`` / ``NaN`` missing-value markers in some rows. Every series is its
  class template blended with another class's template, so the classes
  overlap and accuracy stays below 1.
* :func:`write_vessels` writes vessel-track CSVs that reach every branch of
  the segmentation and label filter: stops, sampling gaps of at least
  5400 s, active runs too short to keep, rows with unusable numeric fields,
  dropped labels, single-row tracks and tracks with no downtime. One file
  has no label column, so its tracks take the file stem as their label.

Each generator returns a manifest of what it wrote, which the benchmark's
checks of the program's outputs use.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

ARCHIVE_CLASSES = ("1", "2", "3")
MISSING_MARKERS = ("?", "NaN")

VESSEL_CLASSES = ("longliners", "purse_seines", "trawlers")
# Written without a label column: its tracks take the file stem as label.
STEM_LABELLED_CLASS = "longliners"
DROPPED_LABELS = ("unknown", "gear_buoy", "")
UNUSABLE_TOKENS = ("", "nan", "inf", "n/a", "-")
GAP_SECONDS = 5400.0       # geostat's sampling-gap threshold
ACTIVE_KNOTS = 0.4         # geostat's moving/stopped speed threshold
VESSEL_FIELDS = ("mmsi", "timestamp", "lat", "lon", "speed",
                 "distance_from_shore", "distance_from_port")


def _fmt(x: float) -> str:
    return "%.8g" % x


# ---------------------------------------------------------------------------
# archive-style datasets
# ---------------------------------------------------------------------------

def _archive_template(label: str, t: np.ndarray, phase: float,
                      pace: float) -> np.ndarray:
    """Class template; ``phase`` and ``pace`` in [0, 1) vary it within class."""
    shift = 2.0 * np.pi * phase
    if label == "1":
        return np.sin(2.0 * np.pi * (3.0 + pace) * t + shift)
    if label == "2":
        sweep = (1.5 + pace) * t + 2.5 * t ** 2
        return np.sin(2.0 * np.pi * sweep + shift)
    # Rounded square wave: sharp turns give class 3 its curvature signature.
    return np.tanh(3.0 * np.sin(2.0 * np.pi * (2.0 + pace) * t + shift))


def _archive_rows(n: int, length: int, rng) -> list:
    """``n`` labelled rows, classes dealt round-robin, templates blended.

    Phase, pace, offset and the share of another class's template blended
    into each row are drawn without replacement from fixed ladders, so every
    seed yields the same spread of class overlap and of within-class
    variation, and with it similar classifier and warping work.
    """
    t = np.linspace(0.0, 1.0, length)
    k = len(ARCHIVE_CLASSES)

    def ladder():
        return (rng.permutation(n) + 0.5) / n

    phase, other_phase, pace, other_pace, offset = (ladder() for _ in range(5))
    shares = 0.45 * ladder()
    rows = []
    for i in range(n):
        label = ARCHIVE_CLASSES[i % k]
        other = ARCHIVE_CLASSES[(i % k + 1 + (i // k) % (k - 1)) % k]
        values = ((1.0 - shares[i]) * _archive_template(label, t, phase[i], pace[i])
                  + shares[i] * _archive_template(other, t, other_phase[i],
                                                  other_pace[i])
                  + rng.normal(0.0, 0.05, length)
                  + 0.6 * (offset[i] - 0.5))
        tokens = [_fmt(v) for v in values]
        if rng.random() < 0.3:
            # Gaps anywhere, ends included; at least one value survives.
            for pos in rng.choice(length, size=int(rng.integers(1, 6)),
                                  replace=False):
                tokens[int(pos)] = MISSING_MARKERS[int(rng.integers(2))]
        rows.append((label, tokens))
    return rows


def write_archive(directory: str, name: str, n_train: int, n_test: int,
                  length: int, seed) -> dict:
    """Write ``<directory>/<name>_TRAIN.tsv`` and ``_TEST.tsv``; return
    their paths as ``train_path`` and ``test_path``."""
    rng = np.random.default_rng(seed)
    os.makedirs(directory, exist_ok=True)
    manifest = {}
    for split, n in (("train", n_train), ("test", n_test)):
        path = os.path.join(directory, f"{name}_{split.upper()}.tsv")
        with open(path, "w", newline="") as fh:
            for label, tokens in _archive_rows(n, length, rng):
                fh.write(label + "\t" + "\t".join(tokens) + "\n")
        manifest[f"{split}_path"] = path
    return manifest


def read_archive_split(path: str):
    """Labels and gap-filled values of one split, parsed independently of
    geostat: missing values are interpolated linearly, ends held."""
    labels = []
    series = []
    with open(path) as fh:
        for line in fh:
            fields = line.rstrip("\n").split("\t")
            labels.append(fields[0])
            vals = np.array([float("nan") if f in MISSING_MARKERS else float(f)
                             for f in fields[1:]])
            ok = np.isfinite(vals)
            idx = np.arange(vals.size)
            vals[~ok] = np.interp(idx[~ok], idx[ok], vals[ok])
            series.append(vals)
    return labels, series


# ---------------------------------------------------------------------------
# vessel tracks
# ---------------------------------------------------------------------------

_MOTION = {
    # mean knots, knot spread, heading turn spread (deg/step), steady turn
    "longliners": (5.0, 1.8, 10.0, 0.0),
    "purse_seines": (4.5, 1.8, 14.0, 5.0),
    "trawlers": (4.0, 1.6, 18.0, 0.0),
}


class _TrackBuilder:
    """Accumulates one track's fixes while walking a phase schedule."""

    def __init__(self, rng, t0: float):
        self.rng = rng
        self.t = t0
        self.lat = rng.uniform(-40.0, 50.0)
        self.lon = rng.uniform(-150.0, 150.0)
        self.heading = rng.uniform(0.0, 360.0)
        self.shore = rng.uniform(5.0, 60.0)
        self.port = self.shore + rng.uniform(2.0, 40.0)
        self.rows = []

    def _advance(self, dt: float, knots: float) -> None:
        self.t += round(dt)  # whole seconds, as fixes are written
        dist_deg = knots * dt / 3600.0 * 1852.0 / 111_000.0
        h = math.radians(self.heading)
        self.lat = min(max(self.lat + dist_deg * math.cos(h), -80.0), 80.0)
        self.lon += dist_deg * math.sin(h) / max(math.cos(math.radians(self.lat)), 0.2)
        self.shore = abs(self.shore + self.rng.normal(0.0, 0.05 + 0.02 * knots))
        self.port = abs(self.port + self.rng.normal(0.0, 0.05 + 0.02 * knots))

    def fix(self, knots: float) -> None:
        self.rows.append((self.t, self.lat, self.lon, knots, self.shore, self.port))

    def move(self, motion, n: int, min_knots: float = ACTIVE_KNOTS + 0.2) -> None:
        mean, spread, turn, steady = motion
        # Each stretch draws its own pace, so the classes overlap.
        mean += self.rng.normal(0.0, 1.0)
        turn *= self.rng.uniform(0.6, 1.4)
        for _ in range(n):
            knots = max(self.rng.normal(mean, spread), min_knots)
            self.fix(knots)
            self.heading = (self.heading + steady
                            + self.rng.normal(0.0, turn)) % 360.0
            self._advance(self.rng.uniform(60.0, 180.0), knots)

    def stop(self, n: int) -> None:
        for _ in range(n):
            knots = self.rng.uniform(0.0, ACTIVE_KNOTS - 0.1)
            self.fix(knots)
            self._advance(self.rng.uniform(120.0, 600.0), knots)

    def gap(self) -> None:
        # Exactly the threshold sometimes: the boundary counts as a gap.
        self.t = self.rows[-1][0] + (
            GAP_SECONDS if self.rng.random() < 0.25
            else round(self.rng.uniform(GAP_SECONDS, 4.0 * GAP_SECONDS)))


def _usable_track(builder: _TrackBuilder, motion, rng) -> None:
    """Moving stretches separated by stops, gaps and too-short runs."""
    for phase in range(int(rng.integers(4, 7))):
        builder.move(motion, int(rng.integers(25, 70)))
        kind = rng.random()
        if kind < 0.45 or phase == 0:
            builder.stop(int(rng.integers(5, 15)))
        elif kind < 0.75:
            builder.gap()
        else:
            builder.stop(int(rng.integers(4, 8)))
            builder.move(motion, int(rng.integers(1, 3)))  # too short to keep
            builder.stop(int(rng.integers(4, 8)))
    builder.move(motion, int(rng.integers(10, 30)))


def _keeps_track(label: str, samples) -> bool:
    """geostat's label filter, restated: a usable label, two or more fixes,
    and an inactive interval or a sampling gap."""
    if not label.strip() or label.strip().lower() in DROPPED_LABELS:
        return False
    if len(samples) < 2:
        return False
    samples = sorted(samples)
    for (t0, _, _, knots, _, _), (t1, *_rest) in zip(samples, samples[1:]):
        if t1 - t0 >= GAP_SECONDS or knots < ACTIVE_KNOTS:
            return True
    return False


def _corrupt(row: list, rng) -> list:
    """Replace one numeric field with a token geostat cannot use."""
    col = 1 + int(rng.integers(len(VESSEL_FIELDS) - 1))
    row = list(row)
    row[col] = UNUSABLE_TOKENS[int(rng.integers(len(UNUSABLE_TOKENS)))]
    return row


def write_vessels(directory: str, n_per_class: int, seed) -> dict:
    """Write a directory of vessel CSVs and return its manifest.

    The manifest counts the data rows written and, per class, the tracks
    geostat should keep.
    """
    rng = np.random.default_rng(seed)
    os.makedirs(directory, exist_ok=True)
    tracks = []  # (label, kind)
    for label in VESSEL_CLASSES:
        tracks += [(label, "usable")] * n_per_class
        tracks += [(label, "no_downtime"), (label, "single_row")]
    tracks += [(label, "usable") for label in DROPPED_LABELS
               for _ in range(2)]
    t_start = 1_600_000_000
    files = {"tracks_a": [], "tracks_b": [], STEM_LABELLED_CLASS: []}
    kept = {}
    rows_total = 0
    for k, (label, kind) in enumerate(tracks):
        mmsi = str(200_000_000 + 7919 * k)
        motion = _MOTION.get(label, _MOTION["trawlers"])
        builder = _TrackBuilder(rng, t_start + rng.integers(86_400))
        if kind == "usable":
            _usable_track(builder, motion, rng)
        elif kind == "no_downtime":
            builder.move(motion, int(rng.integers(80, 160)),
                         min_knots=ACTIVE_KNOTS + 0.6)
        else:
            builder.fix(0.0)
        if label == STEM_LABELLED_CLASS:
            target = STEM_LABELLED_CLASS
        else:
            target = "tracks_a" if k % 2 == 0 else "tracks_b"
        usable = []
        for fix in builder.rows:
            row = [mmsi, "%d" % fix[0]] + [_fmt(v) for v in fix[1:]]
            if kind == "usable" and rng.random() < 0.02:
                row = _corrupt(row, rng)
            else:
                usable.append(tuple(float(v) for v in row[1:]))
            files[target].append((float(fix[0]), row, label))
        rows_total += len(builder.rows)
        if _keeps_track(label, usable):
            kept[label] = kept.get(label, 0) + 1

    for stem, rows in files.items():
        rows.sort(key=lambda r: (r[0], r[1][0]))  # a feed in time order
        has_label = stem != STEM_LABELLED_CLASS
        path = os.path.join(directory, f"{stem}.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(VESSEL_FIELDS + (("label",) if has_label else ()))
            for _, row, label in rows:
                writer.writerow(row + ([label] if has_label else []))
    return {"rows_total": rows_total, "kept_counts": kept}
