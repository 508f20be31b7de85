"""Shared synthetic-data builders for the test suite."""

from __future__ import annotations

import numpy as np

from geostat.ingest import VesselTrack
from geostat.series import TimeSeries
from geostat.stats import MOMENT_NAMES


def reference_summarize(samples, cfg):
    """:func:`geostat.stats.summarize` as it was before it ran in scratch
    buffers: every sample-sized array freshly allocated."""
    x = np.asarray(samples, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1)
    if x.shape[-1] == 0:
        raise ValueError("cannot summarize an empty distribution")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    with np.errstate(over="ignore"):
        mean = x.mean(axis=-1)
        centered = x - mean[..., None]
        var = (centered * centered).mean(axis=-1)
    if not np.all(np.isfinite(var)):
        raise ValueError("samples are too large to summarize: their variance "
                         "overflows")
    xs = np.sort(x, axis=-1)
    spread = xs[..., -1] - xs[..., 0]
    std = np.where(spread > 0.0, np.sqrt(var), 0.0)
    shaped = (spread > 0.0) & (var > 0.0)
    u = centered / np.where(shaped, std, 1.0)[..., None]
    u2 = u * u
    var_u = np.where(shaped, u2.mean(axis=-1), 1.0)
    skew = np.where(shaped, (u2 * u).mean(axis=-1) / (var_u * np.sqrt(var_u)), 0.0)
    kurt = np.where(shaped, (u2 * u2).mean(axis=-1) / (var_u * var_u) - 3.0, 0.0)
    out = np.empty(x.shape[:-1] + (cfg.size,))
    for i, value in enumerate((spread, mean, std, skew, kurt)):
        out[..., i] = value
    q = np.asarray(cfg.quantiles, dtype=float)
    h = q * (x.shape[-1] - 1)
    lo = np.floor(h).astype(int)
    hi = np.minimum(lo + 1, x.shape[-1] - 1)
    out[..., len(MOMENT_NAMES):] = xs[..., lo] + (xs[..., hi] - xs[..., lo]) * (h - lo)
    return out


def make_blobs(n_per_class, centers, spread=0.3, seed=0):
    """Isotropic Gaussian blobs, one per center. Returns (X, labels)."""
    rng = np.random.default_rng(seed)
    xs = []
    ys = []
    for i, center in enumerate(centers):
        center = np.atleast_1d(np.asarray(center, dtype=float))
        xs.append(rng.normal(0.0, spread, (n_per_class, center.size)) + center)
        ys.extend([str(i)] * n_per_class)
    return np.vstack(xs), ys


def sine_chirp_dataset(n_per_class, length=500, noise=0.1, seed=0):
    """Fixed-frequency sine vs. upward frequency sweep, with random phase.

    Returns (series, labels) where each series is a TimeSeries on [0, 1].
    """
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, length)
    series = []
    labels = []
    for _ in range(n_per_class):
        phase = rng.uniform(0, 2 * np.pi)
        series.append(TimeSeries(t, np.sin(2 * np.pi * 5.0 * t + phase)
                                 + rng.normal(0, noise, length)))
        labels.append("sine")
        phase = rng.uniform(0, 2 * np.pi)
        sweep = 2.0 * t + 3.0 * t**2  # instantaneous frequency 2 .. 8
        series.append(TimeSeries(t, np.sin(2 * np.pi * sweep + phase)
                                 + rng.normal(0, noise, length)))
        labels.append("chirp")
    return series, labels


def write_ucr_dataset(directory, name, train_rows, test_rows, delimiter="\t"):
    """Write archive-style TRAIN/TEST files. Rows are (label, values)."""
    directory.mkdir(parents=True, exist_ok=True)
    for split, rows in (("TRAIN", train_rows), ("TEST", test_rows)):
        with open(directory / f"{name}_{split}.tsv", "w") as fh:
            for label, values in rows:
                fields = [str(label)] + [f"{v:.6f}" for v in values]
                fh.write(delimiter.join(fields) + "\n")
    return directory


def ucr_rows_from_dataset(series, labels):
    return [(label, ts.values[:, 0]) for ts, label in zip(series, labels)]


def make_track(segments, label="trawlers", vessel_id="v0", start=0.0,
               dt=300.0, gap=6000.0):
    """Build a VesselTrack from (n_samples, speed_knots) segment specs.

    Consecutive segments are separated by ``gap`` seconds; within a segment
    samples are ``dt`` apart and drift slowly in position.
    """
    t = start
    rows = []
    lat, lon = 10.0, 20.0
    for n, speed in segments:
        for _ in range(n):
            rows.append((t, lat, lon, speed, 1000.0, 2000.0))
            t += dt
            if speed >= 0.4:
                lat += 0.01
                lon += 0.005
        t += gap - dt
    arr = np.array(rows)
    return VesselTrack(vessel_id, label, arr[:, 0], arr[:, 1], arr[:, 2],
                       arr[:, 3], arr[:, 4], arr[:, 5])
