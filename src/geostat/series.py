"""Time-series containers, linear resampling, and Laplacian smoothing.

Two container types are used throughout the package:

* :class:`TimeSeries` holds an arbitrarily (possibly non-uniformly) sampled
  d-dimensional sequence together with its timestamps.
* :class:`UniformSeries` holds an equally spaced sequence, the canonical
  working form all derivative-based computations expect.

All containers are immutable after construction and every function here is
pure, so shared instances can be used concurrently without locking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TimeSeries",
    "UniformSeries",
    "interpolate_at",
    "resample_uniform",
    "laplacian_smooth",
    "smooth_values",
    "equalize_lengths",
]


def _as_points(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"values must be 1-d or 2-d, got shape {arr.shape}")
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class TimeSeries:
    """A finite sequence of d-dimensional points with strictly increasing timestamps.

    Parameters
    ----------
    timestamps : array_like, shape (n,)
        Sample times in seconds, strictly increasing.
    values : array_like, shape (n,) or (n, d)
        Sample values. A 1-d array is treated as a univariate series.
    """

    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.timestamps, dtype=float).reshape(-1)
        x = _as_points(self.values)
        if t.size != x.shape[0]:
            raise ValueError(
                f"timestamps ({t.size}) and values ({x.shape[0]}) lengths differ")
        if t.size < 2:
            raise ValueError("need at least two samples")
        if not np.all(np.isfinite(t)) or not np.all(np.isfinite(x)):
            raise ValueError("timestamps and values must be finite")
        if np.any(np.diff(t) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        object.__setattr__(self, "timestamps", _freeze(t))
        object.__setattr__(self, "values", _freeze(x))

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def duration(self) -> float:
        return float(self.timestamps[-1] - self.timestamps[0])


@dataclass(frozen=True)
class UniformSeries:
    """An equally spaced series: sample k lives at ``start_time + k * step``.

    At least three samples are required so that centered second differences
    are well defined downstream.
    """

    start_time: float
    step: float
    values: np.ndarray

    def __post_init__(self):
        x = _as_points(self.values)
        if self.step <= 0:
            raise ValueError("step must be positive")
        if x.shape[0] < 3:
            raise ValueError("uniform series needs at least 3 samples")
        if not np.all(np.isfinite(x)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "start_time", float(self.start_time))
        object.__setattr__(self, "step", float(self.step))
        object.__setattr__(self, "values", _freeze(x))

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def timestamps(self) -> np.ndarray:
        return self.start_time + self.step * np.arange(self.n_samples)

    @property
    def duration(self) -> float:
        return self.step * (self.n_samples - 1)

    def with_values(self, values: np.ndarray) -> "UniformSeries":
        """Same time grid, new values."""
        return UniformSeries(self.start_time, self.step, values)


def interpolate_at(ts: TimeSeries, t) -> np.ndarray:
    """Evaluate the piecewise-linear interpolant of ``ts`` at time(s) ``t``.

    Exact at sample times. ``t`` may be a scalar or a 1-d array; the result
    has shape (d,) for a scalar query and (k, d) for an array of k queries.

    Raises
    ------
    ValueError
        If any query time falls outside ``[timestamps[0], timestamps[-1]]``.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    t0, tn = ts.timestamps[0], ts.timestamps[-1]
    if np.any(t_arr < t0) or np.any(t_arr > tn):
        raise ValueError(
            f"query time out of range [{t0}, {tn}]")
    # Right segment index for each query; clip so t == tn uses the last segment.
    idx = np.searchsorted(ts.timestamps, t_arr, side="right")
    idx = np.clip(idx, 1, ts.n_samples - 1)
    out = _lerp(ts.timestamps, ts.values, idx, t_arr)
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return out[0]
    return out


def _lerp(knots, values, idx, t) -> np.ndarray:
    """Interpolate at times ``t`` between knots ``idx - 1`` and ``idx``.

    Works in place on one result-sized array beside the left values, so
    resampling many columns at once holds two copies of the result, not
    four.
    """
    lo = knots[idx - 1]
    frac = ((t - lo) / (knots[idx] - lo))[:, None]
    left = values[idx - 1]
    out = values[idx] - left
    out *= frac
    out += left
    return out


def resample_uniform(ts: TimeSeries, min_samples: int = 500) -> UniformSeries:
    """Resample onto an equally spaced grid spanning the full duration.

    The output has ``max(min_samples, n_samples)`` samples, so resampling
    never discards resolution. The first and last output samples coincide
    with the original endpoints.

    Raises
    ------
    ValueError
        If ``min_samples < 3`` or the series has zero duration.
    """
    if min_samples < 3:
        raise ValueError("min_samples must be at least 3")
    if ts.duration <= 0:
        raise ValueError("cannot resample a series of zero duration")
    m = max(int(min_samples), ts.n_samples)
    grid = np.linspace(ts.timestamps[0], ts.timestamps[-1], m)
    vals = interpolate_at(ts, grid)
    step = ts.duration / (m - 1)
    return UniformSeries(float(ts.timestamps[0]), step, vals)


def smooth_values(values: np.ndarray, iterations: int) -> np.ndarray:
    """Apply neighbor-averaging smoothing to an array of samples.

    Each interior sample is replaced by the mean of its two neighbors,
    ``(x[k-1] + x[k+1]) / 2``; endpoints are never modified. Applied
    coordinate-wise for multi-dimensional input. Zero iterations is the
    identity. Constants and linear ramps are fixed points.
    """
    return _smooth_runs(values, iterations, slice(0))  # no joins to hold


def _smooth_runs(values, iterations: int, ends) -> np.ndarray:
    """:func:`smooth_values` of many series laid end to end along axis 0.

    ``ends`` indexes the first and last sample of every series. A step also
    averages across the joins, so those samples are put back after each
    step; one series needs no ``ends``, as the step never writes its own.
    """
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    out = np.array(values, dtype=float, copy=True)
    fixed = out[ends]
    for _ in range(iterations):
        out[1:-1] = 0.5 * (out[:-2] + out[2:])
        out[ends] = fixed
    return out


def laplacian_smooth(us: UniformSeries, iterations: int) -> UniformSeries:
    """Smooth a uniform series by repeated neighbor averaging.

    Endpoints are unchanged at every iteration, so the smoothed series keeps
    the original time span and boundary values.
    """
    return us.with_values(smooth_values(us.values, iterations))


def equalize_lengths(collection, min_samples: int = 500) -> list[UniformSeries]:
    """Bring a collection of series to a common sample count and rate.

    The common rate is set by the longest duration: the longest series gets
    ``max(min_samples, longest input count)`` samples, and every other series
    is resampled at that same step over its own duration and then appended
    with zeros until all outputs share the sample count.

    Raises
    ------
    ValueError
        If the collection is empty.
    """
    series = list(collection)
    if not series:
        raise ValueError("cannot equalize an empty collection")
    durations = [ts.duration for ts in series]
    d_max = max(durations)
    if d_max <= 0:
        raise ValueError("at least one series must have positive duration")
    n_target = max(int(min_samples), max(ts.n_samples for ts in series))
    step = d_max / (n_target - 1)
    out = []
    for ts in series:
        # Grid points at the common step that fit inside this duration.
        m = int(np.floor(ts.duration / step + 1e-9)) + 1
        m = min(max(m, 3), n_target)
        grid = ts.timestamps[0] + step * np.arange(m)
        grid = np.minimum(grid, ts.timestamps[-1])
        vals = interpolate_at(ts, grid)
        if m < n_target:
            pad = np.zeros((n_target - m, ts.dim))
            vals = np.vstack([vals, pad])
        out.append(UniformSeries(float(ts.timestamps[0]), step, vals))
    return out
