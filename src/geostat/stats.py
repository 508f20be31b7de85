"""Summary statistics of empirical distributions, and spherical Fréchet statistics.

The scalar summaries are deliberately plain: range, population moments, and
order-statistic quantiles with linear interpolation at fractional positions
``h = q * (N - 1)``, which :func:`summarize` gives after the moments.
Kurtosis is reported as excess (normal data scores 0), and constant samples
(zero range) yield std, skew and kurtosis of exactly 0 so that constant
windows still produce finite feature vectors. Every summary runs in
caller-provided scratch arrays (:func:`summarize_into`), so a caller
summarizing many blocks allocates sample-sized memory once.

Spherical positions cannot be summarized by coordinate-wise quantiles, so
they are summarized by the point minimizing the sum of squared great-circle
distances (the intrinsic mean) together with that minimal sum (the intrinsic
variance). Its iteration has fixed settings, ``FRECHET_TOL`` and
``FRECHET_MAX_ITERATIONS``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SummaryConfig",
    "SphericalSample",
    "UNIVARIATE_QUANTILES",
    "MULTIVARIATE_QUANTILES",
    "summarize",
    "summarize_into",
    "frechet_mean_variance",
]

UNIVARIATE_QUANTILES = (
    0.001, 0.01, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 0.999,
)
MULTIVARIATE_QUANTILES = (
    0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999,
)

MOMENT_NAMES = ("range", "mean", "std", "skew", "kurtosis")


def _quantile_name(q: float) -> str:
    return f"q{q:g}"


@dataclass(frozen=True)
class SummaryConfig:
    """Which statistics a summary vector contains, in fixed order.

    The moment-style statistics (range, mean, std, skew, kurtosis) come
    first, followed by the configured quantiles in increasing order of
    probability.
    """

    quantiles: tuple = UNIVARIATE_QUANTILES

    def __post_init__(self):
        qs = tuple(float(q) for q in self.quantiles)
        if any(not (0.0 < q < 1.0) for q in qs):
            raise ValueError("quantile probabilities must lie in (0, 1)")
        if any(b <= a for a, b in zip(qs, qs[1:])):
            raise ValueError("quantile probabilities must be strictly increasing")
        object.__setattr__(self, "quantiles", qs)

    @property
    def statistic_names(self) -> tuple:
        return MOMENT_NAMES + tuple(_quantile_name(q) for q in self.quantiles)

    @property
    def size(self) -> int:
        return len(self.statistic_names)


def _sorted_quantiles(xs: np.ndarray, qs) -> np.ndarray:
    """Quantiles of samples already sorted along the last axis."""
    q_arr = np.asarray(qs, dtype=float)
    n = xs.shape[-1]
    h = q_arr * (n - 1)
    lo = np.floor(h).astype(int)
    hi = np.minimum(lo + 1, n - 1)
    frac = h - lo
    return xs[..., lo] + (xs[..., hi] - xs[..., lo]) * frac


# Sample-sized arrays :func:`summarize_into` works in.
SCRATCH_COPIES = 3


def summarize(samples, cfg: SummaryConfig) -> np.ndarray:
    """Summary vectors of empirical distributions along the last axis.

    ``samples`` of shape ``(..., n)`` holds one distribution of ``n`` values
    per leading index; the result has shape ``(..., cfg.size)`` with the
    statistics in the order given by ``cfg.statistic_names``. A 1-d
    sample gives a single vector. Moments are population moments (no bias
    correction). Skew and kurtosis are taken from the samples scaled by
    their standard deviation, so they stay finite when the variance is
    positive but its powers underflow. This is :func:`summarize_into` with
    scratch space of its own.

    Raises
    ------
    ValueError
        If the distributions are empty, contain non-finite values, or are
        so large (beyond about 1e154) that their variance overflows.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1)
    out = np.empty(x.shape[:-1] + (cfg.size,))
    summarize_into(x, cfg, out, np.empty(SCRATCH_COPIES * x.size))
    return out


def summarize_into(x: np.ndarray, cfg: SummaryConfig, out: np.ndarray,
                   scratch: np.ndarray) -> None:
    """:func:`summarize` of the float array ``x``, written to ``out``.

    ``out`` has shape ``x.shape[:-1] + (cfg.size,)`` and may be a strided
    view. Every array as large as ``x`` is a view of ``scratch``, a flat
    float array of at least ``SCRATCH_COPIES * x.size`` elements whose
    contents are overwritten; a caller summarizing block after block
    passes the same one each time, so no sample-sized memory is allocated
    per call. Raises as :func:`summarize` does.
    """
    if x.shape[-1] == 0:
        raise ValueError("cannot summarize an empty distribution")
    xs, centered, powers = scratch[:SCRATCH_COPIES * x.size].reshape(
        (SCRATCH_COPIES,) + x.shape)
    np.copyto(xs, x)
    xs.sort(axis=-1)
    # Sorting puts -inf first and inf and NaN last.
    if not (np.all(np.isfinite(xs[..., 0])) and np.all(np.isfinite(xs[..., -1]))):
        raise ValueError("samples must be finite")

    with np.errstate(over="ignore"):
        mean = x.mean(axis=-1)
        np.subtract(x, mean[..., None], out=centered)
        var = np.multiply(centered, centered, out=powers).mean(axis=-1)
    if not np.all(np.isfinite(var)):
        raise ValueError("samples are too large to summarize: their variance "
                         "overflows")
    spread = xs[..., -1] - xs[..., 0]
    # A constant sample whose mean rounds has a variance of rounding error,
    # so its std is set to 0; one whose variance underflows cannot be
    # scaled by its std.
    std = np.where(spread > 0.0, np.sqrt(var), 0.0)
    shaped = (spread > 0.0) & (var > 0.0)
    u = np.divide(centered, np.where(shaped, std, 1.0)[..., None], out=centered)
    u2 = np.multiply(u, u, out=powers)
    var_u = np.where(shaped, u2.mean(axis=-1), 1.0)
    u3 = np.multiply(u2, u, out=u)
    skew = np.where(shaped, u3.mean(axis=-1) / (var_u * np.sqrt(var_u)), 0.0)
    u4 = np.multiply(u2, u2, out=u3)
    kurt = np.where(shaped, u4.mean(axis=-1) / (var_u * var_u) - 3.0, 0.0)

    for i, value in enumerate((spread, mean, std, skew, kurt)):
        out[..., i] = value
    out[..., len(MOMENT_NAMES):] = _sorted_quantiles(xs, cfg.quantiles)


@dataclass(frozen=True)
class SphericalSample:
    """Points on the unit sphere given as (latitude, longitude) in radians."""

    latitudes: np.ndarray
    longitudes: np.ndarray

    def __post_init__(self):
        lat = np.asarray(self.latitudes, dtype=float).reshape(-1)
        lon = np.asarray(self.longitudes, dtype=float).reshape(-1)
        if lat.size != lon.size:
            raise ValueError("latitude and longitude lengths differ")
        if lat.size == 0:
            raise ValueError("spherical sample is empty")
        if np.any(np.abs(lat) > np.pi / 2 + 1e-12):
            raise ValueError("latitudes must lie in [-pi/2, pi/2]")
        object.__setattr__(self, "latitudes", lat)
        object.__setattr__(self, "longitudes", lon)

    def unit_vectors(self) -> np.ndarray:
        cl = np.cos(self.latitudes)
        return np.column_stack([
            cl * np.cos(self.longitudes),
            cl * np.sin(self.longitudes),
            np.sin(self.latitudes),
        ])


# The intrinsic mean iteration stops once its step is shorter than
# FRECHET_TOL radians, and fails after FRECHET_MAX_ITERATIONS steps.
FRECHET_TOL = 1e-12
FRECHET_MAX_ITERATIONS = 200


def _geodesic_to(mu: np.ndarray, points: np.ndarray) -> np.ndarray:
    dots = np.clip(points @ mu, -1.0, 1.0)
    return np.arccos(dots)


def frechet_mean_variance(sample: SphericalSample):
    """Intrinsic mean and variance of points on the unit sphere.

    Minimizes ``sum_i d(p_i, p)^2`` over sphere points ``p``, where ``d`` is
    great-circle distance, by iterating exponential/logarithm map updates
    from the normalized Euclidean mean. Returns ``((lat, lon), variance)``
    with the mean in radians and the variance equal to the minimized sum.

    The minimizer is unique when the points sit inside an open hemisphere,
    which is the regime this routine expects.

    Raises
    ------
    ValueError
        If the points' Euclidean mean is (numerically) zero, so no starting
        hemisphere can be identified.
    RuntimeError
        If the update step is still at least ``FRECHET_TOL`` radians after
        ``FRECHET_MAX_ITERATIONS`` steps.
    """
    pts = sample.unit_vectors()
    centroid = pts.mean(axis=0)
    norm = np.linalg.norm(centroid)
    if norm < 1e-12:
        raise ValueError("points have no well-defined mean direction")
    mu = centroid / norm

    for _ in range(FRECHET_MAX_ITERATIONS):
        theta = _geodesic_to(mu, pts)
        # Log map: tangent vectors of length theta toward each point.
        perp = pts - np.outer(np.cos(theta), mu)
        perp_norm = np.linalg.norm(perp, axis=1)
        scale = np.where(perp_norm > 1e-15, theta / np.maximum(perp_norm, 1e-300), 0.0)
        tangent_mean = (perp * scale.reshape(-1, 1)).mean(axis=0)
        t_norm = np.linalg.norm(tangent_mean)
        if t_norm < FRECHET_TOL:
            break
        mu = np.cos(t_norm) * mu + np.sin(t_norm) * (tangent_mean / t_norm)
        mu = mu / np.linalg.norm(mu)
    else:
        raise RuntimeError("intrinsic mean iteration did not converge")

    variance = float(np.sum(_geodesic_to(mu, pts) ** 2))
    lat = float(np.arcsin(np.clip(mu[2], -1.0, 1.0)))
    lon = float(np.arctan2(mu[1], mu[0]))
    return (lat, lon), variance
