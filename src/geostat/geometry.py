"""Finite-difference derivatives and curvature of time-augmented curves.

A d-dimensional series is viewed as a curve ``t -> (t, x_t)`` in (d+1)-space.
Its augmented velocity is ``v = (1, dx/dt)``, its speed ``|v| >= 1``, and its
curvature measures how fast the unit tangent ``v / |v|`` turns. For a
univariate series this reduces to the classical planar expression
``|x''| / (1 + x'^2)^(3/2)``; keeping the sign of ``x''`` gives the signed
variant. For d > 1 the unit tangent is formed pointwise and differentiated
numerically in time, and the signal called curvature is the norm of that
derivative, ``|dT/dt|``: the turn rate per unit time. That is the curvature
times the speed, not the curvature per arc length ``|dT/ds|``; for a
univariate series it would read ``|x''| / (1 + x'^2)``. Straight lines have
zero curvature and zero turn rate regardless of slope. Curvature is
computed only as part of a signal set: :func:`univariate_signals` for many
univariate series on one grid, :func:`build_stack` for one series of any
dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .series import UniformSeries, smooth_values

__all__ = [
    "GeometricStack",
    "speed",
    "build_stack",
    "univariate_signals",
]


def _diff_values(values: np.ndarray, step, first=0, last=-1) -> np.ndarray:
    """Central differences at interior points, one-sided at the endpoints.

    Series laid end to end along axis 0 have their endpoints at ``first``
    and ``last``, and a ``step`` per sample that broadcasts against
    ``values``; their one-sided forms replace the differences across joins.
    """
    if values.shape[0] < 3:
        raise ValueError("finite differences need at least 3 samples")
    if np.ndim(step):
        inner, h_first, h_last = step[1:-1], step[first], step[last]
    else:
        inner = h_first = h_last = step
    out = np.empty_like(values, dtype=float)
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * inner)
    out[first] = (values[first + 1] - values[first]) / h_first
    out[last] = (values[last] - values[last - 1]) / h_last
    return out


def speed(first_deriv: np.ndarray) -> np.ndarray:
    """Speed of the time-augmented curve: ``sqrt(1 + |dx/dt|^2)``.

    Takes an (m, d) array of derivative samples and returns the (m,)
    speeds, each at least 1, since the curve advances in time at unit rate.
    """
    return np.sqrt(1.0 + np.sum(first_deriv**2, axis=1))


def _planar_curvature(xd: np.ndarray, xdd: np.ndarray) -> np.ndarray:
    """Signed curvature ``x'' / (1 + x'^2)^(3/2)`` of univariate samples.

    For slopes beyond about 1e154, ``x'^2`` overflows and the curvature is
    0, the formula's limit, so the overflow is not reported.
    """
    with np.errstate(over="ignore"):
        return xdd / (1.0 + xd**2) ** 1.5


def _turn_rate(xd: np.ndarray, step, first=0, last=-1) -> np.ndarray:
    """Norm of the time derivative of the unit tangent of ``(1, xd)``.

    This is ``|dT/dt|``, the curvature times the speed ``|(1, xd)|``, not
    the curvature per arc length. ``step``, ``first`` and ``last`` are as
    in :func:`_diff_values`.
    """
    v = np.hstack([np.ones((xd.shape[0], 1)), xd])
    unit = v / np.linalg.norm(v, axis=1, keepdims=True)
    return np.linalg.norm(_diff_values(unit, step, first, last), axis=1)


@dataclass(frozen=True)
class GeometricStack:
    """Per-sample derived signals of one uniform series.

    All components share the base grid. ``signed_curvature`` is present only
    for univariate input, where its absolute value equals ``curvature``; for
    d > 1, ``curvature`` is the turn rate ``|dT/dt|``.
    """

    base: UniformSeries
    first_deriv: UniformSeries
    second_deriv: UniformSeries
    speed: np.ndarray
    speed_deriv: np.ndarray
    curvature: np.ndarray
    signed_curvature: Optional[np.ndarray]

    @property
    def n_samples(self) -> int:
        return self.base.n_samples


def _derivatives(values: np.ndarray, step: float, k: int):
    """Smoothed base, smoothed first derivative and raw second derivative.

    Acts along axis 0, so the columns of ``values`` may be the coordinates
    of one series or many univariate series sharing a grid.
    """
    base = smooth_values(values, k)
    xd = smooth_values(_diff_values(base, step), k)
    return base, xd, _diff_values(xd, step)


def build_stack(us: UniformSeries, smoothing_iterations: int) -> GeometricStack:
    """Derive the full geometric signal stack from a uniform series.

    The base series is smoothed ``smoothing_iterations`` times, and the same
    iteration count is reapplied after every differentiation stage, so each
    derived signal carries a matching amount of denoising. Speed is a
    pointwise function of the smoothed first derivative and needs no further
    smoothing of its own. With zero iterations everything reduces to raw
    finite differences of the raw values.
    """
    k = int(smoothing_iterations)
    base, xd, xdd_raw = _derivatives(us.values, us.step, k)

    spd = speed(xd)
    spd_deriv = smooth_values(_diff_values(spd, us.step), k)

    if us.dim == 1:
        kappa_signed = smooth_values(_planar_curvature(xd[:, 0], xdd_raw[:, 0]), k)
        kappa = np.abs(kappa_signed)
    else:
        kappa_signed = None
        kappa = smooth_values(_turn_rate(xd, us.step), k)

    return GeometricStack(
        base=us.with_values(base),
        first_deriv=us.with_values(xd),
        second_deriv=us.with_values(smooth_values(xdd_raw, k)),
        speed=spd,
        speed_deriv=spd_deriv,
        curvature=kappa,
        signed_curvature=kappa_signed,
    )


def univariate_signals(values: np.ndarray, step: float,
                       smoothing_iterations: int) -> tuple:
    """The univariate distributions of many series sharing one grid.

    ``values`` is (samples x series), one univariate series per column.
    Returns position, velocity, acceleration, curvature and signed curvature
    in the same layout, each equal column by column to the matching signal
    of :func:`build_stack`.
    """
    k = int(smoothing_iterations)
    base, xd, xdd_raw = _derivatives(values, step, k)
    kappa_signed = smooth_values(_planar_curvature(xd, xdd_raw), k)
    return (base, xd, smooth_values(xdd_raw, k), np.abs(kappa_signed),
            kappa_signed)
