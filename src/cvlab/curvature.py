"""Pointwise curvature for end-chart metrics ``dt^2 + G dtheta^2``.

For this normal form the Gaussian curvature has the classical closed
expression ``K = -(d^2/dt^2 sqrt(G)) / sqrt(G)`` and the positively
oriented boundary circle at height ``h`` has geodesic curvature
``d/dt sqrt(G)``; the area element is ``sqrt(G) dt dtheta``.  Both
formulas are validated in the test suite against finite differences and
against the closed forms of the built-in surfaces before anything else
relies on them.

Every function takes scalar or array points ``(t, theta)``; a check
that fails at any of the points raises for the whole call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jets import DomainError
from .model import EndChart

__all__ = [
    "CurvatureSample",
    "curvature_split",
    "gauss_curvature",
    "geodesic_curvature",
    "geodesic_curvature_from_g",
    "sample_curvature",
]


@dataclass(frozen=True)
class CurvatureSample:
    t: float
    theta: float
    gauss_K: float
    geodesic_kappa: float
    area_density: float


def _point(t, theta, bad) -> str:
    """The first point where ``bad`` holds, for error messages."""
    ts, thetas, bad = np.broadcast_arrays(t, theta, bad)
    i = np.flatnonzero(bad)[0]
    return f"(t={float(ts.flat[i])}, theta={float(thetas.flat[i])})"


def _sqrt_jet_checked(end: EndChart, t, theta):
    if np.any(t < end.t_min - 1e-12):
        raise ValueError(f"t={float(np.min(t))} lies below the chart edge t_min={end.t_min}")
    w = end.sqrt_jet(t, theta)
    bad = ~(np.isfinite(w.f) & np.isfinite(w.d1) & np.isfinite(w.d2)) | (w.f <= 0.0)
    if np.any(bad):
        raise DomainError(f"sqrt(G) not positive/finite at {_point(t, theta, bad)}")
    return w


def gauss_curvature(end: EndChart, t, theta):
    """Gaussian curvature ``-(d2 sqrt(G)) / sqrt(G)`` at chart points."""
    w = _sqrt_jet_checked(end, t, theta)
    with np.errstate(over="ignore"):
        k = -w.d2 / w.f
    bad = ~np.isfinite(k)
    if np.any(bad):
        raise DomainError(f"non-finite curvature at {_point(t, theta, bad)}")
    return k


def geodesic_curvature(end: EndChart, h, theta):
    """Geodesic curvature ``d/dt sqrt(G)`` of the positively oriented
    boundary circle at height ``h``."""
    return _sqrt_jet_checked(end, h, theta).d1


def geodesic_curvature_from_g(end: EndChart, h, theta):
    """Same quantity through the alternative form ``(dG/dt) / (2 sqrt(G))``.

    Kept as a cross-check path; ``geodesic_curvature`` is the production
    route because it conditions better when G is tiny.
    """
    g = end.g_jet(h, theta)
    bad = ~(np.isfinite(g.f) & np.isfinite(g.d1) & np.isfinite(g.d2)) | (g.f <= 0.0)
    if np.any(bad):
        raise DomainError(f"G not positive/finite at {_point(h, theta, bad)}")
    return g.d1 / (2.0 * np.sqrt(g.f))


def curvature_split(k: float) -> tuple[float, float]:
    """Split into nonnegative and nonpositive parts: ``k = k_plus - k_minus``."""
    if not math.isfinite(k):
        raise ValueError("curvature must be finite")
    return (max(k, 0.0), max(-k, 0.0))


def sample_curvature(end: EndChart, t: float, theta: float) -> CurvatureSample:
    w = _sqrt_jet_checked(end, t, theta)
    return CurvatureSample(
        t=t,
        theta=theta,
        gauss_K=-w.d2 / w.f,
        geodesic_kappa=w.d1,
        area_density=w.f,
    )

