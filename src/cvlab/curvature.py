"""Pointwise Gaussian curvature for end-chart metrics ``dt^2 + G dtheta^2``.

For this normal form the Gaussian curvature has the classical closed
expression ``K = -(d^2/dt^2 sqrt(G)) / sqrt(G)`` and the positively
oriented boundary circle at height ``h`` has geodesic curvature
``d/dt sqrt(G)``, the ``d1`` slot of ``EndChart.sqrt_jet`` that the
sweep integrates; the area element is ``sqrt(G) dt dtheta``.  Both
formulas are validated in the test suite against finite differences and
against the closed forms of the built-in surfaces before anything else
relies on them.

:func:`gauss_curvature` takes scalar or array points ``(t, theta)``; a
check that fails at any of the points raises for the whole call.
"""

from __future__ import annotations

import numpy as np

from .jets import DomainError, Jet2
from .model import EndChart

__all__ = ["gauss_curvature"]


def _point(t, theta, bad) -> str:
    """The first point where ``bad`` holds, for error messages."""
    ts, thetas, bad = np.broadcast_arrays(t, theta, bad)
    i = np.flatnonzero(bad)[0]
    return f"(t={float(ts.flat[i])}, theta={float(thetas.flat[i])})"


def gauss_curvature(end: EndChart, t, theta):
    """Gaussian curvature ``-(d2 sqrt(G)) / sqrt(G)`` at chart points."""
    if np.less(t, end.t_min - 1e-12).any():
        raise ValueError(f"t={float(np.min(t))} lies below the chart edge t_min={end.t_min}")
    return _jet_curvature(end.sqrt_jet(t, theta), t, theta)


def _jet_curvature(w: Jet2, t, theta):
    """``-w.d2 / w.f`` for the jet ``w`` of sqrt(G) at the points ``(t,
    theta)``, with the checks of :func:`gauss_curvature`: sqrt(G) positive
    and finite with finite derivatives, and the curvature finite."""
    with np.errstate(all="ignore"):
        k = -w.d2 / w.f
        # one reduction: a finite k over a finite positive sqrt(G) has a finite d2
        if (np.isfinite(k) & np.isfinite(w.d1) & (w.f > 0.0) & (w.f < np.inf)).all():
            return k
    bad = ~(np.isfinite(w.f) & np.isfinite(w.d1) & np.isfinite(w.d2)) | (w.f <= 0.0)
    if bad.any():
        raise DomainError(f"sqrt(G) not positive/finite at {_point(t, theta, bad)}")
    raise DomainError(f"non-finite curvature at {_point(t, theta, ~np.isfinite(k))}")
