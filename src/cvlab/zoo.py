"""Built-in surface models with closed-form oracles.

Every entry carries, next to the model itself, closed forms for each
quantity the sweep computes, so tests can pin the numerical machinery
against independent formulas.  For a metric ``dt^2 + G dtheta^2`` with
``w = sqrt(G)`` the relevant identities are

* Gaussian curvature ``K = -w''/w`` and area element ``w dt dtheta``,
  so band integrals of ``K`` telescope: ``int K dA = -2*pi*[w']``;
* the boundary circle at height ``h`` has length ``2*pi*w(h)`` and
  geodesic curvature ``w'(h)``.

Every chart states ``w`` alone, the function the sweep integrates.
Every entry is a surface of rotation: each chart returns no theta axis,
so the sweep's quadrature reads each answer as its own theta mean and
integrates in t alone.

The catenoid and the capped pseudosphere-like cusp violate the
"curvature nonnegative far out" hypothesis on purpose: they pin down
that the verifier separates certified verdicts from merely observed
inequalities.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .jets import Jet2
from .model import AnalyticCore, EndChart, PolarCap, SurfaceModel

TWO_PI = 2.0 * math.pi


class InvalidParameter(ValueError):
    pass


class Oracle(NamedTuple):
    """Closed forms for everything the sweep computes."""

    gauss_K: Callable[[float, float], float]
    mu: Callable[[float], float]
    lam: Callable[[float], float]
    c_trunc: Callable[[float], float]
    L: float
    c_total: float
    chi: int
    hypothesis_holds: bool


class ZooEntry(NamedTuple):
    model: SurfaceModel
    oracle: Oracle

    @property
    def name(self) -> str:
        return self.model.name


# ---------------------------------------------------------------------------
# entry constructors


def make_flat_cylinder() -> ZooEntry:
    """Product cylinder: two flat ends, zero everything.

    G = 1 on both ends: every boundary circle is a unit-speed geodesic
    of length 2*pi, so mu = 4*pi, lambda = 0, and all curvature
    integrals vanish.  One chart object stands for both ends, so the
    sweep measures it once.
    """
    unit = Jet2(1.0)
    end = EndChart(sqrt_g_jet=lambda t, theta: unit)
    model = SurfaceModel(
        genus=0,
        ends=(end, end),
        core=AnalyticCore(0.0),
        name="flat-cylinder",
    )
    oracle = Oracle(
        gauss_K=lambda t, theta: 0.0,
        mu=lambda h: 2.0 * TWO_PI,
        lam=lambda h: 0.0,
        c_trunc=lambda h: 0.0,
        L=0.0,
        c_total=0.0,
        chi=0,
        hypothesis_holds=True,
    )
    return ZooEntry(model, oracle)


def make_polar_plane() -> ZooEntry:
    """Euclidean plane in polar normal form, G = t^2.

    sqrt(G) = t exactly: circles of radius h have length 2*pi*h and
    unit radial growth, curvature vanishes.
    """
    chart = EndChart(sqrt_g_jet=lambda t, theta: Jet2(t, 1.0, 0.0))
    model = SurfaceModel(
        genus=0,
        ends=(chart,),
        core=PolarCap(),
        name="polar-plane",
    )
    oracle = Oracle(
        gauss_K=lambda t, theta: 0.0,
        mu=lambda h: TWO_PI * h,
        lam=lambda h: TWO_PI,
        c_trunc=lambda h: 0.0,
        L=TWO_PI,
        c_total=0.0,
        chi=1,
        hypothesis_holds=True,
    )
    return ZooEntry(model, oracle)


def _paraboloid_arc_length(r: float) -> float:
    return 0.5 * (r * math.sqrt(1.0 + r * r) + math.asinh(r))


_PARABOLOID_FAR = 0.5 * np.finfo(float).max  # the least t whose r*r overflows


def paraboloid_profile_jets(t):
    """(r, dr/dt, d2r/dt2) at meridian arc length t of z = r^2/2.

    Inverts the closed-form arc length t(r) = (r*sqrt(1+r^2) + asinh r)/2
    by Newton's method.  t(r) is convex with t'(r) = sqrt(1+r^2) and the
    start min(t, sqrt(2t)) lies at or above the root (t(r) >= r and
    t(r) >= r^2/2), so the iterates fall onto it monotonically.  Each
    element stops on its own step, so a value never depends on the other
    points of its batch.  The derivatives are closed forms in r; t <= 0
    maps to the pole (0, 1, 0).  From half the largest double on, where
    r*r = 2t overflows, t(r) is r^2/2 to double precision (the rest is
    below 200), so r = sqrt(2)*sqrt(t), r' = 1/r and r'' = -0.0: the
    chart is finite at every finite t.
    """
    t = np.asarray(t, dtype=float)
    far = t >= _PARABOLOID_FAR
    if far.any():
        r, r1, r2 = (np.array(s) for s in paraboloid_profile_jets(np.where(far, 0.0, t)))
        r[far] = math.sqrt(2.0) * np.sqrt(t[far])
        r1[far] = 1.0 / r[far]
        r2[far] = -0.0
        return r[()], r1[()], r2[()]
    flat = t.ravel()
    pole = flat <= 0.0
    r = np.where(pole, 0.0, np.minimum(flat, np.sqrt(2.0 * np.maximum(flat, 0.0))))
    live = np.flatnonzero(~pole)
    while live.size:
        x = r[live]
        q = np.sqrt(1.0 + x * x)
        step = (0.5 * (x * q + np.arcsinh(x)) - flat[live]) / q
        r[live] = x - step
        # quadratic convergence: after a relative step of 1e-9 the error
        # is below 1e-18 relative, under one ulp; NaN stops at once
        live = live[np.abs(step) > 1e-9 * x]
    r = r.reshape(t.shape)
    q2 = 1.0 + r * r
    # q2 * q2 overflows to inf for t above about 6.7e153; r'' is then
    # -0.0, within 1e-231 of its true value
    with np.errstate(over="ignore"):
        r2 = -r / (q2 * q2)
    return r[()], (1.0 / np.sqrt(q2))[()], r2[()]


def paraboloid_radius_oracle(t: float) -> float:
    """Independent inverse of the closed-form meridian arc length of
    z = r^2/2 by bracketed root finding, used only by the oracle (the
    model inverts it by Newton's method).  The absolute ``xtol`` is tiny,
    so the relative ``rtol`` of about 4 ulp decides when to stop, down to
    the smallest radii."""
    try:
        from scipy.optimize import brentq  # here, so no CLI run loads scipy
    except ImportError as err:
        raise ImportError(
            "paraboloid_radius_oracle needs scipy, which comes with cvlab's test "
            "extra: pip install 'cvlab[test]'"
        ) from err

    if t <= 0.0:
        return 0.0
    hi = max(2.0, math.sqrt(2.0 * t) + 2.0)
    return brentq(
        lambda r: _paraboloid_arc_length(r) - t, 0.0, hi, xtol=1e-300, rtol=8.9e-16
    )


def make_paraboloid() -> ZooEntry:
    """Rotation surface z = r^2/2, reparametrized by meridian arc length.

    For z = r^2/2 the meridian slope angle phi satisfies tan(phi) = r,
    so the parallel at radius r has geodesic curvature cos(phi) =
    1/sqrt(1+r^2) per unit angle; band curvature integrals telescope to
    2*pi*(cos phi_lo - cos phi_hi) and the Gauss map fills an open
    hemisphere, total curvature 2*pi.  Oracle radii invert the
    closed-form arc length t(r) = (r*sqrt(1+r^2) + asinh r)/2.
    """

    chart = EndChart(sqrt_g_jet=lambda t, theta: Jet2(*paraboloid_profile_jets(t)))
    model = SurfaceModel(
        genus=0,
        ends=(chart,),
        core=PolarCap(),
        name="paraboloid",
    )

    def cos_slope(h: float) -> float:
        r = paraboloid_radius_oracle(h)
        return 1.0 / math.sqrt(1.0 + r * r)

    oracle = Oracle(
        gauss_K=lambda t, theta: (1.0 + paraboloid_radius_oracle(t) ** 2) ** -2,
        mu=lambda h: TWO_PI * paraboloid_radius_oracle(h),
        lam=lambda h: TWO_PI * cos_slope(h),
        c_trunc=lambda h: TWO_PI * (1.0 - cos_slope(h)),
        L=0.0,
        c_total=TWO_PI,
        chi=1,
        hypothesis_holds=True,
    )
    return ZooEntry(model, oracle)


_CONE_TC = 10.0  # the cap radius, where the blend meets the exact cone


def _cone_profile_jets(t, slant: float):
    """w = sqrt(G) for a smooth cap blending into an exact cone.

    The radial derivative w' descends from 1 to the slant along a
    quintic smoothstep on [0, _CONE_TC]; beyond it the surface is the
    exact cone w = slant*t + b.  The blend keeps w' nonincreasing, hence
    curvature nonnegative, and w'' vanishes at both junctions.
    """
    cone = t >= _CONE_TC
    u = np.minimum(t, _CONE_TC) / _CONE_TC  # the cap polynomials stay bounded on the cone
    p = ((6.0 * u - 15.0) * u + 10.0) * u**3
    dp = ((30.0 * u - 60.0) * u + 30.0) * u**2
    P = ((u - 3.0) * u + 2.5) * u**4
    return (
        np.where(
            cone, slant * t + 0.5 * (1.0 - slant) * _CONE_TC, t - (1.0 - slant) * _CONE_TC * P
        ),
        np.where(cone, slant, 1.0 - (1.0 - slant) * p),
        np.where(cone, 0.0, -(1.0 - slant) * dp / _CONE_TC),
    )


def make_capped_cone(slant: float = 0.5) -> ZooEntry:
    """Smooth cap opening into an exact cone of the given slant.

    ``slant`` is the sine of the cone half-angle and must lie in (0, 1).

    w' falls from 1 (smooth pole) to the slant along a quintic
    smoothstep over [0, 10], exact cone afterwards; curvature integrals
    telescope, giving the cone-angle deficit c_total = 2*pi*(1 - slant)
    and boundary turning 2*pi*slant.
    """
    if not (0.0 < slant < 1.0):
        raise InvalidParameter(f"slant must lie in (0, 1), got {slant!r}")

    chart = EndChart(sqrt_g_jet=lambda t, theta: Jet2(*_cone_profile_jets(t, slant)))
    model = SurfaceModel(
        genus=0,
        ends=(chart,),
        core=PolarCap(),
        name="capped-cone",
    )

    def profile(h: float) -> tuple[float, float, float]:
        return tuple(float(v) for v in _cone_profile_jets(h, slant))

    def K(t, theta):
        w, _, w2 = profile(t)
        if w == 0.0:
            return 0.0
        return -w2 / w

    oracle = Oracle(
        gauss_K=K,
        mu=lambda h: TWO_PI * profile(h)[0],
        lam=lambda h: TWO_PI * profile(h)[1],
        c_trunc=lambda h: TWO_PI * (1.0 - profile(h)[1]),
        L=TWO_PI * slant,
        c_total=TWO_PI * (1.0 - slant),
        chi=1,
        hypothesis_holds=True,
    )
    return ZooEntry(model, oracle)


def make_catenoid() -> ZooEntry:
    """Catenoid in arc-length form: both ends carry G = 1 + t^2.

    Arc length along the cosh meridian gives sqrt(G) = sqrt(1+t^2) on
    each half; the waist t = 0 is a geodesic, so the core contributes
    nothing, and each end carries curvature integral -2*pi, the
    classical total -4*pi.  Curvature is negative everywhere, so the
    nonnegative-at-infinity hypothesis fails.  One chart object stands
    for both ends, so the sweep measures it once.
    """

    def sqrt_g_jet(t, theta):
        # 1 + t*t overflows past |t| ~ 1.3e154, where w is |t| to double
        # precision, and w**3 past 5.6e102, where 1/w^3 is 0 within 1e-308
        with np.errstate(over="ignore"):
            w = np.sqrt(1.0 + t * t)
            if np.isinf(w).any():
                w = np.where(np.isinf(w), np.abs(t), w)[()]
            return Jet2(w, t / w, 1.0 / w**3)

    end = EndChart(sqrt_g_jet=sqrt_g_jet)
    model = SurfaceModel(
        genus=0,
        ends=(end, end),
        core=AnalyticCore(0.0),
        name="catenoid",
    )
    oracle = Oracle(
        gauss_K=lambda t, theta: -((1.0 + t * t) ** -2),
        mu=lambda h: 2.0 * TWO_PI * math.sqrt(1.0 + h * h),
        lam=lambda h: 2.0 * TWO_PI * h / math.sqrt(1.0 + h * h),
        c_trunc=lambda h: -2.0 * TWO_PI * h / math.sqrt(1.0 + h * h),
        L=2.0 * TWO_PI,
        c_total=-2.0 * TWO_PI,
        chi=0,
        hypothesis_holds=False,
    )
    return ZooEntry(model, oracle)


def make_hyperbolic_cusp_cap() -> ZooEntry:
    """Hyperbolic cusp G = exp(-2t) closed off by a positively curved cap.

    A closed cap whose boundary circle has length 2*pi*e^0 and inward
    geodesic curvature -1 must carry curvature integral 4*pi; that value
    enters as the analytic core term.

    sqrt(G) = e^{-t}: constant curvature -1 on the end with curvature
    integral -2*pi, cap forced to 4*pi by the closed-surface count,
    total 2*pi.  lambda(h) = -2*pi*e^{-h} increases toward 0, the
    standard nonincreasing control violation.
    """

    def sqrt_g_jet(t, theta):
        e = np.exp(-t)
        return Jet2(e, -e, e)

    chart = EndChart(sqrt_g_jet=sqrt_g_jet)
    model = SurfaceModel(
        genus=0,
        ends=(chart,),
        core=AnalyticCore(2.0 * TWO_PI),
        name="cusp-cap",
    )
    oracle = Oracle(
        gauss_K=lambda t, theta: -1.0,
        mu=lambda h: TWO_PI * math.exp(-h),
        lam=lambda h: -TWO_PI * math.exp(-h),
        c_trunc=lambda h: TWO_PI + TWO_PI * math.exp(-h),
        L=0.0,
        c_total=TWO_PI,
        chi=1,
        hypothesis_holds=False,
    )
    return ZooEntry(model, oracle)


ZOO_BUILDERS: dict[str, Callable[[], ZooEntry]] = {
    "flat-cylinder": make_flat_cylinder,
    "polar-plane": make_polar_plane,
    "paraboloid": make_paraboloid,
    "capped-cone": make_capped_cone,
    "catenoid": make_catenoid,
    "cusp-cap": make_hyperbolic_cusp_cap,
}


def zoo_names() -> tuple[str, ...]:
    return tuple(ZOO_BUILDERS)


def zoo_entry(name: str) -> ZooEntry:
    try:
        builder = ZOO_BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown surface {name!r}; known: {', '.join(ZOO_BUILDERS)}")
    entry = builder()
    assert entry.oracle.chi == entry.model.chi
    return entry


def all_entries() -> list[ZooEntry]:
    return [zoo_entry(name) for name in ZOO_BUILDERS]
