"""Built-in surface models with closed-form oracles.

Every entry carries, next to the model itself, closed forms for each
quantity the sweep computes, so tests can pin the numerical machinery
against independent formulas.  For a metric ``dt^2 + G dtheta^2`` with
``w = sqrt(G)`` the relevant identities are

* Gaussian curvature ``K = -w''/w`` and area element ``w dt dtheta``,
  so band integrals of ``K`` telescope: ``int K dA = -2*pi*[w']``;
* the boundary circle at height ``h`` has length ``2*pi*w(h)`` and
  geodesic curvature ``w'(h)``.

The catenoid and the capped pseudosphere-like cusp violate the
"curvature nonnegative far out" hypothesis on purpose: they pin down
that the verifier separates certified verdicts from merely observed
inequalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .jets import Jet2
from .model import AnalyticCore, EndChart, PolarCap, SurfaceModel, Topology, euler_char

TWO_PI = 2.0 * math.pi


class InvalidParameter(ValueError):
    pass


@dataclass(frozen=True)
class Oracle:
    """Closed forms for everything the sweep computes."""

    gauss_K: Callable[[float, float], float]
    kappa_g: Callable[[float], float]
    mu: Callable[[float], float]
    lam: Callable[[float], float]
    c_trunc: Callable[[float], float]
    L: float
    c_total: float
    chi: int
    hypothesis_holds: bool


@dataclass(frozen=True)
class ZooEntry:
    model: SurfaceModel
    oracle: Oracle
    provenance_note: str

    @property
    def name(self) -> str:
        return self.model.name


class MeridianArcProfile:
    """Arc-length reparametrization ``r(t)`` of a rotation-surface profile.

    Solves ``dr/dt = slope(r)``, ``r(0) = 0`` with an adaptive one-step
    integrator at build time (dense output, tolerances 1e-12) and extends
    the solved span on demand.  Derivatives at a query point come from
    the closed-form slope, not from the interpolant, so the jets stay
    consistent to the ODE tolerance.  Queries take scalar or array
    arc lengths; ``slope`` and ``dslope_dr`` must accept arrays.
    """

    def __init__(self, slope, dslope_dr, initial_span: float = 64.0):
        self._slope = slope
        self._dslope = dslope_dr
        self._spans: list[float] = [0.0]
        self._sols: list = []
        self._state = 0.0
        self._extend(initial_span)

    def _extend(self, t_target: float) -> None:
        while self._spans[-1] < t_target:
            t0 = self._spans[-1]
            t1 = max(2.0 * t0, t0 + 64.0)
            sol = solve_ivp(
                lambda _, y: [self._slope(y[0])],
                (t0, t1),
                [self._state],
                method="DOP853",
                dense_output=True,
                rtol=1e-12,
                atol=1e-12,
            )
            if sol.status != 0:
                raise RuntimeError(f"profile integration failed: {sol.message}")
            self._sols.append(sol.sol)
            self._spans.append(t1)
            self._state = float(sol.y[0, -1])

    def radius(self, t):
        """Radius at arc length t; the dense output of each solved span
        is evaluated once, on all the points that fall in it."""
        t = np.asarray(t, dtype=float)
        r = np.zeros(t.shape)
        inside = t > 0.0
        if np.any(inside):
            self._extend(float(np.max(t)))
            span = np.searchsorted(self._spans, t) - 1
            for k in np.unique(span[inside]):
                hit = inside & (span == k)
                r[hit] = self._sols[k](t[hit])[0]
        return r[()]

    def jets(self, t):
        """(r, dr/dt, d2r/dt2) at arc length t."""
        r = self.radius(t)
        s = self._slope(r)
        return r, s, self._dslope(r) * s


# ---------------------------------------------------------------------------
# entry constructors


def make_flat_cylinder() -> ZooEntry:
    """Product cylinder: two flat ends, zero everything."""
    unit = Jet2(1.0)

    def chart() -> EndChart:
        return EndChart(
            g_jet=lambda t, theta: unit,
            sqrt_g_jet=lambda t, theta: unit,
            label="flat cylinder end",
        )

    model = SurfaceModel(
        topology=Topology(genus=0, ends=2),
        ends=(chart(), chart()),
        core=AnalyticCore(0.0, (0.0, 0.0)),
        name="flat-cylinder",
    )
    oracle = Oracle(
        gauss_K=lambda t, theta: 0.0,
        kappa_g=lambda h: 0.0,
        mu=lambda h: 2.0 * TWO_PI,
        lam=lambda h: 0.0,
        c_trunc=lambda h: 0.0,
        L=0.0,
        c_total=0.0,
        chi=0,
        hypothesis_holds=True,
    )
    note = (
        "G = 1 on both ends: every boundary circle is a unit-speed geodesic "
        "of length 2*pi, so mu = 4*pi, lambda = 0, and all curvature "
        "integrals vanish."
    )
    return ZooEntry(model, oracle, note)


def make_polar_plane() -> ZooEntry:
    """Euclidean plane in polar normal form, G = t^2."""
    chart = EndChart(
        g_jet=lambda t, theta: Jet2(t * t, 2.0 * t, 2.0),
        sqrt_g_jet=lambda t, theta: Jet2(t, 1.0, 0.0),
        label="polar plane end",
    )
    model = SurfaceModel(
        topology=Topology(genus=0, ends=1),
        ends=(chart,),
        core=PolarCap(),
        name="polar-plane",
    )
    oracle = Oracle(
        gauss_K=lambda t, theta: 0.0,
        kappa_g=lambda h: 1.0,
        mu=lambda h: TWO_PI * h,
        lam=lambda h: TWO_PI,
        c_trunc=lambda h: 0.0,
        L=TWO_PI,
        c_total=0.0,
        chi=1,
        hypothesis_holds=True,
    )
    note = (
        "sqrt(G) = t exactly: circles of radius h have length 2*pi*h and "
        "unit radial growth, curvature vanishes."
    )
    return ZooEntry(model, oracle, note)


def _paraboloid_arc_length(r: float) -> float:
    return 0.5 * (r * math.sqrt(1.0 + r * r) + math.asinh(r))


def paraboloid_radius_oracle(t: float) -> float:
    """Independent inverse of the closed-form meridian arc length of
    z = r^2/2, used only by the oracle (the model runs on the ODE)."""
    if t <= 0.0:
        return 0.0
    hi = max(2.0, math.sqrt(2.0 * t) + 2.0)
    return brentq(
        lambda r: _paraboloid_arc_length(r) - t, 0.0, hi, xtol=1e-14, rtol=8.9e-16
    )


def make_paraboloid() -> ZooEntry:
    """Rotation surface z = r^2/2, reparametrized by meridian arc length."""
    profile = MeridianArcProfile(
        slope=lambda r: 1.0 / np.sqrt(1.0 + r * r),
        dslope_dr=lambda r: -r * (1.0 + r * r) ** -1.5,
    )

    def g_jet(t, theta):
        r, r1, r2 = profile.jets(t)
        return Jet2(r * r, 2.0 * r * r1, 2.0 * (r1 * r1 + r * r2))

    def sqrt_g_jet(t, theta):
        r, r1, r2 = profile.jets(t)
        return Jet2(r, r1, r2)

    chart = EndChart(g_jet=g_jet, sqrt_g_jet=sqrt_g_jet, label="paraboloid end")
    model = SurfaceModel(
        topology=Topology(genus=0, ends=1),
        ends=(chart,),
        core=PolarCap(),
        name="paraboloid",
    )

    def cos_slope(h: float) -> float:
        r = paraboloid_radius_oracle(h)
        return 1.0 / math.sqrt(1.0 + r * r)

    oracle = Oracle(
        gauss_K=lambda t, theta: (1.0 + paraboloid_radius_oracle(t) ** 2) ** -2,
        kappa_g=cos_slope,
        mu=lambda h: TWO_PI * paraboloid_radius_oracle(h),
        lam=lambda h: TWO_PI * cos_slope(h),
        c_trunc=lambda h: TWO_PI * (1.0 - cos_slope(h)),
        L=0.0,
        c_total=TWO_PI,
        chi=1,
        hypothesis_holds=True,
    )
    note = (
        "For z = r^2/2 the meridian slope angle phi satisfies tan(phi) = r, "
        "so the parallel at radius r has geodesic curvature cos(phi) = "
        "1/sqrt(1+r^2) per unit angle; band curvature integrals telescope to "
        "2*pi*(cos phi_lo - cos phi_hi) and the Gauss map fills an open "
        "hemisphere, total curvature 2*pi.  Oracle radii invert the "
        "closed-form arc length t(r) = (r*sqrt(1+r^2) + asinh r)/2."
    )
    return ZooEntry(model, oracle, note)


_CONE_CAP_RADIUS = 10.0


def _cone_profile_jets(t, slant: float, tc: float = _CONE_CAP_RADIUS):
    """w = sqrt(G) for a smooth cap blending into an exact cone.

    The radial derivative w' descends from 1 to the slant along a
    quintic smoothstep on [0, tc]; beyond tc the surface is the exact
    cone w = slant*t + b.  The blend keeps w' nonincreasing, hence
    curvature nonnegative, and w'' vanishes at both junctions.
    """
    cone = t >= tc
    u = np.minimum(t, tc) / tc  # the cap polynomials stay bounded on the cone
    p = ((6.0 * u - 15.0) * u + 10.0) * u**3
    dp = ((30.0 * u - 60.0) * u + 30.0) * u**2
    P = ((u - 3.0) * u + 2.5) * u**4
    return (
        np.where(cone, slant * t + 0.5 * (1.0 - slant) * tc, t - (1.0 - slant) * tc * P),
        np.where(cone, slant, 1.0 - (1.0 - slant) * p),
        np.where(cone, 0.0, -(1.0 - slant) * dp / tc),
    )


def make_capped_cone(slant: float = 0.5) -> ZooEntry:
    """Smooth cap opening into an exact cone of the given slant.

    ``slant`` is the sine of the cone half-angle and must lie in (0, 1).
    """
    if not (0.0 < slant < 1.0):
        raise InvalidParameter(f"slant must lie in (0, 1), got {slant!r}")

    def sqrt_g_jet(t, theta):
        w, w1, w2 = _cone_profile_jets(t, slant)
        return Jet2(w, w1, w2)

    def g_jet(t, theta):
        w, w1, w2 = _cone_profile_jets(t, slant)
        return Jet2(w * w, 2.0 * w * w1, 2.0 * (w1 * w1 + w * w2))

    chart = EndChart(g_jet=g_jet, sqrt_g_jet=sqrt_g_jet, label="capped cone end")
    model = SurfaceModel(
        topology=Topology(genus=0, ends=1),
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
        kappa_g=lambda h: profile(h)[1],
        mu=lambda h: TWO_PI * profile(h)[0],
        lam=lambda h: TWO_PI * profile(h)[1],
        c_trunc=lambda h: TWO_PI * (1.0 - profile(h)[1]),
        L=TWO_PI * slant,
        c_total=TWO_PI * (1.0 - slant),
        chi=1,
        hypothesis_holds=True,
    )
    note = (
        "w' falls from 1 (smooth pole) to the slant along a quintic "
        "smoothstep over [0, 10], exact cone afterwards; curvature "
        "integrals telescope, giving the cone-angle deficit "
        "c_total = 2*pi*(1 - slant) and boundary turning 2*pi*slant."
    )
    return ZooEntry(model, oracle, note)


def make_catenoid() -> ZooEntry:
    """Catenoid in arc-length form: both ends carry G = 1 + t^2."""

    def g_jet(t, theta):
        return Jet2(1.0 + t * t, 2.0 * t, 2.0)

    def sqrt_g_jet(t, theta):
        w = np.sqrt(1.0 + t * t)
        return Jet2(w, t / w, 1.0 / w**3)

    def chart() -> EndChart:
        return EndChart(g_jet=g_jet, sqrt_g_jet=sqrt_g_jet, label="catenoid end")

    model = SurfaceModel(
        topology=Topology(genus=0, ends=2),
        ends=(chart(), chart()),
        core=AnalyticCore(0.0, (0.0, 0.0)),
        name="catenoid",
    )
    oracle = Oracle(
        gauss_K=lambda t, theta: -((1.0 + t * t) ** -2),
        kappa_g=lambda h: h / math.sqrt(1.0 + h * h),
        mu=lambda h: 2.0 * TWO_PI * math.sqrt(1.0 + h * h),
        lam=lambda h: 2.0 * TWO_PI * h / math.sqrt(1.0 + h * h),
        c_trunc=lambda h: -2.0 * TWO_PI * h / math.sqrt(1.0 + h * h),
        L=2.0 * TWO_PI,
        c_total=-2.0 * TWO_PI,
        chi=0,
        hypothesis_holds=False,
    )
    note = (
        "Arc length along the cosh meridian gives sqrt(G) = sqrt(1+t^2) on "
        "each half; the waist t = 0 is a geodesic, so the core contributes "
        "nothing, and each end carries curvature integral -2*pi, the "
        "classical total -4*pi.  Curvature is negative everywhere, so the "
        "nonnegative-at-infinity hypothesis fails."
    )
    return ZooEntry(model, oracle, note)


def make_hyperbolic_cusp_cap() -> ZooEntry:
    """Hyperbolic cusp G = exp(-2t) closed off by a positively curved cap.

    A closed cap whose boundary circle has length 2*pi*e^0 and inward
    geodesic curvature -1 must carry curvature integral 4*pi; that value
    enters as the analytic core term.
    """

    def g_jet(t, theta):
        e = np.exp(-2.0 * t)
        return Jet2(e, -2.0 * e, 4.0 * e)

    def sqrt_g_jet(t, theta):
        e = np.exp(-t)
        return Jet2(e, -e, e)

    chart = EndChart(g_jet=g_jet, sqrt_g_jet=sqrt_g_jet, label="hyperbolic cusp end")
    model = SurfaceModel(
        topology=Topology(genus=0, ends=1),
        ends=(chart,),
        core=AnalyticCore(2.0 * TWO_PI, (0.0,)),
        name="cusp-cap",
    )
    oracle = Oracle(
        gauss_K=lambda t, theta: -1.0,
        kappa_g=lambda h: -math.exp(-h),
        mu=lambda h: TWO_PI * math.exp(-h),
        lam=lambda h: -TWO_PI * math.exp(-h),
        c_trunc=lambda h: TWO_PI + TWO_PI * math.exp(-h),
        L=0.0,
        c_total=TWO_PI,
        chi=1,
        hypothesis_holds=False,
    )
    note = (
        "sqrt(G) = e^{-t}: constant curvature -1 on the end with curvature "
        "integral -2*pi, cap forced to 4*pi by the closed-surface count, "
        "total 2*pi.  lambda(h) = -2*pi*e^{-h} increases toward 0, the "
        "standard nonincreasing control violation."
    )
    return ZooEntry(model, oracle, note)


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
    assert entry.oracle.chi == euler_char(entry.model.topology)
    return entry


def all_entries() -> list[ZooEntry]:
    return [zoo_entry(name) for name in ZOO_BUILDERS]
