"""Truncation sweep: boundary functionals, limit estimation, verdicts.

For a truncation height ``h`` the three computed quantities are

* ``mu(h)``      - total boundary length, sum over ends of the circle
                   integral of ``sqrt(G)``;
* ``lambda(h)``  - total boundary geodesic curvature, circle integral of
                   ``d/dt sqrt(G)``;
* ``c_trunc(h)`` - curvature integral over the truncated surface: core
                   term plus band integrals of ``K dA``.

``run_sweep`` samples these over a height schedule, locates the height
beyond which sampled curvature stays nonnegative, extrapolates the
limit of ``lambda``, forms the total curvature both as
``2*pi*chi - limit`` and by direct improper integration, and renders a
verdict for every identity and inequality the toolkit certifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .curvature import gauss_curvature
from .model import AnalyticCore, EndChart, PolarCap, SurfaceModel, POLE_GUARD, validate_surface
from .quadrature import (
    DEFAULT_TOL,
    ImproperResult,
    NotMonotone,
    TailLimit,
    Tolerance,
    estimate_tail_limit,
    integrate_annulus,
    integrate_circle,
    integrate_improper,
)

TWO_PI = 2.0 * math.pi

CHECK_NAMES = (
    "gauss-bonnet-truncated",
    "lambda-mu-prime",
    "lambda-monotone",
    "L-nonneg",
    "theorem",
    "corollary",
    "c-total-consistency",
)

K_SLACK = 1e-10  # sampled curvature this far below zero still counts as >= 0


class NonPositiveMu(ValueError):
    """Total boundary length came out nonpositive; the model is broken."""


@dataclass(frozen=True)
class TruncationSample:
    h: float
    mu: float
    lam: float
    c_trunc: float
    quad_error: float
    gb_residual: float


@dataclass(frozen=True)
class Verdict:
    status: str  # pass | fail | not-applicable
    residual: float | None = None
    bound: float | None = None
    note: str = ""


@dataclass(frozen=True)
class SweepReport:
    surface: str
    chi: int
    samples: tuple[TruncationSample, ...]
    h1: float | None
    limit: TailLimit | None
    c_total: float | None
    divergence: str | None
    c_total_route: str
    verdicts: dict[str, Verdict]
    kmin_sampled: float = 0.0
    kmax_sampled: float = 0.0

    @property
    def all_pass(self) -> bool:
        return all(v.status != "fail" for v in self.verdicts.values())

    def c_total_text(self) -> str | float:
        if self.c_total is not None:
            return self.c_total
        direction = self.divergence or "unknown"
        return f"does not converge (toward {direction})"


def residual_bound(quad_error: float) -> float:
    """Verdict threshold: an order of magnitude over the quadrature error
    estimate plus an absolute floor, separating method error from
    discretization error."""
    return 10.0 * quad_error + 1e-9


def _mu_with_error(model: SurfaceModel, h: float, tol: Tolerance):
    total, err = 0.0, 0.0
    for end in model.ends:
        res = integrate_circle(lambda theta: end.sqrt_jet(h, theta).f, tol)
        total += res.value
        err += res.error_estimate
    if total <= 0.0:
        raise NonPositiveMu(f"mu({h}) = {total} <= 0")
    return total, err


def _lambda_with_error(model: SurfaceModel, h: float, tol: Tolerance):
    total, err = 0.0, 0.0
    for end in model.ends:
        res = integrate_circle(lambda theta: end.sqrt_jet(h, theta).d1, tol)
        total += res.value
        err += res.error_estimate
    return total, err


def _curvature_density(end: EndChart):
    # K * sqrt(G) = -d2 sqrt(G): no division, well behaved near poles
    return lambda t, theta: -end.sqrt_jet(t, theta).d2


def _pole_band(end: EndChart, h: float, tol: Tolerance):
    """Curvature integral over (0, h] when the chart closes at a pole.

    Integrates [eps, h] and shrinks eps geometrically until the added
    slivers stop mattering; the smooth-cap boundary behavior makes the
    remaining stub quadratically small.
    """
    f = _curvature_density(end)
    eps = min(0.5, h / 4.0)
    res = integrate_annulus(f, eps, h, tol)
    total, err = res.value, res.error_estimate
    quiet = 0
    last = 0.0
    while eps > POLE_GUARD:
        lower = max(eps / 2.0, POLE_GUARD / 2.0)
        sliver = integrate_annulus(f, lower, eps, tol)
        total += sliver.value
        err += sliver.error_estimate
        eps = lower
        last = abs(sliver.value)
        quiet = quiet + 1 if last <= tol.target(total) else 0
        if quiet >= 2:
            break
    err += min(last, abs(total) + last)
    return total, err


def _band_with_error(model: SurfaceModel, h: float, tol: Tolerance):
    """Curvature integral over the truncation at height h."""
    if isinstance(model.core, PolarCap):
        end = model.ends[0]
        if h <= end.t_min:
            return 0.0, 0.0
        return _pole_band(end, h, tol)
    core: AnalyticCore = model.core
    total, err = core.total_curvature, 0.0
    for end in model.ends:
        if h <= end.t_min:
            continue
        res = integrate_annulus(_curvature_density(end), end.t_min, h, tol)
        total += res.value
        err += res.error_estimate
    return total, err


def mu(model: SurfaceModel, h: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """Total boundary length of the truncation at height h."""
    _require_height(model, h)
    return _mu_with_error(model, h, tol)[0]


def lambda_total(model: SurfaceModel, h: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """Total geodesic curvature of the positively oriented boundary."""
    _require_height(model, h)
    return _lambda_with_error(model, h, tol)[0]


def truncated_total_curvature(
    model: SurfaceModel, h: float, tol: Tolerance = DEFAULT_TOL
) -> float:
    """Curvature integral over the truncated surface at height h."""
    _require_height(model, h)
    return _band_with_error(model, h, tol)[0]


def _require_height(model: SurfaceModel, h: float) -> None:
    if h < model.min_height:
        raise ValueError(
            f"height {h} lies below the chart edge {model.min_height}"
        )


def compute_sample(
    model: SurfaceModel, h: float, tol: Tolerance = DEFAULT_TOL
) -> TruncationSample:
    _require_height(model, h)
    m, em = _mu_with_error(model, h, tol)
    l, el = _lambda_with_error(model, h, tol)
    c, ec = _band_with_error(model, h, tol)
    quad_error = em + el + ec
    residual = abs(TWO_PI * model.chi - c - l)
    return TruncationSample(h, m, l, c, quad_error, residual)


def check_gauss_bonnet_truncated(sample: TruncationSample, chi: int) -> float:
    """Residual of 2*pi*chi = c_trunc(h) + lambda(h) for one sample."""
    return abs(TWO_PI * chi - sample.c_trunc - sample.lam)


def check_lambda_is_mu_prime(samples: Sequence[TruncationSample]) -> float:
    """Worst deviation of lambda from the central difference of mu over
    the schedule's interior points."""
    if len(samples) < 3:
        raise ValueError("need at least 3 samples")
    worst = 0.0
    for prev, mid, nxt in zip(samples, samples[1:], samples[2:]):
        diff = (nxt.mu - prev.mu) / (nxt.h - prev.h)
        worst = max(worst, abs(diff - mid.lam))
    return worst


def detect_h1(
    model: SurfaceModel,
    h_probe_max: float,
    grid: int = 64,
    theta_samples: int = 16,
    k_slack: float = K_SLACK,
) -> float | None:
    """Smallest height beyond which sampled curvature stays >= -k_slack.

    Scans a height grid per end, then refines the boundary of the last
    violation by bisection to resolution ``h_probe_max / 2**12``.
    Returns ``None`` when violations persist up to the probe ceiling.
    """
    if grid < 8:
        raise ValueError("grid must be at least 8")
    if h_probe_max <= max(end.t_min for end in model.ends):
        raise ValueError("h_probe_max must exceed every chart edge")
    thetas = _probe_thetas(theta_samples)

    def bad_at(t: float) -> bool:
        for end in model.ends:
            te = max(t, end.t_min + POLE_GUARD)
            if np.any(gauss_curvature(end, te, thetas) < -k_slack):
                return True
        return False

    origin = max(end.t_min for end in model.ends)
    heights = _probe_heights(origin, h_probe_max, grid)
    last_bad = None
    for i, t in enumerate(heights):
        if bad_at(t):
            last_bad = i
    if last_bad is None:
        return origin
    if last_bad == len(heights) - 1:
        return None
    lo, hi = heights[last_bad], heights[last_bad + 1]
    resolution = h_probe_max / 4096.0
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if bad_at(mid):
            lo = mid
        else:
            hi = mid
    return hi


def _probe_thetas(theta_samples: int):
    return TWO_PI * np.arange(theta_samples) / theta_samples


def _probe_heights(origin: float, h_probe_max: float, grid: int) -> list[float]:
    """Uniform height grid plus geometric refinement toward the origin,
    so sign features much narrower than the uniform spacing still get
    sampled."""
    span = h_probe_max - origin
    heights = {origin + span * i / (grid - 1) for i in range(grid)}
    scale = span / 2.0
    while scale > POLE_GUARD:
        heights.add(origin + scale)
        scale /= 2.0
    return sorted(heights)


def sampled_curvature_range(
    model: SurfaceModel,
    h_probe_max: float,
    grid: int = 64,
    theta_samples: int = 16,
) -> tuple[float, float]:
    """(min, max) of Gaussian curvature over the detection grid."""
    thetas = _probe_thetas(theta_samples)
    kmin, kmax = math.inf, -math.inf
    for end in model.ends:
        lo = end.t_min + POLE_GUARD
        for t in _probe_heights(lo, h_probe_max, grid):
            k = gauss_curvature(end, t, thetas)
            kmin = min(kmin, float(np.min(k)))
            kmax = max(kmax, float(np.max(k)))
    return kmin, kmax


def total_curvature_direct(
    model: SurfaceModel, tol: Tolerance = DEFAULT_TOL
) -> ImproperResult:
    """Total curvature by direct improper integration over all ends."""
    if isinstance(model.core, PolarCap):
        end = model.ends[0]
        head, head_err = _pole_band(end, end.t_min + 1.0, tol)
        tail = integrate_improper(_curvature_density(end), end.t_min + 1.0, tol)
        return ImproperResult(
            value=head + tail.value,
            error_estimate=head_err + tail.error_estimate,
            evaluations=tail.evaluations,
            converged=tail.converged,
            divergence=tail.divergence,
            partial_sums=tail.partial_sums,
        )
    core: AnalyticCore = model.core
    total, err, evals = core.total_curvature, 0.0, 0
    divergence = None
    converged = True
    trace: tuple = ()
    for end in model.ends:
        res = integrate_improper(_curvature_density(end), end.t_min, tol)
        evals += res.evaluations
        if res.divergence is not None or not res.converged:
            divergence = divergence or res.divergence
            converged = False
            trace = trace or res.partial_sums
            continue
        total += res.value
        err += res.error_estimate
    return ImproperResult(
        value=total,
        error_estimate=err,
        evaluations=evals,
        converged=converged,
        divergence=divergence,
        partial_sums=trace,
    )


def measure_mu_prime_order(
    model: SurfaceModel, h0: float, step: float, tol: Tolerance = DEFAULT_TOL
):
    """Deviation of the central difference of mu from lambda at h0, for
    the given step and its half; returns (dev_step, dev_half, floor)."""
    lam0, el = _lambda_with_error(model, h0, tol)
    devs = []
    floor = 0.0
    for s in (step, 0.5 * step):
        hi, ehi = _mu_with_error(model, h0 + s, tol)
        lo, elo = _mu_with_error(model, h0 - s, tol)
        devs.append(abs((hi - lo) / (2.0 * s) - lam0))
        floor = max(floor, residual_bound(ehi + elo) / (2.0 * s) + residual_bound(el))
    return devs[0], devs[1], floor


def run_sweep(
    model: SurfaceModel,
    schedule: Sequence[float],
    tol: Tolerance = DEFAULT_TOL,
    workers: int | None = None,
) -> SweepReport:
    """Run the full truncation procedure over an increasing height schedule.

    Samples are computed one after another in schedule order.  ``workers``
    is accepted for compatibility and ignored: the sweep is
    single-threaded, and its results never depended on it.
    """
    schedule = list(schedule)
    if len(schedule) < 3:
        raise ValueError("schedule needs at least 3 heights")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing")
    validate_surface(model, samples_per_axis=16, strict=True)
    _require_height(model, schedule[0])

    samples = tuple(compute_sample(model, h, tol) for h in schedule)

    chi = model.chi
    verdicts: dict[str, Verdict] = {}

    # truncated closed-surface count at every height
    worst = max(samples, key=lambda s: s.gb_residual)
    gb_bound = residual_bound(worst.quad_error)
    gb_ok = all(s.gb_residual <= residual_bound(s.quad_error) for s in samples)
    verdicts["gauss-bonnet-truncated"] = Verdict(
        "pass" if gb_ok else "fail", worst.gb_residual, gb_bound
    )

    # lambda = mu' by refinement at a representative interior height
    h0 = _refinement_height(model, schedule)
    step = min(0.05, 0.125 * (h0 - model.min_height))
    dev_full, dev_half, floor = measure_mu_prime_order(model, h0, step, tol)
    lm_bound = max(floor, dev_full / 2.5)
    lm_ok = dev_half <= lm_bound
    order = math.log2(dev_full / dev_half) if dev_half > floor and dev_full > 0 else None
    verdicts["lambda-mu-prime"] = Verdict(
        "pass" if lm_ok else "fail",
        dev_half,
        lm_bound,
        f"h0={h0:g}, step={step:g}"
        + (f", measured order {order:.2f}" if order is not None else ", at noise floor"),
    )

    h1 = detect_h1(model, h_probe_max=schedule[-1])
    kmin, kmax = sampled_curvature_range(model, schedule[-1])

    tail_from = h1 if h1 is not None else schedule[max(0, len(schedule) // 2 - 1)]
    noise = residual_bound(max(s.quad_error for s in samples))
    tail_points = [(s.h, s.lam) for s in samples]

    limit: TailLimit | None = None
    monotone_note = ""
    increases = [
        (a.h, b.h, b.lam - a.lam)
        for a, b in zip(samples, samples[1:])
        if a.h > tail_from or b.h > tail_from
        if b.lam > a.lam + residual_bound(a.quad_error + b.quad_error)
    ]
    try:
        limit = estimate_tail_limit(tail_points, tail_from, noise)
    except NotMonotone as err:
        monotone_note = f"NotMonotone: {err}"
    except ValueError as err:
        monotone_note = f"limit not estimated: {err}"

    if not increases:
        verdicts["lambda-monotone"] = Verdict(
            "pass" if h1 is not None else "not-applicable",
            0.0,
            None,
            "" if h1 is not None else "no curvature-sign height found; decrease observed anyway",
        )
    else:
        worst_rise = max(inc for _, _, inc in increases)
        note = (
            f"NotMonotone: lambda rose by {worst_rise:.3e} across "
            f"{len(increases)} step(s)"
        )
        if h1 is None:
            note += "; hypothesis unmet, decrease not expected"
        verdicts["lambda-monotone"] = Verdict("fail", worst_rise, 0.0, note)

    if h1 is not None and limit is not None:
        ok = limit.value >= -limit.error_bound
        verdicts["L-nonneg"] = Verdict(
            "pass" if ok else "fail",
            limit.value,
            limit.error_bound,
            f"L = {limit.value:.6g}",
        )
    else:
        note = monotone_note or "hypothesis unmet"
        verdicts["L-nonneg"] = Verdict("not-applicable", None, None, note)

    direct = total_curvature_direct(model, tol)

    c_total: float | None
    if h1 is not None and limit is not None:
        c_total = TWO_PI * chi - limit.value
        c_err = limit.error_bound
        route = "limit"
        if direct.converged:
            resid = abs(c_total - direct.value)
            bound = residual_bound(c_err + direct.error_estimate)
            verdicts["c-total-consistency"] = Verdict(
                "pass" if resid <= bound else "fail", resid, bound
            )
        else:
            verdicts["c-total-consistency"] = Verdict(
                "not-applicable", None, None, "direct route did not converge"
            )
    elif direct.converged:
        c_total = direct.value
        c_err = direct.error_estimate
        route = "direct"
        verdicts["c-total-consistency"] = Verdict(
            "not-applicable", None, None, "limit route unavailable"
        )
    else:
        c_total = None
        c_err = math.inf
        route = "none"
        verdicts["c-total-consistency"] = Verdict(
            "not-applicable", None, None, "neither route converged"
        )

    divergence = direct.divergence if c_total is None else None

    if c_total is None:
        direction = divergence or "unknown"
        verdicts["theorem"] = Verdict(
            "not-applicable",
            None,
            None,
            f"total curvature does not converge (toward {direction})",
        )
    else:
        margin = TWO_PI * chi - c_total
        bound = residual_bound(c_err)
        if h1 is not None:
            verdicts["theorem"] = Verdict(
                "pass" if margin >= -bound else "fail",
                margin,
                bound,
                f"margin {margin:.6g}",
            )
        else:
            held = margin >= -bound
            verdicts["theorem"] = Verdict(
                "not-applicable",
                margin,
                bound,
                "hypothesis unmet; inequality "
                + ("observed to hold" if held else "violated numerically")
                + f" (margin {margin:.6g}), not certified",
            )

    origin = max(end.t_min for end in model.ends)
    grid_step = (schedule[-1] - origin) / 63.0
    if h1 is not None and h1 <= origin + grid_step and kmax > K_SLACK:
        verdicts["corollary"] = Verdict(
            "pass" if chi >= 1 else "fail",
            float(chi),
            1.0,
            f"K >= 0 sampled everywhere, max K = {kmax:.3g} > 0, chi = {chi}",
        )
    else:
        reason = (
            "curvature vanishes at every sample"
            if h1 is not None and kmax <= K_SLACK
            else "sampled curvature is not nonnegative from the bottom"
        )
        verdicts["corollary"] = Verdict("not-applicable", None, None, reason)

    return SweepReport(
        surface=model.name,
        chi=chi,
        samples=samples,
        h1=h1,
        limit=limit,
        c_total=c_total,
        divergence=divergence,
        c_total_route=route,
        verdicts=verdicts,
        kmin_sampled=kmin,
        kmax_sampled=kmax,
    )


def _refinement_height(model: SurfaceModel, schedule: Sequence[float]) -> float:
    """Interior height for the mu-derivative refinement check: the
    geometric middle of the schedule, clamped safely inside the chart."""
    lo, hi = schedule[0], schedule[-1]
    if lo > 0:
        mid = math.sqrt(lo * hi)
    else:
        mid = 0.5 * (lo + hi)
    return max(mid, model.min_height + 0.5)


def geometric_schedule(start: float, doublings: int = 10) -> list[float]:
    """Default height schedule: start + 2^k for k = 0..doublings."""
    return [start + 2.0**k for k in range(doublings + 1)]
