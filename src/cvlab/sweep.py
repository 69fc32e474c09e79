"""Truncation sweep: boundary functionals, limit estimation, verdicts.

For a truncation height ``h`` the three computed quantities are

* ``mu(h)``      - total boundary length, sum over ends of the circle
                   integral of ``sqrt(G)``;
* ``lambda(h)``  - total boundary geodesic curvature, circle integral of
                   ``d/dt sqrt(G)``;
* ``c_trunc(h)`` - curvature integral over the truncated surface: core
                   term plus band integrals of ``K dA``.

``sweep_samples`` computes them over a height schedule; ``c_trunc`` is
additive in the bands ``[h_{i-1}, h_i]``, so each band is integrated
once and the values and error estimates are prefix-summed.  Each end's
first band starts at its ``t_min``, the pole ``t = 0`` on a polar cap:
``K dA = -d2 sqrt(G) dt dtheta`` has no division, and GK15 nodes never
touch a panel's ends.  The integrals of a sweep run in lockstep, one
batch per end, so each round costs one chart call per end and theta
level: the ``mu`` and ``lambda`` circles of every height and the five of
the ``lambda = mu'`` check are one :func:`integrate_circles` batch, each
round ``(J, 1)`` heights against the ``(1, M)`` new angles of the
rotated trapezoid pair, and the bands one :func:`integrate_bands` batch,
``(J, 15, 1)`` t-nodes against ``(1, 1, 2*n)`` angles per level ``n``.
Theta dependence is read from each answer of the chart, at every height
the sweep reaches: a circle slot or band density with no theta axis is
integrated as ``2*pi`` times its value, on the bands by a 1-D rule in t.
The improper windows of the direct route, where each step decides
whether to take the next, run in look-ahead chunks sized from the decay
of each end's last truncation bands (see
:func:`cvlab.quadrature._integrate_windows`).  A merged batch that
raises fails the sweep with its own error.  A chart object that stands
at several ends is measured once, keyed by object identity
(:func:`cvlab.model._per_chart`), which hands back one result per end.  Every sum of a sweep is one pass over those per-end results in
end order: a height's circles in :func:`_boundaries`, and the bands of
``c_trunc`` and the tails of the direct route in :func:`_running_sums`.
So every sum is that of measuring each end apart.
``run_sweep`` measures, then judges: :func:`_measure` puts into one
named tuple the samples, the ``lambda = mu'`` differences, ``h1`` (beyond
which sampled curvature stays nonnegative) and the sampled ``K`` range,
both read at the truncation's band nodes, whose spacing is relative to
the band width (:func:`_sign_height`), the extrapolated limit of
``lambda`` and the direct route (``c_trunc`` at the last height plus each
end's improper tail beyond it), and :func:`_report` reads only that
record to form the total curvature and every verdict.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .curvature import _jet_curvature, gauss_curvature
from .model import EndChart, PolarCap, SurfaceModel, _per_chart, validate_surface
from .quadrature import (
    _FLOOR,
    DEFAULT_TOL,
    ImproperResult,
    NotMonotone,
    QuadResult,
    TailLimit,
    Tolerance,
    _circles,
    _doublings,
    _integrate_windows,
    _is_column,
    _thetas,
    estimate_tail_limit,
    integrate_bands,
)

TWO_PI = 2.0 * math.pi

K_SLACK = 1e-10  # sampled curvature this far below zero still counts as >= 0
_REFINE_HEIGHTS = 64  # heights the h1 refinement may probe per distinct chart
_MU_PRIME_SLOTS = ("d1", "f", "f", "f", "f")  # lambda at h0, then mu at h0 +- step, +- step/2


class NonPositiveMu(ValueError):
    """Total boundary length came out nonpositive; the model is broken."""


class TruncationSample(NamedTuple):
    h: float
    mu: float
    lam: float
    c_trunc: float
    quad_error: float
    gb_residual: float


class Verdict(NamedTuple):
    status: str  # pass | fail | not-applicable
    residual: float | None = None
    bound: float | None = None
    note: str = ""


class SweepReport(NamedTuple):
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


def _boundaries(model: SurfaceModel, heights: Sequence[float], tol: Tolerance, slots):
    """Per-end sums of the circle integrals of one jet slot of sqrt(G):
    slot ``"f"`` gives mu, slot ``"d1"`` gives lambda.

    ``heights`` and ``slots`` pair up, and the circles of all pairs run
    as one :func:`cvlab.quadrature.integrate_circles` batch per end, so a
    chart that answers without a theta axis gives ``2*pi`` times its
    values with no quadrature error.  Each distinct chart is measured
    once and added at each of its positions, in end order.  Returns
    ``(values, errors)``; the first nonpositive mu in the given order
    raises :class:`NonPositiveMu`.
    """
    hs = np.array(heights, dtype=float)
    is_mu = np.array([slot == "f" for slot in slots])

    def circles(j, end):
        def slot_values(i, theta):
            w = end.sqrt_jet(hs[i], theta)
            return np.where(is_mu[i], w.f, w.d1)

        return _circles(slot_values, np.arange(hs.size), tol)

    totals = errors = [0.0] * hs.size  # never mutated: every sum below builds a new list
    for values, errs, _, _ in _per_chart(model.ends, circles):
        totals = [total + v for total, v in zip(totals, values)]
        errors = [error + e for error, e in zip(errors, errs)]
    for h, mu_slot, total in zip(heights, is_mu, totals):
        if mu_slot and total <= 0.0:
            raise NonPositiveMu(f"mu({h}) = {total} <= 0")
    return totals, errors


def _curvature_density(end: EndChart):
    # K * sqrt(G) = -d2 sqrt(G): no division, well behaved near a pole
    return lambda t, theta: -end.sqrt_jet(t, theta).d2


def _signed_density(end: EndChart, rows: list):
    """:func:`_curvature_density`, which also appends to ``rows`` the
    :func:`_k_rows` of ``K = -w''/w`` on the jet it evaluates, checked as
    :func:`cvlab.curvature.gauss_curvature` checks it."""

    def density(t, theta):
        w = end.sqrt_jet(t, theta)
        rows.append(_k_rows(t, _jet_curvature(w, t, theta)))
        return -w.d2

    return density


def _k_rows(t, k):
    """``(heights, least, largest)`` of the curvature ``k`` at the heights
    ``t[..., 0]``, against angles on the last axis: ``k`` reduced over
    that axis, or taken as it is when it has none
    (:func:`cvlab.quadrature._is_column`)."""
    t = t[..., 0]
    if _is_column(k):
        k = (k[..., 0],) * 2 if np.ndim(k) else (k, k)
    else:
        k = (k.min(axis=-1), k.max(axis=-1))
    if np.shape(k[0]) != t.shape:  # no axis of the heights
        k = [np.broadcast_to(x, t.shape) for x in k]
    return (t, *k)


def _running_sums(total: float, err: float, rows) -> list[tuple[float, float]]:
    """``(value, error)`` after each row of per-chart results, every
    row's values and error estimates added in end order onto ``(total,
    err)``: the one pass behind ``c_trunc`` and the direct route."""
    sums = []
    for row in rows:
        for res in row:
            total += res.value
            err += res.error_estimate
        sums.append((total, err))
    return sums


def sweep_samples(
    model: SurfaceModel, schedule: Sequence[float], tol: Tolerance = DEFAULT_TOL
) -> tuple[TruncationSample, ...]:
    """One sample per height of a strictly increasing schedule, on a
    validated model: the boundary circles of all heights run as one
    batch per end, and so do the curvature bands between consecutive
    heights."""
    validate_surface(model)
    _check_schedule(model, schedule)
    return _sweep_samples(model, schedule, tol)[0]


def _check_schedule(model: SurfaceModel, schedule: Sequence[float]) -> None:
    if not schedule:
        raise ValueError("schedule needs at least one height")
    if not all(math.isfinite(h) for h in schedule):
        raise ValueError("schedule heights must be finite")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing")
    if schedule[0] < model.min_height:
        raise ValueError(f"height {schedule[0]} lies below the chart edge {model.min_height}")
    if not math.isfinite(schedule[-1] - model.min_height):
        raise ValueError(
            f"span from the highest t_min {model.min_height} to the last height "
            f"{schedule[-1]} is not finite"
        )


def _sweep_samples(
    model: SurfaceModel, schedule: Sequence[float], tol: Tolerance, probes=()
):
    """``(samples, values, errors, bands, c_last, rows)`` on a checked
    schedule: :func:`sweep_samples`; the boundary values and errors at
    the extra ``(height, slot)`` ``probes``, which ride in the boundary
    batch; per end the :class:`QuadResult` of each band, up to a height
    from the one before or from ``t_min``, the pole on a polar cap;
    ``(c_trunc, error)`` at the last height; and per end the
    :func:`_k_rows` of every band node, read by :func:`_sign_height`.
    ``c_trunc`` sums the bands onto the core."""
    n = len(schedule)
    heights = [*schedule, *schedule, *(h for h, _ in probes)]
    slots = ("f",) * n + ("d1",) * n + tuple(slot for _, slot in probes)
    values, errors = _boundaries(model, heights, tol, slots)

    def truncation_bands(j, end):
        rows = []
        return integrate_bands(_signed_density(end, rows), [end.t_min, *schedule], tol), rows

    bands, rows = zip(*_per_chart(model.ends, truncation_bands))
    core = 0.0 if isinstance(model.core, PolarCap) else model.core.total_curvature
    curvatures = _running_sums(core, 0.0, zip(*bands))
    closed = TWO_PI * model.chi
    samples = []
    for i, h in enumerate(schedule):
        m, em = values[i], errors[i]
        l, el = values[n + i], errors[n + i]
        c, ec = curvatures[i]
        residual = abs(closed - c - l)
        samples.append(TruncationSample(h, m, l, c, em + el + ec, residual))
    return tuple(samples), values[2 * n :], errors[2 * n :], bands, curvatures[-1], rows


def _sign_height(model: SurfaceModel, h_max: float, rows):
    """``(h1, kmin, kmax)``: the smallest height beyond which sampled
    curvature stays ``>= -K_SLACK``, and the sampled ``K`` range, from
    each distinct chart's band-node ``rows`` at or above ``model.min_height``.
    ``h1`` is ``model.min_height`` when no node is bad, ``None`` when a
    chart's last node is, and else the highest :func:`_refine_h1` of the
    charts whose bracket, from the last bad node to the next node,
    reaches above every chart's last bad node."""
    origin = model.min_height

    def signs(j, end):
        # kmin, kmax, the last bad node (-inf: none) and the next node (inf: none)
        t, least, largest = (np.concatenate(column, axis=None) for column in zip(*rows[j]))
        if end.t_min < origin:  # only then can a node lie below origin
            read = t >= origin
            t, least, largest = t[read], least[read], largest[read]
        bad = t[least < -K_SLACK].max(initial=-math.inf)
        return least.min(), largest.max(), bad, t[t > bad].min(initial=math.inf)

    charts = _per_chart(model.ends, signs)
    kmin, kmax = float(min(c[0] for c in charts)), float(max(c[1] for c in charts))
    floor = max(c[2] for c in charts)
    if floor == -math.inf:
        return origin, kmin, kmax
    if any(after == math.inf for _, _, _, after in charts):
        return None, kmin, kmax
    # h_max alone is nonpositive for a last height at or below 0, and a
    # tiny share of a span that reaches far below 0
    scale = max(h_max, h_max - origin)

    def height(j, end):
        _, _, bad, after = charts[j]
        if bad == -math.inf or after <= floor:  # this chart cannot set h1
            return origin
        return _refine_h1(end, float(bad), float(after), scale)

    return max(_per_chart(model.ends, height)), kmin, kmax


def _refine_h1(end: EndChart, lo: float, hi: float, scale: float) -> float:
    """The top of the bracket ``(lo, hi]``, from a bad height to a good
    one, narrowed to ``scale / 4096``.  The bracket lies within ``scale``,
    so the fewest rounds ``r <= 3`` of ``n <= _REFINE_HEIGHTS // r``
    equispaced interior heights with ``(n + 1)**r`` past the bracket's
    ratio to that resolution reach it; each round is one
    :func:`_least_curvature` call, on a theta-free end too, and keeps the
    cell above the last bad height.  A GK15 node gap is at most 0.104 of
    its panel, so one round does on a band narrower than ``scale / 6.5``,
    and two on any band from the highest chart edge."""
    ratio = 4096.0 * (hi - lo) / scale
    rounds = next(r for r in (1, 2, 3) if (_REFINE_HEIGHTS // r + 1) ** r >= ratio)
    n = math.ceil(ratio ** (1.0 / rounds)) - 1
    for _ in range(rounds if n > 0 else 0):
        ts = lo + (hi - lo) * np.arange(1, n + 1) / (n + 1)
        bad = np.flatnonzero(_least_curvature(end, ts) < -K_SLACK)
        if bad.size:
            i = bad[-1]
            lo, hi = ts[i], ts[i + 1] if i + 1 < n else hi
        else:
            hi = ts[0]
    return float(hi)


def _least_curvature(end: EndChart, heights: np.ndarray) -> np.ndarray:
    """The least K at each height over the 16 angles of a band's first
    panel: one chart call, ``heights[:, None]`` against ``(1, 16)``
    angles."""
    t, theta = heights[:, None], _thetas(_FLOOR)[None, :]
    return _k_rows(t, gauss_curvature(end, t, theta))[1]


def _total_curvature_direct(model: SurfaceModel, schedule, bands, c_last, tol: Tolerance):
    """The direct route: ``c_last``, ``(c_trunc, error)`` at the last
    height ``h_max``, plus per end the integral of ``K dA`` on the windows
    ``t_min + (h_max - t_min)*2^k``, counting the evaluations of both.  An
    end whose last two bands each lie within ``tol.target(0)``, value
    plus error, is quiet: its tail is 0, with their sum as error.  The
    walk of any other end knows its bands, whose decay sizes its first
    look-ahead chunk.  A tail that does not converge
    adds only its evaluations; the first divergence and trace are reported.
    A chart's tail is integrated once and added at each of its positions;
    the evaluations count each distinct chart's bands and tail once, the
    work actually spent."""
    spent = []

    def tail(j, end):
        spent.extend(band.evaluations for band in bands[j])
        quiet = [abs(band.value) + band.error_estimate for band in bands[j][-2:]]
        if max(quiet) <= tol.target(0.0):
            return QuadResult(0.0, sum(quiet), 0, True)
        h_max, lows = schedule[-1], [end.t_min, *schedule]
        known = [(lo, hi, band.value, band.evaluations) for lo, hi, band in zip(lows, schedule, bands[j])]
        edges = [h_max, *_doublings(end.t_min, 2.0 * (h_max - end.t_min))]
        res = _integrate_windows(_curvature_density(end), edges, tol, known)
        spent.append(res.evaluations)
        return res

    tails = _per_chart(model.ends, tail)
    settled = [res for res in tails if res.converged]
    failed = [res for res in tails if not res.converged]
    total, err = _running_sums(*c_last, [settled])[-1]
    divergence = next(filter(None, (res.divergence for res in failed)), None)
    trace = next(filter(None, (res.partial_sums for res in failed)), ())
    return ImproperResult(total, err, sum(spent), not failed, divergence, trace)


def _mu_prime_heights(h0: float, step: float) -> list[float]:
    return [h0, h0 + step, h0 - step, h0 + 0.5 * step, h0 - 0.5 * step]


def _mu_prime_order(values, errors, step: float):
    """``(dev_step, dev_half, floor)``: the deviations from lambda at
    ``h0`` of the central differences of mu for ``step`` and its half,
    and their noise floor, from the values and errors at the
    :func:`_mu_prime_heights` in :data:`_MU_PRIME_SLOTS` order."""
    lam0, el = values[0], errors[0]
    devs = []
    floor = 0.0
    for k, s in enumerate((step, 0.5 * step)):
        hi, lo = values[1 + 2 * k], values[2 + 2 * k]
        ehi, elo = errors[1 + 2 * k], errors[2 + 2 * k]
        devs.append(abs((hi - lo) / (2.0 * s) - lam0))
        floor = max(floor, residual_bound(ehi + elo) / (2.0 * s) + residual_bound(el))
    return devs[0], devs[1], floor


def _mu_prime_point(model: SurfaceModel, schedule: Sequence[float]) -> tuple[float, float]:
    """``(h0, step)`` of the ``lambda = mu'`` check: the geometric middle
    of the schedule, clamped safely inside the chart, and a step of 0.05
    floored at ``h0 * eps**(1/3)``, so that ``h0 +- step/2`` still differ
    from ``h0`` at large heights."""
    lo, hi = schedule[0], schedule[-1]
    mid = math.sqrt(lo * hi) if lo > 0 else 0.5 * (lo + hi)
    if math.isinf(mid):  # lo * hi overflowed; the roots of each do not
        mid = math.sqrt(lo) * math.sqrt(hi)
    h0 = max(mid, model.min_height + 0.5)
    step = min(max(0.05, h0 * np.finfo(float).eps ** (1 / 3)), 0.125 * (h0 - model.min_height))
    return h0, step


class _Measured(NamedTuple):
    """Every quantity the verdicts of one sweep read, measured once."""
    samples: tuple[TruncationSample, ...]
    mu_prime: tuple[float, float, float, float, float]  # h0, step, dev_full, dev_half, floor
    h1: float | None
    kmin: float
    kmax: float
    tail_from: float
    limit: TailLimit | None
    limit_note: str
    direct: ImproperResult


def _measure(model: SurfaceModel, schedule: Sequence[float], tol: Tolerance) -> _Measured:
    """Run each measurement of a sweep once.  The five heights of
    the ``lambda = mu'`` check ride in the samples' boundary batch, ``h1``
    and the sampled ``K`` range are read from the truncation's band nodes,
    and the direct route continues those bands beyond the last height."""
    _check_schedule(model, schedule)
    h0, step = _mu_prime_point(model, schedule)
    probes = tuple(zip(_mu_prime_heights(h0, step), _MU_PRIME_SLOTS))
    samples, values, errors, bands, c_last, rows = _sweep_samples(model, schedule, tol, probes)
    mu_prime = (h0, step, *_mu_prime_order(values, errors, step))
    h1, kmin, kmax = _sign_height(model, schedule[-1], rows)
    tail_from = h1 if h1 is not None else schedule[len(schedule) // 2 - 1]
    limit, limit_note = _tail_limit(samples, tail_from)
    direct = _total_curvature_direct(model, schedule, bands, c_last, tol)
    return _Measured(samples, mu_prime, h1, kmin, kmax, tail_from, limit, limit_note, direct)


def run_sweep(
    model: SurfaceModel,
    schedule: Sequence[float],
    tol: Tolerance = DEFAULT_TOL,
) -> SweepReport:
    """Run the full truncation procedure over an increasing height schedule:
    check the schedule and the model, measure everything the verdicts read
    once (:func:`_measure`), then judge those numbers alone
    (:func:`_report`)."""
    schedule = [float(h) for h in schedule]
    if len(schedule) < 3:
        raise ValueError("schedule needs at least 3 heights")
    validate_surface(model)
    return _report(model, _measure(model, schedule, tol))


def _report(model: SurfaceModel, m: _Measured) -> SweepReport:
    """The report and one verdict per check, formed from ``m`` alone."""
    # the limit is reported either way, but only h1 certifies it
    certified = m.limit if m.h1 is not None else None
    c_total, c_err, route, consistency = _total_curvature(model.chi, certified, m.direct)
    divergence = m.direct.divergence if c_total is None else None
    return SweepReport(
        surface=model.name,
        chi=model.chi,
        samples=m.samples,
        h1=m.h1,
        limit=m.limit,
        c_total=c_total,
        divergence=divergence,
        c_total_route=route,
        verdicts={
            "gauss-bonnet-truncated": _gauss_bonnet_verdict(m.samples),
            "lambda-mu-prime": _mu_prime_verdict(*m.mu_prime),
            "lambda-monotone": _monotone_verdict(m.samples, m.tail_from, m.h1),
            "L-nonneg": _limit_verdict(certified, m.limit_note),
            "c-total-consistency": consistency,
            "theorem": _theorem_verdict(model.chi, c_total, c_err, m.h1, divergence),
            "corollary": _corollary_verdict(model, m.kmin, m.kmax),
        },
        kmin_sampled=m.kmin,
        kmax_sampled=m.kmax,
    )


def _gauss_bonnet_verdict(samples) -> Verdict:
    """The truncated closed-surface count at every height."""
    worst = max(samples, key=lambda s: s.gb_residual)
    ok = all(s.gb_residual <= residual_bound(s.quad_error) for s in samples)
    return Verdict("pass" if ok else "fail", worst.gb_residual, residual_bound(worst.quad_error))


def _mu_prime_verdict(h0, step, dev_full, dev_half, floor) -> Verdict:
    """``lambda = mu'`` by step halving at ``h0``: halving the step must
    cut the deviation from lambda 2.5-fold or leave it within the floor."""
    bound = max(floor, dev_full / 2.5)
    order = math.log2(dev_full / dev_half) if dev_half > floor and dev_full > 0 else None
    note = f"h0={h0:g}, step={step:g}" + (
        f", measured order {order:.2f}" if order is not None else ", at noise floor"
    )
    return Verdict("pass" if dev_half <= bound else "fail", dev_half, bound, note)


def _tail_limit(samples, tail_from: float) -> tuple[TailLimit | None, str]:
    """The extrapolated limit of lambda beyond ``tail_from``, or ``None``
    and why it was not estimated."""
    noise = residual_bound(max(s.quad_error for s in samples))
    try:
        return estimate_tail_limit([(s.h, s.lam) for s in samples], tail_from, noise), ""
    except NotMonotone as err:
        return None, f"NotMonotone: {err}"
    except ValueError as err:
        return None, f"limit not estimated: {err}"


def _monotone_verdict(samples, tail_from: float, h1: float | None) -> Verdict:
    """No step from ``tail_from`` on raises lambda past its error bars: a
    step that straddles ``tail_from`` is not judged, as
    :func:`cvlab.quadrature.estimate_tail_limit` reads no sample below it."""
    increases = [
        b.lam - a.lam
        for a, b in zip(samples, samples[1:])
        if a.h >= tail_from
        if b.lam > a.lam + residual_bound(a.quad_error + b.quad_error)
    ]
    if not increases:
        if h1 is not None:
            return Verdict("pass", 0.0)
        note = "no curvature-sign height found; decrease observed anyway"
        return Verdict("not-applicable", 0.0, None, note)
    rise = max(increases)
    note = f"NotMonotone: lambda rose by {rise:.3e} across {len(increases)} step(s)"
    if h1 is None:
        note += "; hypothesis unmet, decrease not expected"
    return Verdict("fail", rise, 0.0, note)


def _limit_verdict(limit: TailLimit | None, note: str) -> Verdict:
    """``L >= 0`` on a certified limit; ``note`` says why one is missing."""
    if limit is None:
        return Verdict("not-applicable", None, None, note or "hypothesis unmet")
    status = "pass" if limit.value >= -limit.error_bound else "fail"
    return Verdict(status, limit.value, limit.error_bound, f"L = {limit.value:.6g}")


def _total_curvature(chi: int, limit: TailLimit | None, direct: ImproperResult):
    """``(c_total, error, route, c-total-consistency verdict)``: ``2*pi*chi
    - L`` on a certified limit, checked against the direct integral, else
    the direct integral alone, else ``None``."""
    if limit is None:
        if direct.converged:
            unavailable = Verdict("not-applicable", None, None, "limit route unavailable")
            return direct.value, direct.error_estimate, "direct", unavailable
        neither = Verdict("not-applicable", None, None, "neither route converged")
        return None, math.inf, "none", neither
    c_total = TWO_PI * chi - limit.value
    if not direct.converged:
        unchecked = Verdict("not-applicable", None, None, "direct route did not converge")
        return c_total, limit.error_bound, "limit", unchecked
    resid = abs(c_total - direct.value)
    bound = residual_bound(limit.error_bound + direct.error_estimate)
    checked = Verdict("pass" if resid <= bound else "fail", resid, bound)
    return c_total, limit.error_bound, "limit", checked


def _theorem_verdict(
    chi: int, c_total: float | None, c_err: float, h1: float | None, divergence: str | None
) -> Verdict:
    """``2*pi*chi >= c_total``, certified only when h1 was found."""
    if c_total is None:
        note = f"total curvature does not converge (toward {divergence or 'unknown'})"
        return Verdict("not-applicable", None, None, note)
    margin = TWO_PI * chi - c_total
    bound = residual_bound(c_err)
    held = margin >= -bound
    if h1 is not None:
        return Verdict("pass" if held else "fail", margin, bound, f"margin {margin:.6g}")
    seen = "observed to hold" if held else "violated numerically"
    note = f"hypothesis unmet; inequality {seen} (margin {margin:.6g}), not certified"
    return Verdict("not-applicable", margin, bound, note)


def _corollary_verdict(model: SurfaceModel, kmin: float, kmax: float) -> Verdict:
    """``chi >= 1`` when ``K >= 0`` everywhere and somewhere ``K > 0``.

    The premise is read from the sampled range on the band nodes: every
    sample ``K >= -K_SLACK`` and some ``K > K_SLACK``.  It is sampled only when
    the ends cover the whole surface, that is on a polar cap; an analytic
    core is a number, never probed.
    """
    if not isinstance(model.core, PolarCap):
        note = "analytic core is never sampled, so K >= 0 on all of Sigma is unchecked"
        return Verdict("not-applicable", None, None, note)
    if kmin < -K_SLACK:
        note = "sampled curvature is not nonnegative from the bottom"
        return Verdict("not-applicable", None, None, note)
    if kmax <= K_SLACK:
        return Verdict("not-applicable", None, None, "curvature vanishes at every sample")
    note = f"K >= 0 sampled everywhere, max K = {kmax:.3g} > 0, chi = {model.chi}"
    return Verdict("pass" if model.chi >= 1 else "fail", float(model.chi), 1.0, note)


def geometric_schedule(start: float, doublings: int = 10) -> list[float]:
    """Default height schedule: start + 2^k for k = 0..doublings."""
    return [start + 2.0**k for k in range(doublings + 1)]
