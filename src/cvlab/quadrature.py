"""Adaptive quadrature over boundary circles, end bands, and full ends.

All integrals run on panels carrying an embedded Gauss(7)/Kronrod(15)
rule pair; the panel error is the difference of the two rules.  One
worst-first driver, as in QUADPACK's QAG, refines circles and bands
alike: it keeps a heap of the live panels and splits the one with the
largest error (the older one on a tie) in two, until the summed error
estimate meets the tolerance.  It stops early, with ``converged=False``,
before a split whose two new panels would take the evaluation count past
``max_evaluations``; a budget below the cost of the starting panels is
refused with :class:`ValueError`.  A band whose integrand the caller
declares theta-free is ``2*pi`` times a 1-D integral in t.  Improper
integrals over ``[t_lo, inf)`` walk doubling windows and accelerate the
partial sums with a geometric tail model; divergence is detected and
reported as a first-class result, never as an exception.

Integrands are called once per panel on the whole node array (15
abscissae in 1-D, a 15 x 15 grid in 2-D, as in QUADPACK's vectorised
QK15), so they must be written with numpy functions.  A scalar result
is broadcast to the nodes' shape.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .jets import DomainError

TWO_PI = 2.0 * math.pi

# Gauss-Kronrod 15-point abscissae on [-1, 1]; odd indices are the
# embedded 7-point Gauss nodes.
_XGK = np.array(
    [
        -0.991455371120813,
        -0.949107912342759,
        -0.864864423359769,
        -0.741531185599394,
        -0.586087235467691,
        -0.405845151377397,
        -0.207784955007898,
        0.0,
        0.207784955007898,
        0.405845151377397,
        0.586087235467691,
        0.741531185599394,
        0.864864423359769,
        0.949107912342759,
        0.991455371120813,
    ]
)
_WGK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
        0.204432940075298,
        0.190350578064785,
        0.169004726639267,
        0.140653259715525,
        0.104790010322250,
        0.063092092629979,
        0.022935322010529,
    ]
)
_WG7 = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
        0.381830050505119,
        0.279705391489277,
        0.129484966168870,
    ]
)
_GAUSS_IDX = np.arange(1, 15, 2)


class NotMonotone(ValueError):
    """A sequence expected to be nonincreasing increased beyond its
    combined error bars."""


@dataclass(frozen=True)
class Tolerance:
    abs_tol: float = 1e-9
    rel_tol: float = 1e-8
    max_evaluations: int = 2_000_000

    def __post_init__(self):
        if not (0.0 < self.abs_tol < 1.0 and 0.0 < self.rel_tol < 1.0):
            raise ValueError("tolerances must lie in (0, 1)")
        if self.max_evaluations < 100:
            raise ValueError("max_evaluations must be at least 100")

    def target(self, value: float) -> float:
        return max(self.abs_tol, self.rel_tol * abs(value))


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    evaluations: int
    converged: bool


@dataclass(frozen=True)
class ImproperResult(QuadResult):
    """Result of an integral over ``[t_lo, inf)``.

    ``divergence`` is ``None`` when the tail settled, otherwise one of
    ``"+inf"``, ``"-inf"``, ``"oscillatory"``.  ``partial_sums`` traces
    ``(window_end, running_sum)`` so callers can report how the attempt
    evolved.
    """

    divergence: str | None = None
    partial_sums: tuple[tuple[float, float], ...] = field(default_factory=tuple)


class TailLimit(NamedTuple):
    value: float
    error_bound: float


def _panel_1d(f: Callable, a: float, b: float):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fv = np.empty(15)
    fv[...] = f(mid + half * _XGK)
    if not np.all(np.isfinite(fv)):
        raise DomainError(f"non-finite integrand value on [{a}, {b}]")
    kron = half * float(_WGK @ fv)
    gauss = half * float(_WG7 @ fv[_GAUSS_IDX])
    return kron, abs(kron - gauss), 15


def _adapt(panel: Callable, boxes, points: int, tol: Tolerance) -> QuadResult:
    """Worst-first adaptive refinement shared by every integral.

    ``panel(box)`` integrates one box with ``points`` evaluations and
    returns ``(value, error, children)``; the heap holds exactly the live
    panels, largest error first, ties broken by creation order.  The loop
    stops once the summed error meets the tolerance, or before a split
    whose two children would exceed ``tol.max_evaluations``.  A budget
    that cannot pay for the starting panels raises :class:`ValueError`.
    """
    if len(boxes) * points > tol.max_evaluations:
        raise ValueError(
            f"max_evaluations={tol.max_evaluations} cannot pay for the "
            f"{len(boxes) * points} evaluations of the starting panels"
        )
    heap: list = []
    evals = 0

    def push(box):
        nonlocal evals
        value, error, children = panel(box)
        evals += points  # grows with every panel: the creation-order tie-break
        heapq.heappush(heap, (-error, evals, value, children))

    for box in boxes:
        push(box)
    while True:
        value = math.fsum(item[2] for item in heap)
        error = math.fsum(-item[0] for item in heap)
        if error <= tol.target(value):
            return QuadResult(value, error, evals, True)
        if evals + 2 * points > tol.max_evaluations:
            return QuadResult(value, error, evals, False)
        for child in heapq.heappop(heap)[3]:
            push(child)


def _halving(f: Callable, scale: float = 1.0):
    """Panel for :func:`_adapt` over intervals ``(a, b)``: ``scale``
    times a 1-D panel of ``f``, split in half."""

    def panel(box):
        a, b = box
        value, error, _ = _panel_1d(f, a, b)
        mid = 0.5 * (a + b)
        return scale * value, scale * error, ((a, mid), (mid, b))

    return panel


def integrate_circle(f: Callable, tol: Tolerance = DEFAULT_TOL) -> QuadResult:
    """Integrate ``f(theta)`` over one full period ``[0, 2*pi]``."""
    return _adapt(_halving(f), ((0.0, math.pi), (math.pi, TWO_PI)), 15, tol)


def _panel_2d(f, box):
    """One tensor-product panel over ``box = (a, b, c, d)``, i.e.
    ``[a, b] x [c, d]`` in ``(t, theta)``, split in two along the axis of
    larger variation."""
    a, b, c, d = box
    half_t = 0.5 * (b - a)
    half_s = 0.5 * (d - c)
    tv = 0.5 * (a + b) + half_t * _XGK
    sv = 0.5 * (c + d) + half_s * _XGK
    grid = np.empty((15, 15))
    grid[...] = f(tv[:, None], sv[None, :])
    if not np.all(np.isfinite(grid)):
        raise DomainError(f"non-finite integrand value on [{a},{b}]x[{c},{d}]")
    kron = half_t * half_s * float(_WGK @ grid @ _WGK)
    sub = grid[np.ix_(_GAUSS_IDX, _GAUSS_IDX)]
    gauss = half_t * half_s * float(_WG7 @ sub @ _WG7)
    row_means = grid.mean(axis=1)
    col_means = grid.mean(axis=0)
    var_t = float(row_means.max() - row_means.min())
    var_s = float(col_means.max() - col_means.min())
    if var_t > var_s or (var_t == var_s and (b - a) >= (d - c)):
        mid = 0.5 * (a + b)
        children = ((a, mid, c, d), (mid, b, c, d))
    else:
        mid = 0.5 * (c + d)
        children = ((a, b, c, mid), (a, b, mid, d))
    return kron, abs(kron - gauss), children


def integrate_annulus(
    f: Callable,
    t_lo: float,
    t_hi: float,
    tol: Tolerance = DEFAULT_TOL,
    *,
    theta_free: bool = False,
) -> QuadResult:
    """Integrate ``f(t, theta)`` over the band ``[t_lo, t_hi] x [0, 2*pi]``.

    With ``theta_free`` the caller vouches that ``f`` does not depend on
    theta; the band is then ``2*pi`` times a 1-D integral of ``f(t, 0)``
    at 15 evaluations a panel instead of 225, on the t-panels that
    :func:`_panel_2d` splits such an integrand into.
    """
    if t_hi < t_lo:
        raise ValueError("t_hi must not be below t_lo")
    if t_hi == t_lo:
        return QuadResult(0.0, 0.0, 0, True)
    if theta_free:
        return _adapt(_halving(lambda t: f(t, 0.0), TWO_PI), ((t_lo, t_hi),), 15, tol)
    return _adapt(lambda box: _panel_2d(f, box), ((t_lo, t_hi, 0.0, TWO_PI),), 225, tol)


def _geometric_tail(increments: Sequence[float]):
    """Tail estimate from the last increments under a geometric model.

    Returns ``(tail, uncertainty)`` or ``None`` when the increments do
    not look geometric.
    """
    if len(increments) < 3:
        return None
    i0, i1, i2 = increments[-3], increments[-2], increments[-1]
    if i0 == 0.0 or i1 == 0.0:
        return None
    r1 = i1 / i0
    r2 = i2 / i1
    if not (0.0 < r2 < 0.98 and 0.0 < r1 < 0.98):
        return None
    tail = i2 * r2 / (1.0 - r2)
    uncertainty = abs(i2) * abs(r2 - r1) / (1.0 - r2) ** 2
    return tail, uncertainty


def integrate_improper(
    f: Callable,
    t_lo: float,
    tol: Tolerance = DEFAULT_TOL,
    initial_width: float = 1.0,
    max_windows: int = 64,
    *,
    theta_free: bool = False,
) -> ImproperResult:
    """Integrate ``f(t, theta)`` over ``[t_lo, inf) x [0, 2*pi]``.

    Walks windows ``[t_lo + 2^(k-1) w, t_lo + 2^k w]`` and stops once the
    remaining tail, estimated from the geometric decay of the window
    increments, falls below tolerance.  Growing same-sign increments are
    reported as ``+inf``/``-inf`` divergence, alternating growth as
    ``oscillatory``; both come back as results with ``converged=False``.
    ``theta_free`` is passed on to every window's :func:`integrate_annulus`.
    """
    window_tol = Tolerance(
        abs_tol=max(tol.abs_tol / 8.0, 1e-15),
        rel_tol=tol.rel_tol,
        max_evaluations=tol.max_evaluations,
    )
    edges = t_lo
    total = 0.0
    quad_err = 0.0
    evals = 0
    increments: list[float] = []
    densities: list[float] = []
    trace: list[tuple[float, float]] = []
    accel_prev: float | None = None

    for k in range(max_windows):
        upper = t_lo + initial_width * (2.0**k)
        try:
            part = integrate_annulus(f, edges, upper, window_tol, theta_free=theta_free)
        except (DomainError, OverflowError):
            direction = _divergence_direction(densities)
            if direction is not None:
                return ImproperResult(
                    total, quad_err, evals, False, direction, tuple(trace)
                )
            raise
        densities.append(part.value / (upper - edges))
        edges = upper
        evals += part.evaluations
        quad_err += part.error_estimate
        total += part.value
        increments.append(part.value)
        trace.append((upper, total))

        if abs(total) > 1e14:
            return ImproperResult(
                total,
                quad_err,
                evals,
                False,
                "+inf" if total > 0 else "-inf",
                tuple(trace),
            )
        direction = _divergence_direction(densities)
        if direction is not None:
            return ImproperResult(total, quad_err, evals, False, direction, tuple(trace))

        tail = _geometric_tail(increments)
        if tail is not None:
            tail_est, tail_unc = tail
            accel = total + tail_est
            drift = abs(accel - accel_prev) if accel_prev is not None else math.inf
            accel_prev = accel
            err = quad_err + tail_unc + drift
            if err <= tol.target(accel):
                return ImproperResult(accel, err, evals, True, None, tuple(trace))
        else:
            accel_prev = None
            if len(increments) >= 2:
                # both of the last two increments below tolerance
                last_two = max(abs(increments[-1]), abs(increments[-2]))
                err = quad_err + last_two
                if err <= tol.target(total):
                    return ImproperResult(total, err, evals, True, None, tuple(trace))
        if evals >= tol.max_evaluations:
            break

    tail = _geometric_tail(increments)
    value = total + tail[0] if tail is not None else total
    err = quad_err + (tail[1] if tail is not None else abs(increments[-1]) if increments else 0.0)
    return ImproperResult(value, err, evals, False, None, tuple(trace))


def _divergence_direction(densities: Sequence[float]) -> str | None:
    """Divergence signal from per-window mean integrand values.

    Densities (window increment over window width) of a convergent tail
    shrink; three consecutive strong growths mark divergence.  Using
    densities rather than raw increments keeps the doubling window
    widths from faking growth.
    """
    if len(densities) < 4:
        return None
    tail = densities[-4:]
    mags = [abs(x) for x in tail]
    growing = all(mags[i + 1] > mags[i] * 1.5 for i in range(3)) and mags[-1] > 1.0
    if not growing:
        return None
    signs = [math.copysign(1.0, x) for x in tail]
    if all(s > 0 for s in signs):
        return "+inf"
    if all(s < 0 for s in signs):
        return "-inf"
    return "oscillatory"


def _aitken_once(seq: Sequence[float], scale: float) -> list[float] | None:
    out = []
    for i in range(len(seq) - 2):
        d1 = seq[i + 1] - seq[i]
        d2 = seq[i + 2] - seq[i + 1]
        den = d2 - d1
        if not math.isfinite(den) or abs(den) < 1e-14 * scale:
            return None
        out.append(seq[i + 2] - d2 * d2 / den)
    return out


def estimate_tail_limit(
    samples: Sequence[tuple[float, float]],
    monotone_from: float,
    noise: float = 0.0,
) -> TailLimit:
    """Estimate the limit of a nonincreasing tail of ``(h, value)`` samples.

    Samples at or below ``monotone_from`` are ignored.  The tail must be
    nonincreasing within ``noise``; otherwise :class:`NotMonotone` is
    raised.  Iterated Aitken extrapolation sharpens the plain last-sample
    estimate while each sweep keeps improving its own internal agreement;
    the reported error bound is that agreement times a safety factor.
    It is a heuristic under the documented geometric-decay assumption,
    not a certificate.
    """
    tail = [v for h, v in sorted(samples) if h > monotone_from]
    if len(tail) < 3:
        raise ValueError("need at least 3 samples beyond monotone_from")
    slack = max(noise, 1e-12)
    for a, b in zip(tail, tail[1:]):
        if b > a + slack:
            raise NotMonotone(
                f"sequence increased by {b - a:.3e} (allowed slack {slack:.3e})"
            )

    last_diff = abs(tail[-1] - tail[-2])
    if last_diff <= slack:
        return TailLimit(tail[-1], max(last_diff, noise))

    scale = max(abs(x) for x in tail) or 1.0
    best_value = tail[-1]
    best_err = last_diff
    stage = list(tail)
    while len(stage) >= 3:
        nxt = _aitken_once(stage, scale)
        if nxt is None or len(nxt) < 2:
            break
        err = abs(nxt[-1] - nxt[-2])
        if err < best_err:
            best_value, best_err = nxt[-1], err
            stage = nxt
        else:
            break

    return TailLimit(best_value, max(3.0 * best_err, noise))
