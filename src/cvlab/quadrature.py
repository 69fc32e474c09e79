"""Quadrature over boundary circles, end bands, and full ends.

Every theta integral runs one rule: the equispaced trapezoid mean ``T_N``
on ``[0, 2*pi)``, valued ``2*pi*T_N``, with the same rule rotated by
``_SHIFT`` as its error partner, ``2*pi*|T_N - T_N^rot|``.  Both start at
``_FLOOR`` points and double by their midpoints.  On smooth periodic
integrands it converges geometrically (Trefethen and Weideman, SIAM
Review 56(3), 2014); a frequency that aliases onto ``T_N`` moves the
rotated rule, save at phases where both read the same value.
:func:`integrate_circles` runs it alone.  :func:`integrate_bands` runs one
worst-first driver in t, as in QUADPACK's QAG, over band panels: a
t-interval at a theta level, valued ``2*pi`` times Gauss(7)/Kronrod(15)
in t of the theta mean.  Theta dependence is read from each answer: an
answer with no theta axis (0-d, or a last axis of length 1) is its own
theta mean, so a circle is ``2*pi`` times it and a band panel ``2*pi``
times GK15 of it.  Either runs K integrals in lockstep, one integrand
call per round (per theta level for bands), each result that of a lone
run, and stops with ``converged=False`` before a refinement that would
pass ``max_evaluations``.  The direct route's improper integrals over
``[h_max, inf)`` walk doubling windows in look-ahead chunks, one band
batch each (:func:`_integrate_windows`), each chunk as long as a decay
law fitted to the last two increments the walk knows predicts it reads
(:func:`_decay_law`), and accelerate the partial sums with a geometric
tail model; divergence is a first-class result, never an exception.
Integrands must be written with numpy functions; a scalar result is
broadcast to the nodes' shape, and a non-finite value anywhere fails
the whole call with :class:`DomainError`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .jets import DomainError

TWO_PI = 2.0 * math.pi

# The Gauss-Kronrod 15-point rule on [-1, 1] is symmetric about 0: its
# abscissae from the center out, then its weights and the embedded 7-point
# Gauss weights, whose nodes are the odd indices of the full rule.
_X_RIGHT = (0.207784955007898, 0.405845151377397, 0.586087235467691, 0.741531185599394,
            0.864864423359769, 0.949107912342759, 0.991455371120813)
_XGK = np.array([*(-x for x in reversed(_X_RIGHT)), 0.0, *_X_RIGHT])
_WGK_RIGHT = (0.204432940075298, 0.190350578064785, 0.169004726639267, 0.140653259715525,
              0.104790010322250, 0.063092092629979, 0.022935322010529)
_WGK = np.array([*reversed(_WGK_RIGHT), 0.209482141084728, *_WGK_RIGHT])
_WG7_RIGHT = (0.381830050505119, 0.279705391489277, 0.129484966168870)
_WG7 = np.array([*reversed(_WG7_RIGHT), 0.417959183673469, *_WG7_RIGHT])


_WGK_COLUMN, _WG7_COLUMN = _WGK[:, None], _WG7[:, None]  # the stacked products' right operands


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


class QuadResult(NamedTuple):
    value: float
    error_estimate: float
    evaluations: int
    converged: bool


class ImproperResult(NamedTuple):
    """Result of an integral over ``[t_lo, inf)``: :class:`QuadResult`'s
    four fields, in the same order, then two more.

    ``divergence`` is ``None`` when the tail settled, otherwise one of
    ``"+inf"``, ``"-inf"``, ``"oscillatory"``.  ``partial_sums`` traces
    ``(window_end, running_sum)`` so callers can report how the attempt
    evolved.
    """

    value: float
    error_estimate: float
    evaluations: int
    converged: bool
    divergence: str | None = None
    partial_sums: tuple[tuple[float, float], ...] = ()


class TailLimit(NamedTuple):
    value: float
    error_bound: float


_FLOOR = 8  # points of each theta rule in a circle's first round and a band's first panel
_SHIFT = 0.6180339887 * TWO_PI / _FLOOR  # the rotated rule's offset: an irrational share of a step


@lru_cache(maxsize=None)
def _thetas(n: int) -> np.ndarray:
    """The ``n``-point rule on ``[0, 2*pi)``, then it rotated by ``_SHIFT``;
    the odd nodes of each half of ``_thetas(2*n)`` are its midpoints."""
    base = TWO_PI * np.arange(n) / n
    angles = np.concatenate([base, base + _SHIFT])
    angles.flags.writeable = False  # cached: every caller shares it
    return angles


def _is_column(answer) -> bool:
    """Whether an integrand's answer has no theta axis: 0-d, or a last
    axis of length 1.  Such an answer is its own theta mean."""
    return np.shape(answer)[-1:] in ((), (1,))


def _require_finite(values: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    if np.isfinite(values).all():
        return
    i = int(np.argmin(np.isfinite(values).reshape(len(values), -1).all(axis=1)))
    raise DomainError(f"non-finite integrand value on panel {(a[i].item(), b[i].item())}")


def _gk15(half: np.ndarray, fv: np.ndarray):
    """Kronrod and Gauss values of the ``(J, 15)`` rows ``fv`` on panels of
    half-widths ``half``, as stacked products: bitwise a lone panel's."""
    kron = half * (fv[:, None, :] @ _WGK_COLUMN)[:, 0, 0]
    sub = np.ascontiguousarray(fv[:, 1::2])
    gauss = half * (sub[:, None, :] @ _WG7_COLUMN)[:, 0, 0]
    return kron, gauss


def _band_level(f: Callable, a: np.ndarray, b: np.ndarray, n: int):
    """:func:`_band_panels` at the one theta level ``n``: value, error,
    evaluations per panel and the split list."""
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    answer = f((mid[:, None] + half[:, None] * _XGK)[:, :, None], _thetas(n)[None, None, :])
    shape = np.shape(answer)
    if shape[-1:] in ((), (1,)):  # _is_column, on the shape already read
        plain = np.empty((a.size, 15))
        plain[...] = answer[..., 0] if shape else answer
        _require_finite(plain, a, b)
        kron, gauss = _gk15(half, plain)
        return TWO_PI * kron, TWO_PI * np.abs(kron - gauss), 15, [True] * a.size
    grids = np.empty((a.size, 15, 2 * n))
    grids[...] = answer
    _require_finite(grids, a, b)
    means = grids.reshape(a.size, 15, 2, n).sum(axis=3) / n
    plain = np.ascontiguousarray(means[:, :, 0])
    drift = np.abs(plain - means[:, :, 1])
    kron, gauss = _gk15(half, plain)
    theta_err = TWO_PI * half * (drift[:, None, :] @ _WGK_COLUMN)[:, 0, 0]
    t_err = TWO_PI * np.abs(kron - gauss)
    return TWO_PI * kron, t_err + theta_err, 30 * n, (t_err >= theta_err).tolist()


def _band_panels(f: Callable, a: np.ndarray, b: np.ndarray, levels):
    """Band panels over ``[a, b]`` at the theta ``levels``, in the panel
    protocol of :func:`_adapt_many`: one call ``f(t, theta)`` per level
    ``n``, in the order the levels first appear, on the ``(J, 15, 1)``
    t-nodes of that level's panels and the ``(1, 1, 2*n)`` angles of
    :func:`_thetas`.  Returns per panel ``2*pi`` times the Kronrod value
    of the theta mean; the Kronrod-Gauss difference plus the Kronrod
    integral of ``|T_n - T_n^rot|``; ``30*n`` evaluations; and a split in
    t when the t part of the error is the larger or equal, else a
    doubling of the level.  A column answer (:func:`_is_column`) is its
    own theta mean: 15 evaluations, no theta error, a split in t."""
    if levels.count(levels[0]) == len(levels):  # one level: no masks
        value, error, cost, split = _band_level(f, a, b, levels[0])
        return value, error, [cost] * a.size, split
    value, error, split = np.empty(a.size), np.empty(a.size), np.empty(a.size, bool)
    costs = {}
    at = np.array(levels)
    for n in dict.fromkeys(levels):
        rows = at == n
        value[rows], error[rows], costs[n], split[rows] = _band_level(f, a[rows], b[rows], n)
    return value, error, [costs[n] for n in levels], split.tolist()


def _children(a: float, b: float, n: int, split: bool) -> tuple:
    """The boxes that refine the box ``(a, b, n)``: its t-halves, or with
    ``split`` false the same interval at theta level ``2*n``."""
    if split:
        m = 0.5 * (a + b)
        return ((a, m, n), (m, b, n))
    return ((a, b, 2 * n),)


def _adapt_many(f: Callable, lo: np.ndarray, hi: np.ndarray, tol: Tolerance, decided):
    """Worst-first adaptive refinement of several band integrals in lockstep.

    Integral ``k`` starts as the box ``(lo[k], hi[k], _FLOOR)``, an
    interval in t at a theta level, and each round's boxes are one
    :func:`_band_panels` call; refining a box gives its :func:`_children`,
    which cost twice the panel.  Each integral stops once its summed error
    meets the tolerance, or unconverged once its ``|value| - error``
    passes ``decided[k]`` (when ``decided`` is given) or before children
    that would take it past ``tol.max_evaluations``.  The first round
    scores every integral's one panel from the arrays at once, and only an
    integral that goes on gets a heap, largest error first, ties broken
    by creation order, whose values and errors each round are two
    :func:`math.fsum` sums, over one panel after a theta doubling too.
    The children of every integral still running go to one call, so each
    result is that of a lone run.
    """
    abs_tol, rel_tol, budget = tol.abs_tol, tol.rel_tol, tol.max_evaluations
    if not lo.size:
        return []
    value, error, evals, split = _band_panels(f, lo, hi, [_FLOOR] * lo.size)
    settled = error <= np.maximum(rel_tol * np.abs(value), abs_tol)  # tol.target(value)
    # value + 0.0 is what fsum returns for one term: fsum([-0.0]) is 0.0
    values, errors, settled = (value + 0.0).tolist(), error.tolist(), settled.tolist()
    results = list(map(QuadResult, values, errors, evals, settled))
    if all(settled):
        return results
    limits = [math.inf] * lo.size if decided is None else decided
    live = [
        k
        for k, done in enumerate(settled)
        if not (done or abs(values[k]) - errors[k] > limits[k] or 3 * evals[k] > budget)
    ]
    heaps = {k: [] for k in live}
    jobs = [
        (k, box) for k in live for box in _children(lo[k].item(), hi[k].item(), _FLOOR, split[k])
    ]
    while jobs:
        a, b, levels = zip(*(box for _, box in jobs))
        value, error, cost, split = _band_panels(f, np.array(a), np.array(b), levels)
        rows = zip(jobs, value.tolist(), error.tolist(), cost, split)
        for (k, box), v, e, c, s in rows:
            evals[k] += c  # grows with every panel: the creation-order tie-break
            heapq.heappush(heaps[k], (-e, evals[k], v, c, *box, s))
        jobs, running = [], []
        for k in live:
            heap = heaps[k]
            v = math.fsum([item[2] for item in heap])
            e = math.fsum([-item[0] for item in heap])
            target = rel_tol * abs(v)
            if e <= (target if target > abs_tol else abs_tol):
                results[k] = QuadResult(v, e, evals[k], True)
            elif abs(v) - e > limits[k] or evals[k] + 2 * heap[0][3] > budget:
                results[k] = QuadResult(v, e, evals[k], False)
            else:
                _, _, _, _, a, b, n, s = heapq.heappop(heap)
                jobs += [(k, child) for child in _children(a, b, n, s)]
                running.append(k)
        live = running
    return results


def _require_finite_circles(values: np.ndarray, params: np.ndarray) -> None:
    if not np.isfinite(values).all():
        bad = params[int(np.argmin(np.isfinite(values).all(axis=1)))]
        raise DomainError(f"non-finite integrand value on the circle of parameter {bad}")


def _circles(f: Callable, params, tol: Tolerance):
    """:func:`integrate_circles` as the four lists ``(values, errors,
    evaluations, converged)``, one entry per circle."""
    params = np.asarray(params)
    count = len(params)
    if not count:
        return [], [], [], []
    n, theta = _FLOOR, _thetas(_FLOOR)
    answer = f(params[:, None], theta[None, :])
    if _is_column(answer):
        column = np.empty((count, 1))
        column[...] = answer
        _require_finite_circles(column, params)
        with np.errstate(over="ignore"):  # 2*pi*f past double range is inf
            values = (TWO_PI * column[:, 0]).tolist()
        return values, [0.0] * count, [1] * count, [True] * count
    values, errors, evals, converged = ([None] * count for _ in range(4))
    sums = np.zeros((count, 2))  # running sums of each rule's values
    live = list(range(count))
    while live:
        fv = np.empty((len(live), theta.size))
        fv[...] = answer
        _require_finite_circles(fv, params[live])
        sums[live] += fv.reshape(len(live), 2, -1).sum(axis=2)
        plain, rotated = sums[live].T
        round_values = (TWO_PI * plain / n).tolist()
        round_errors = (TWO_PI * np.abs(plain - rotated) / n).tolist()
        running = []
        for k, value, error in zip(live, round_values, round_errors):
            done = error <= tol.target(value)
            if done or 4 * n > tol.max_evaluations:  # a doubling costs 2*n more
                values[k], errors[k], evals[k], converged[k] = value, error, 2 * n, done
            else:
                running.append(k)
        live, n, theta = running, 2 * n, _thetas(2 * n)[1::2]
        if live:
            answer = f(params[live][:, None], theta[None, :])
    return values, errors, evals, converged


def integrate_circles(f: Callable, params, tol: Tolerance = DEFAULT_TOL) -> list[QuadResult]:
    """Integrate ``f(p, theta)`` over ``[0, 2*pi]`` for every ``p`` in
    ``params``, all in lockstep, by the rotated trapezoid pair.

    Each round ``f`` is called once, on the ``(J, 1)`` parameters of the J
    circles still running and the ``(1, M)`` new angles: both floor rules,
    then the midpoints of both.  A circle at level ``n`` has spent ``2*n``
    evaluations; it stops once its error meets the tolerance, or
    unconverged before a doubling would pass ``tol.max_evaluations``.
    A first answer with no theta axis (0-d, or a last axis of length 1)
    does not depend on theta: each circle is then ``2*pi`` times it, with
    no error, at one evaluation, and ``inf`` past double range.  Every
    result equals that of a K = 1 call on its ``p`` alone.
    """
    return list(map(QuadResult, *_circles(f, params, tol)))


def _bands(f: Callable, edges: Sequence[float], tol: Tolerance, decided=None) -> list[QuadResult]:
    """:func:`integrate_bands` without its budget refusal; ``decided``
    gives one magnitude per band: a band whose ``|value| - error`` passes
    it stops refining, unconverged."""
    edges = [float(e) for e in edges]
    if any(map(math.isnan, edges)):
        raise ValueError("band edges must not be NaN")
    if edges != sorted(edges):
        raise ValueError("t_hi must not be below t_lo")
    if any(map(math.isinf, edges)):
        for band in zip(edges, edges[1:]):
            if math.isinf(band[0]) or math.isinf(band[1]):
                raise DomainError(f"infinite edge on band {band}")
    if decided is not None and len(decided) != len(edges) - 1:
        raise ValueError("decided needs one magnitude per band")
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    wide = hi > lo
    if wide.all():
        return _adapt_many(f, lo, hi, tol, decided)
    if decided is not None:
        decided = [d for d, w in zip(decided, wide.tolist()) if w]
    found = iter(_adapt_many(f, lo[wide], hi[wide], tol, decided))
    return [next(found) if w else QuadResult(0.0, 0.0, 0, True) for w in wide.tolist()]


def integrate_bands(
    f: Callable, edges: Sequence[float], tol: Tolerance = DEFAULT_TOL
) -> list[QuadResult]:
    """Integrate ``f(t, theta)`` over every band ``[edges[i], edges[i+1]] x
    [0, 2*pi]``, all in lockstep.

    Each band starts as one panel at level ``_FLOOR``, and each round
    ``f`` is called once per level (:func:`_band_panels`); an answer with
    no theta axis makes that level's panels 1-D rules in t.  A budget
    below a starting panel that the integrand's answer asks for (240
    evaluations on a 2-D answer) is refused with :class:`ValueError`
    once it has answered.  A band of zero width is 0 without an
    evaluation; a NaN edge is refused with :class:`ValueError`, and a
    band with an infinite edge with :class:`DomainError` before anything
    is evaluated.  Every result equals that of a K = 1 call on its band
    alone.
    """
    results = _bands(f, edges, tol)
    # the driver stops before any refinement past the budget, so only a
    # starting panel can pass it
    cost = max([res.evaluations for res in results], default=0)
    if cost > tol.max_evaluations:
        raise ValueError(
            f"max_evaluations={tol.max_evaluations} cannot pay for the "
            f"{cost} evaluations of the starting panels"
        )
    return results


_FIRST_WINDOWS = 2  # the shortest improper walk that can stop
_TIGHT_WINDOWS = 4  # the longest chunk a budget that pays for fewer windows still gets
_MAX_WINDOWS = 64  # improper windows before the walk gives up unconverged
_DIVERGED = 1e14  # |running sum| past which the improper walk reports divergence


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


def _doublings(origin: float, width: float) -> list[float]:
    """``origin + width*2^k`` for k < ``_MAX_WINDOWS``: window edges whose
    distance from ``origin`` doubles at each step."""
    return [origin + width * 2.0**k for k in range(_MAX_WINDOWS)]


def _law_integral(alpha: float, g: float, u: float, v: float) -> float:
    """The integral of ``exp(alpha + g*x)`` over ``x`` in ``[u, v]``;
    :class:`OverflowError` past double range."""
    if g == 0.0:
        return math.exp(alpha) * (v - u)
    return math.exp(alpha + g * u) * math.expm1(g * (v - u)) / g


def _decay_law(known: Sequence[tuple], origin: float):
    """The decay law of the last two ``known`` increments ``(lo, hi,
    value, evaluations)``: ``(x, alpha, g, sign)``, an increment over a
    window ``(lo, hi)`` being ``sign`` times the integral of ``exp(alpha
    + g*x)`` over ``x`` from ``x(lo)`` to ``x(hi)``, with the sign of the
    last; ``None`` unless the last two are nonzero.

    Each increment is read as its mean magnitude per unit of ``x`` at the
    middle of ``(x(lo), x(hi))``, and the law is the density through the
    last two that is exponential in ``x``: with ``x = t`` an exponential
    decay, with ``x = log(t - origin)`` a power of ``t - origin``.  Of
    the two, the one that comes closer to the increment before them, in
    log ratio, is taken; with only two known, the exponential."""
    last = [(lo, hi, abs(value)) for lo, hi, value, _ in known[-3:]]
    if len(last) < 2 or not (last[-1][2] and last[-2][2]):
        return None
    best = None
    for x in (lambda t: t, lambda t: math.log(t - origin)):
        try:
            (x0, y0), (x1, y1) = [
                (0.5 * (x(lo) + x(hi)), math.log(size / (x(hi) - x(lo)))) for lo, hi, size in last[-2:]
            ]
            g = (y1 - y0) / (x1 - x0)
            alpha = y1 - g * x1
            lo, hi, size = last[0]
            miss = abs(math.log(_law_integral(alpha, g, x(lo), x(hi)) / size)) if len(last) == 3 else 0.0
        except (ArithmeticError, ValueError):  # a zero width, a log of 0 or less, past range
            continue
        if best is None or miss < best[0]:
            best = (miss, x, alpha, g)
    if best is None:
        return None
    return (*best[1:], math.copysign(1.0, known[-1][2]))


def _predicted_windows(law: tuple, edges: Sequence[float], total: float, tol: Tolerance) -> int:
    """How many of the windows between ``edges`` the walk reads, on the
    increments the :func:`_decay_law` ``law`` predicts, from the running
    sum ``total``: up to the second of two in a row below tolerance, or
    the first that takes the sum past ``_DIVERGED``."""
    x, alpha, g, sign = law
    below, u = 0, x(edges[0])
    for k, hi in enumerate(edges[1:], start=1):
        v = x(hi)
        try:
            step = _law_integral(alpha, g, u, v)
        except OverflowError:
            return k
        total += sign * step
        if abs(total) > _DIVERGED:
            return k
        below = below + 1 if step <= tol.target(total) else 0
        if below == 2:
            return k
        u = v
    return len(edges) - 1


def _chunk_windows(known: Sequence[tuple], edges: Sequence[float], start: int, total: float,
                   tol: Tolerance, left: int) -> int:
    """The windows of the next look-ahead chunk, from ``edges[start]``:
    as many as the walk reads on the increments that the
    :func:`_decay_law` of ``known`` predicts, with the doubling origin of
    ``edges``, but at least ``_FIRST_WINDOWS`` on the first chunk and one
    on a later one, and that least when no law fits.  It holds at most as
    many as ``left`` pays for at the most one known increment cost, but
    up to ``_TIGHT_WINDOWS`` when that pays for fewer."""
    least = _FIRST_WINDOWS if start == 0 else 1
    law = _decay_law(known, 2.0 * edges[0] - edges[1])
    width = least if law is None else max(least, _predicted_windows(law, edges[start:], total, tol))
    cost = max([evaluations for *_, evaluations in known], default=1)
    return min(width, max(_TIGHT_WINDOWS, left // cost))


def _integrate_windows(f: Callable, edges: Sequence[float], tol: Tolerance, known: Sequence[tuple] = ()):
    """Integrate ``f(t, theta)`` over ``[edges[0], inf) x [0, 2*pi]`` on
    the windows between ``edges``; an edge not above the one before it
    (far out, where :func:`_doublings` round back onto their origin) is
    skipped.  An inner edge that overflows to ``inf`` is kept: the window
    it closes raises like any window whose integrand is not finite.  The
    walk stops once the tail that the geometric decay of the increments
    predicts falls below tolerance, or, while that model is missing or
    has no drift yet, once the last two increments do.  Growing same-sign increments are reported as
    ``+inf``/``-inf`` divergence, alternating growth as ``oscillatory``,
    with ``converged=False``, and so is a running sum past
    ``_DIVERGED``, with its sign.  Each window is ``decided`` for
    :func:`_bands` once its ``|value| - error`` passes
    ``_DIVERGED + |total|`` (the first window of a chunk) or
    ``2*_DIVERGED`` (a later one): it stops refining, so a divergent
    walk's value, error, trace and evaluations are not refined ones.

    The windows are integrated in look-ahead chunks, one :func:`_bands`
    call per chunk, and read one by one.  Each chunk holds the windows
    that a decay law fitted to the last two increments it knows predicts
    the walk reads (:func:`_chunk_windows`): ``known`` holds the
    increments ``(lo, hi, value, evaluations)`` before ``edges[0]``, and
    every window read is added to it.  A wrong prediction costs calls,
    never numbers.  Each window of a chunk may spend what is left of
    ``tol.max_evaluations``, and the walk stops unconverged before a
    chunk once less than 100 is left, the least budget a
    :class:`Tolerance` takes, so only the last chunk can take the walk
    past its budget; it holds at most ``_TIGHT_WINDOWS`` windows when
    what is left pays for fewer at the most one known increment cost.
    On an integrand that answers with a theta axis each of its windows
    pays a 240-point starting panel even when less is left.  A chunk that
    raises :class:`DomainError` or :class:`OverflowError` is taken again
    as one-window chunks, so the window that raises does so at its own
    step; a one-window chunk that raises propagates.  ``evaluations``
    counts every window integrated, look-ahead past the stop included.
    ``f`` gets ``(J, 15, 1)`` t-nodes against ``(1, 1, 2*n)`` angles, one
    call per theta level ``n`` and one row per panel of a refinement
    round, so J is at most the chunk's windows in a first round and twice
    them after; it must act elementwise.
    """
    edges = [edges[0], *(hi for lo, hi in zip(edges, edges[1:]) if hi > lo)]
    known = list(known)
    spent = 0  # evaluations of every window integrated, look-ahead included
    total = 0.0
    quad_err = 0.0
    increments: list[float] = []
    densities: list[float] = []
    trace: list[tuple[float, float]] = []
    accel_prev: float | None = None
    start = 0  # index in edges of the next window's lower end
    alone_to = 0  # the windows of a chunk that raised, up to here, go one per call

    while start + 1 < len(edges):
        left = tol.max_evaluations - spent
        if left < 100:
            break
        width = 1 if start < alone_to else _chunk_windows(known, edges, start, total, tol, left)
        chunk = edges[start : start + width + 1]
        window_tol = Tolerance(max(tol.abs_tol / 8.0, 1e-15), tol.rel_tol, max_evaluations=left)
        # the walk stops at a window that takes |total| past _DIVERGED, so
        # refining a window whose |value| - error passes these cannot move
        # where it stops or which way it diverges: before the first window
        # of a chunk |total| is known, before a later one it is at most
        # _DIVERGED, or the walk stopped earlier
        decided = [_DIVERGED + abs(total), *[2.0 * _DIVERGED] * (len(chunk) - 2)]
        try:
            parts = _bands(f, chunk, window_tol, decided)
        except (DomainError, OverflowError):
            # a window that raises propagates: no divergence can be read
            # from the densities before it, or the walk would have stopped
            # there
            if len(chunk) == 2:
                raise
            alone_to = start + len(chunk) - 1
            continue
        spent += sum(part.evaluations for part in parts)
        start += len(parts)

        for lower, upper, part in zip(chunk, chunk[1:], parts):
            densities.append(part.value / (upper - lower))
            quad_err += part.error_estimate
            total += part.value
            increments.append(part.value)
            known.append((lower, upper, part.value, part.evaluations))
            trace.append((upper, total))

            direction = _divergence_direction(densities)
            if abs(total) > _DIVERGED:
                direction = "+inf" if total > 0 else "-inf"
            if direction is not None:
                return ImproperResult(total, quad_err, spent, False, direction, tuple(trace))

            tail = _geometric_tail(increments)
            if tail is not None and accel_prev is not None:
                accel = total + tail[0]
                err = quad_err + tail[1] + abs(accel - accel_prev)
                if err <= tol.target(accel):
                    return ImproperResult(accel, err, spent, True, None, tuple(trace))
            elif len(increments) >= 2:
                # both of the last two increments below tolerance
                err = quad_err + max(abs(increments[-1]), abs(increments[-2]))
                if err <= tol.target(total):
                    return ImproperResult(total, err, spent, True, None, tuple(trace))
            accel_prev = total + tail[0] if tail is not None else None

    tail = _geometric_tail(increments)
    value = total + tail[0] if tail is not None else total
    err = quad_err + (tail[1] if tail is not None else abs(increments[-1]) if increments else 0.0)
    return ImproperResult(value, err, spent, False, None, tuple(trace))


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
