"""Data model for surfaces with cylindrical ends.

A surface is a closed orientable genus-``g`` surface with ``p``
punctures: a compact core plus ``p`` half-infinite cylinders, so
``chi = 2 - 2g - p``.  :class:`SurfaceModel` states each of these facts
once: the genus, the end charts (whose count is ``p``) and the core.
Each end carries coordinates ``(t, theta)`` with ``theta`` periodic of
period ``2*pi`` and metric ``dt^2 + G(t, theta) dtheta^2``; the chart
states exactly one of ``G`` and ``sqrt(G)``, with exact first and
second t-derivatives, and derives the other; its ``t_min`` is where it
is glued to the core.  The core is never meshed: it is either a smooth
polar cap (the single chart closes up at ``t = 0``) or
an analytic descriptor carrying the exact curvature integral over the
core.

Truncation applies one global height ``h`` to every end at once, so the
boundary functionals stay single-variable.  Only orientable surfaces
can be described; for a nonorientable one, analyze its orientable
double cover (curvature integrals double, the Euler characteristic
doubles too).  Validation evaluates one sampling grid per distinct
chart object, the positivity angles and the period pairs side by side,
reads the first violation from masks and raises it as
:class:`ModelInvalid`.  The masks run on the columns the chart returns
(:func:`_on_grid`): a value without a theta axis is one column, which
stands for every angle, and only a value with a theta axis fills the
grid.  The sweep reads theta dependence the same way, from the shape of
each answer its quadrature gets (:mod:`cvlab.quadrature`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

import numpy as np

from .jets import _BARE, DomainError, Jet2, Overflow

POLE_GUARD = 1e-8  # no pointwise evaluation closer to a polar-cap pole


class ModelInvalid(ValueError):
    """The first violated model invariant, raised by :func:`validate_surface`."""


@dataclass(frozen=True)
class EndChart:
    """One cylindrical end's metric coefficient with exact t-jets.

    A chart states its metric once, as exactly one closure, and the
    other is derived: ``g_jet(t, theta)`` returns the jet of ``G`` (a DSL
    chart), ``sqrt_g_jet`` that of ``w = sqrt(G)`` (every built-in),
    which is better conditioned when ``G`` is tiny.  On a ``sqrt_g_jet``
    chart :meth:`g` is ``w*|w|``, negative where ``w`` is, so validation
    checks the very function the sweep integrates.  Both closures take
    scalar or numpy-array points and must use numpy functions; a jet with
    scalar slots (``Jet2(1.0)``) stands for every point.

    Whether the chart depends on theta is read from the shape of each
    value it returns, not declared: a slot with no theta axis (a
    rotation-symmetric end) is integrated in t alone.
    """

    g_jet: Callable[..., Jet2] | None = None
    t_min: float = 0.0
    sqrt_g_jet: Callable[..., Jet2] | None = None

    def __post_init__(self):
        if (self.g_jet is None) == (self.sqrt_g_jet is None):
            raise ValueError("an end chart takes exactly one of g_jet and sqrt_g_jet")

    def g(self, t, theta):
        """``G`` at the points."""
        if self.g_jet is not None:
            return self.g_jet(t, theta).f
        w = self.sqrt_g_jet(t, theta).f
        with np.errstate(over="ignore"):
            return w * np.abs(w)

    def sqrt_jet(self, t, theta) -> Jet2:
        if self.sqrt_g_jet is not None:
            return self.sqrt_g_jet(t, theta)
        jet = self.g_jet(t, theta)
        with np.errstate(all="ignore"):
            return _BARE["sqrt"](jet)


def chart_from_expression(text: str, t_min: float = 0.0) -> EndChart:
    """Build an end chart from DSL source text."""
    from .dsl import eval_jet, parse_metric

    expr = parse_metric(text)
    return EndChart(g_jet=lambda t, theta: eval_jet(expr, t, theta), t_min=t_min)


class PolarCap(NamedTuple):
    """Single-end core: the chart closes smoothly at t = 0 with
    sqrt(G)(0) = 0 and d/dt sqrt(G)(0) = 1."""


class AnalyticCore(NamedTuple):
    """Compact core supplied through its exact curvature integral; each
    end is glued to it at that end's ``t_min``."""

    total_curvature: float


Core = Union[PolarCap, AnalyticCore]


@dataclass(frozen=True)
class SurfaceModel:
    """Genus, one chart per end, and the core.

    One chart object may stand at several positions of ``ends``, one end
    each; validation and the sweep measure it once (:func:`_per_chart`)
    and count it at every position.
    """

    genus: int
    ends: tuple[EndChart, ...]
    core: Core
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "ends", tuple(self.ends))
        if self.genus < 0:
            raise ValueError("genus must be nonnegative")
        if not self.ends:
            raise ValueError("a noncompact surface needs at least one end")

    @property
    def chi(self) -> int:
        """Closed-surface value minus the puncture count."""
        return 2 - 2 * self.genus - len(self.ends)

    @property
    def min_height(self) -> float:
        return max(end.t_min for end in self.ends)


def _per_chart(ends, measure) -> list:
    """``[measure(j, end) for j, end in enumerate(ends)]``, with ``measure``
    run once per distinct chart object: at the first position ``j`` that
    holds it, its result then reused at every later position.

    A chart is a pure function of ``(t, theta)``, so one object gives one
    set of numbers.  The key is object identity: two distinct charts are
    never merged, even around one closure, and closures are never
    compared (``EndChart`` equality would compare them).
    """
    measured = {}
    out = []
    for j, end in enumerate(ends):
        key = id(end)
        if key not in measured:
            measured[key] = measure(j, end)
        out.append(measured[key])
    return out


_SAMPLES_PER_AXIS = 16  # positivity heights in [t_min, t_min + 8] and angles


def _positivity_probes(end: EndChart, skip_pole: bool):
    lo = end.t_min
    if skip_pole:
        lo = lo + POLE_GUARD
    window = 8.0
    ts = [lo + window * i / (_SAMPLES_PER_AXIS - 1) for i in range(_SAMPLES_PER_AXIS)]
    ts += [end.t_min + w for w in (16.0, 32.0, 64.0)]
    thetas = 2.0 * math.pi * np.arange(_SAMPLES_PER_AXIS) / _SAMPLES_PER_AXIS
    return np.array(ts), thetas


def _on_grid(value, rows: int, cols: int) -> np.ndarray:
    """A chart quantity ``value`` computed on a ``(rows, cols)`` grid of
    heights against angles, as the array its checks reduce.

    A value without a theta axis (0-d, ``(1, 1)`` or ``(rows, 1)``) comes
    back as that one column, ``(1, 1)`` or ``(rows, 1)``: every angle of a
    row holds the same value, so a reduction reads the column in place of
    the grid.  Any other value is broadcast, read-only, to the full grid.
    """
    value = np.asarray(value, dtype=float)
    if value.shape in ((), (1, 1), (rows, 1)):
        return value.reshape(-1, 1)
    return np.broadcast_to(value, (rows, cols))


def _evaluate(end: EndChart, ts, thetas):
    """G on the ``(ts, thetas)`` grid, NaN where a point raised, and the
    DomainError raised at each such point, keyed by its index.

    The grid is one call, read by :func:`_on_grid`.  Only when it raises
    are the rows called, and only in a row that raises are its points
    called one by one; that walk fills the full grid.
    """
    try:
        value = end.g(ts[:, None], thetas[None, :])
    except DomainError:
        pass
    else:
        return _on_grid(value, ts.size, thetas.size), {}
    values = np.full((ts.size, thetas.size), np.nan)
    errors = {}
    for i, t in enumerate(ts):
        try:
            values[i] = end.g(t, thetas)
        except DomainError:
            for k, theta in enumerate(thetas):
                try:
                    values[i, k] = end.g(t, theta)
                except DomainError as err:
                    errors[i, k] = err
    return values, errors


_PERIOD_THETAS = np.array([0.0, 0.9, 2.5, 4.2])
# each period probe next to its shift by one period
_PERIOD_PAIRS = np.concatenate([_PERIOD_THETAS, _PERIOD_THETAS + 2.0 * math.pi])


def _positivity_violation(j: int, ts, thetas, values, errors) -> str | None:
    """The first positivity violation in row-major order."""
    values = values[:, : thetas.size]
    errors = {(i, k): err for (i, k), err in errors.items() if k < thetas.size}
    bad = ~(np.isfinite(values) & (values > 0.0))
    for index, err in errors.items():
        # too large to represent is still positive
        bad[index] = not isinstance(err, Overflow)
    if not bad.any():
        return None
    i, k = np.argwhere(bad)[0]
    if (i, k) in errors:
        return f"end {j + 1}: evaluation failed at (t={ts[i]:g}): {errors[i, k]}"
    return f"end {j + 1}: G <= 0 at sampled point (t={ts[i]:g}, theta={thetas[k]:g})"


def _period_violation(j: int, ts, values) -> str | None:
    """The first period mismatch in row-major order.  A point that raised
    reads NaN, which never mismatches, so its pair is skipped."""
    n = _PERIOD_THETAS.size
    here, shifted = values[:, :n], values[:, n:]
    scale = np.maximum(np.maximum(np.abs(here), np.abs(shifted)), 1e-300)
    bad = np.abs(here - shifted) > 1e-9 * scale
    if not bad.any():
        return None
    i, k = np.argwhere(bad)[0]
    return (
        f"end {j + 1}: G is not 2*pi-periodic in theta "
        f"(t={ts[i]:g}, theta={_PERIOD_THETAS[k]:g}: {here[i, k]:g} vs {shifted[i, k]:g})"
    )


def validate_surface(model: SurfaceModel) -> None:
    """Check model invariants; sampling catches nonpositive G.

    Raises :class:`ModelInvalid` with the first violation found.  A chart
    listed at several positions is sampled once, at its first position,
    which its messages name.
    """
    polar = isinstance(model.core, PolarCap)
    if polar:
        if len(model.ends) != 1:
            raise ModelInvalid("PolarCap requires single end")
        if model.ends[0].t_min != 0.0:
            raise ModelInvalid("PolarCap requires the chart to start at t = 0")
        if model.genus != 0:
            raise ModelInvalid("PolarCap core implies genus 0 (chi = 1)")
    elif not isinstance(model.core, AnalyticCore):
        raise ModelInvalid(f"unknown core descriptor {model.core!r}")

    def check(j: int, end: EndChart) -> None:
        ts, thetas = _positivity_probes(end, polar)
        values, errors = _evaluate(end, ts, np.concatenate([thetas, _PERIOD_PAIRS]))
        message = _positivity_violation(j, ts, thetas, values, errors)
        if message is None and values.shape[1] > 1:  # one column is periodic
            rows = slice(1, None, max(1, len(ts) // 4))
            message = _period_violation(j, ts[rows], values[rows, thetas.size :])
        if message is not None:
            raise ModelInvalid(message)

    _per_chart(model.ends, check)

    if polar:
        end = model.ends[0]
        probe = 1e-6
        try:
            w = end.sqrt_jet(probe, 0.0)
        except DomainError as err:
            raise ModelInvalid(f"polar cap: sqrt(G) not evaluable near the pole: {err}")
        else:
            if abs(w.f - probe) > 1e-2 * probe + 1e-12:
                raise ModelInvalid(
                    "polar cap: sqrt(G) does not vanish linearly at the pole "
                    f"(sqrt(G)({probe:g}) = {w.f:.3e})"
                )
            if abs(w.d1 - 1.0) > 1e-2:
                raise ModelInvalid(
                    "polar cap: d/dt sqrt(G) at the pole is "
                    f"{w.d1:.6f}, expected 1"
                )
