"""Topological and metric data model for surfaces with cylindrical ends.

A surface is a compact core plus finitely many half-infinite cylinders.
Each end carries coordinates ``(t, theta)`` with ``theta`` periodic of
period ``2*pi`` and metric ``dt^2 + G(t, theta) dtheta^2``; the chart
reports exact first and second t-derivatives of ``G``.  The core is
never meshed: it is either a smooth polar cap (the single chart closes
up at ``t = 0``) or an analytic descriptor carrying the exact curvature
integral over the core.

Truncation applies one global height ``h`` to every end at once, so the
boundary functionals stay single-variable.  Nonorientable surfaces are
rejected; analyze their orientable double cover instead (curvature
integrals double, the Euler characteristic doubles too).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .jets import DomainError, Jet2, Overflow, jsqrt

POLE_GUARD = 1e-8  # no pointwise evaluation closer to a polar-cap pole


class ModelInvalid(ValueError):
    """First violated model invariant, signalled in strict validation."""


@dataclass(frozen=True)
class Topology:
    """Closed-surface genus plus the number of punctures (ends)."""

    genus: int
    ends: int
    orientable: bool = True

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError("genus must be nonnegative")
        if self.ends < 1:
            raise ValueError("a noncompact surface needs at least one end")


def euler_char(topology: Topology) -> int:
    """Euler characteristic: closed-surface value minus the puncture count."""
    return (2 - 2 * topology.genus) - topology.ends


@dataclass(frozen=True)
class EndChart:
    """One cylindrical end's metric coefficient with exact t-jets.

    ``g_jet(t, theta)`` returns the jet of ``G``; charts that know
    ``sqrt(G)`` in closed form may supply ``sqrt_g_jet`` directly, which
    is better conditioned when ``G`` is tiny.  Both closures take scalar
    or numpy-array points and must use numpy functions; a jet with
    scalar slots (``Jet2(1.0)``) stands for every point.
    """

    g_jet: Callable[..., Jet2]
    t_min: float = 0.0
    sqrt_g_jet: Callable[..., Jet2] | None = None
    derivative_order: int = 2
    label: str = ""

    def __post_init__(self):
        if self.derivative_order < 2:
            raise ValueError("charts must provide at least two t-derivatives")

    def g(self, t, theta):
        return self.g_jet(t, theta).f

    def sqrt_jet(self, t, theta) -> Jet2:
        if self.sqrt_g_jet is not None:
            return self.sqrt_g_jet(t, theta)
        return jsqrt(self.g_jet(t, theta))


def chart_from_expression(expr_or_text, t_min: float = 0.0, label: str = "") -> EndChart:
    """Build an end chart from a DSL expression (text or parsed tree)."""
    from .dsl import MetricExpr, eval_jet, parse_metric

    expr = expr_or_text
    if isinstance(expr, str):
        expr = parse_metric(expr)
    if not isinstance(expr, MetricExpr):
        raise TypeError("expected DSL source text or a MetricExpr")
    return EndChart(
        g_jet=lambda t, theta: eval_jet(expr, t, theta),
        t_min=t_min,
        label=label or expr.source,
    )


@dataclass(frozen=True)
class PolarCap:
    """Single-end core: the chart closes smoothly at t = 0 with
    sqrt(G)(0) = 0 and d/dt sqrt(G)(0) = 1."""


@dataclass(frozen=True)
class AnalyticCore:
    """Compact core supplied through its exact curvature integral."""

    total_curvature: float
    boundary_heights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "boundary_heights", tuple(self.boundary_heights))


Core = Union[PolarCap, AnalyticCore]


@dataclass(frozen=True)
class SurfaceModel:
    topology: Topology
    ends: tuple[EndChart, ...]
    core: Core
    name: str = ""
    hypothesis_hint: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "ends", tuple(self.ends))

    @property
    def chi(self) -> int:
        return euler_char(self.topology)

    @property
    def min_height(self) -> float:
        return max(end.t_min for end in self.ends)


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _positivity_probes(end: EndChart, samples_per_axis: int, skip_pole: bool):
    lo = end.t_min
    if skip_pole:
        lo = lo + POLE_GUARD
    window = 8.0
    ts = [lo + window * i / (samples_per_axis - 1) for i in range(samples_per_axis)]
    ts += [end.t_min + w for w in (16.0, 32.0, 64.0)]
    thetas = 2.0 * math.pi * np.arange(samples_per_axis) / samples_per_axis
    return ts, thetas


def _g_row(end: EndChart, t: float, thetas):
    """``(theta, G or the DomainError raised there)`` along one row.

    The row is one array call; only a row that raises is walked again
    point by point, so the caller sees which point failed first.
    """
    try:
        values = np.broadcast_to(end.g(t, thetas), thetas.shape)
    except DomainError:
        for theta in thetas:
            try:
                yield theta, end.g(t, theta)
            except DomainError as err:
                yield theta, err
    else:
        yield from zip(thetas, values)


_PERIOD_THETAS = np.array([0.0, 0.9, 2.5, 4.2])


def validate_surface(
    model: SurfaceModel, samples_per_axis: int = 16, strict: bool = False
) -> ValidationReport:
    """Check model invariants; sampling catches nonpositive G.

    Returns a report listing every violation found.  In strict mode the
    first violation raises :class:`ModelInvalid` instead.
    """
    if samples_per_axis < 4:
        raise ValueError("samples_per_axis must be at least 4")
    report = ValidationReport()

    def flag(message: str):
        if strict:
            raise ModelInvalid(message)
        report.violations.append(message)

    topo = model.topology
    if not topo.orientable:
        flag(
            "nonorientable surfaces are not accepted; pass the orientable "
            "double cover instead (all curvature integrals and the Euler "
            "characteristic double)"
        )
    if len(model.ends) != topo.ends:
        flag(
            f"topology declares {topo.ends} end(s) but the model carries "
            f"{len(model.ends)} chart(s)"
        )

    polar = isinstance(model.core, PolarCap)
    if polar:
        if topo.ends != 1:
            flag("PolarCap requires single end")
        if model.ends and model.ends[0].t_min != 0.0:
            flag("PolarCap requires the chart to start at t = 0")
        if topo.genus != 0:
            flag("PolarCap core implies genus 0 (chi = 1)")
    elif isinstance(model.core, AnalyticCore):
        heights = model.core.boundary_heights
        if len(heights) != len(model.ends):
            flag(
                f"core lists {len(heights)} boundary height(s) for "
                f"{len(model.ends)} end(s)"
            )
        else:
            for j, (height, end) in enumerate(zip(heights, model.ends)):
                if height != end.t_min:
                    flag(
                        f"core boundary height {height} of end {j + 1} does "
                        f"not match the chart's t_min {end.t_min}"
                    )
    else:
        flag(f"unknown core descriptor {model.core!r}")

    for j, end in enumerate(model.ends):
        ts, thetas = _positivity_probes(end, samples_per_axis, polar)
        stop = False
        for t in ts:
            for theta, value in _g_row(end, t, thetas):
                if isinstance(value, Overflow):
                    # too large to represent is still positive
                    continue
                if isinstance(value, DomainError):
                    flag(f"end {j + 1}: evaluation failed at (t={t:g}): {value}")
                    stop = True
                    break
                if not (value > 0.0) or not math.isfinite(value):
                    flag(f"end {j + 1}: G <= 0 at sampled point (t={t:g}, theta={theta:g})")
                    stop = True
                    break
            if stop:
                break
        if not stop:
            for t in ts[1 :: max(1, len(ts) // 4)]:
                mismatch = None
                rows = zip(
                    _g_row(end, t, _PERIOD_THETAS),
                    _g_row(end, t, _PERIOD_THETAS + 2.0 * math.pi),
                )
                for (theta, here), (_, shifted) in rows:
                    if isinstance(here, DomainError) or isinstance(shifted, DomainError):
                        continue
                    scale = max(abs(here), abs(shifted), 1e-300)
                    if abs(here - shifted) > 1e-9 * scale:
                        mismatch = (theta, here, shifted)
                        break
                if mismatch is not None:
                    theta, here, shifted = mismatch
                    flag(
                        f"end {j + 1}: G is not 2*pi-periodic in theta "
                        f"(t={t:g}, theta={theta:g}: {here:g} vs {shifted:g})"
                    )
                    break

    if polar and model.ends:
        end = model.ends[0]
        probe = 1e-6
        try:
            w = end.sqrt_jet(probe, 0.0)
        except DomainError as err:
            flag(f"polar cap: sqrt(G) not evaluable near the pole: {err}")
        else:
            if abs(w.f - probe) > 1e-2 * probe + 1e-12:
                flag(
                    "polar cap: sqrt(G) does not vanish linearly at the pole "
                    f"(sqrt(G)({probe:g}) = {w.f:.3e})"
                )
            if abs(w.d1 - 1.0) > 1e-2:
                flag(
                    "polar cap: d/dt sqrt(G) at the pole is "
                    f"{w.d1:.6f}, expected 1"
                )

    return report
