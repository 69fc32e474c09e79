"""One array call must agree with per-point 0-d calls through the same code."""

import math
import random

import numpy as np
import pytest

from cvlab.curvature import gauss_curvature
from cvlab.dsl import MetricExpr, eval_jet
from cvlab.jets import DomainError, Jet2, Overflow, jcosh, jexp, jlog, jpow, jsqrt
from cvlab.model import (
    POLE_GUARD,
    AnalyticCore,
    PolarCap,
    SurfaceModel,
    chart_from_expression,
)
from cvlab.quadrature import _XGK
from cvlab.sweep import K_SLACK
from cvlab.zoo import zoo_entry, zoo_names
from conftest import SCHEDULES, curvature_scan
from test_dsl import random_expression

REL = 1e-12


def panel_nodes(a, b):
    return 0.5 * (a + b) + 0.5 * (b - a) * _XGK


def assert_jets_close(array_jet, point_jets, shape):
    for slot in ("f", "d1", "d2"):
        got = np.broadcast_to(getattr(array_jet, slot), shape)
        for idx, jet in point_jets.items():
            want = getattr(jet, slot)
            assert abs(got[idx] - want) <= REL * max(abs(want), 1.0), (slot, idx)


def outcome(fn):
    try:
        return fn(), None
    except DomainError as err:
        return None, type(err)


def test_dsl_panel_grid_matches_pointwise_calls():
    rng = random.Random(2207)
    t = panel_nodes(0.05, 6.0)[:, None]
    theta = panel_nodes(0.0, 2.0 * math.pi)[None, :]
    shape = (15, 15)
    agreed = raised = 0
    for _ in range(120):
        node = random_expression(rng, rng.randint(1, 4))
        expr = MetricExpr(node)
        whole, whole_err = outcome(lambda: eval_jet(expr, t, theta))
        points, point_errs = {}, set()
        for i in range(15):
            for j in range(15):
                jet, err = outcome(lambda: eval_jet(expr, float(t[i, 0]), float(theta[0, j])))
                if err is None:
                    points[i, j] = jet
                else:
                    point_errs.add(err)
        if whole_err is None:
            assert not point_errs, node
            assert_jets_close(whole, points, shape)
            agreed += 1
        else:
            # the array call stops at the first failing check in walk
            # order; some point must fail that same check
            assert whole_err in point_errs, (node, whole_err, point_errs)
            raised += 1
    assert agreed > 20 and raised > 5


@pytest.mark.parametrize("name", zoo_names())
def test_zoo_chart_array_matches_pointwise_calls(name):
    end = zoo_entry(name).model.ends[0]
    # step 0.25 hits the cone junction t = 10 and the paraboloid's first
    # solved-span edge t = 64 exactly, and crosses into the next span
    t = np.linspace(end.t_min, 80.0, 321)[:, None]
    theta = np.array([0.0, 1.1, 4.0])[None, :]
    assert 10.0 in t and 64.0 in t
    whole = end.sqrt_jet(t, theta)
    points = {
        (i, j): end.sqrt_jet(float(t[i, 0]), float(theta[0, j]))
        for i in range(t.shape[0])
        for j in range(theta.shape[1])
    }
    assert_jets_close(whole, points, (t.shape[0], theta.shape[1]))


def test_single_overflowing_entry_raises_overflow():
    x = Jet2(np.array([0.0, 1.0, 800.0, 2.0]), 1.0, 0.0)
    with pytest.raises(Overflow):
        jexp(x)
    with pytest.raises(Overflow):
        jcosh(x)
    with pytest.raises(Overflow):
        jpow(Jet2(np.array([1.0, 1e200, 2.0]), 1.0, 0.0), 3)


def test_single_out_of_domain_entry_raises_domain_error():
    x = Jet2(np.array([1.0, 0.0, 2.0]), 1.0, 0.0)
    for fn in (jlog, jsqrt, lambda g: Jet2(1.0) / g):
        with pytest.raises(DomainError) as err:
            fn(x)
        assert not isinstance(err.value, Overflow)


# --- probe scans: one grid call per end against the per-height loop ------


def reference_heights(origin, h_probe_max, grid=64):
    span = h_probe_max - origin
    heights = {origin + span * i / (grid - 1) for i in range(grid)}
    scale = span / 2.0
    while scale > POLE_GUARD:
        heights.add(origin + scale)
        scale /= 2.0
    return sorted(heights)


def reference_detect_h1(model, h_probe_max):
    """Per-height scan: one curvature row per (height, end), ends
    short-circuited at the first violating one."""
    thetas = 2.0 * math.pi * np.arange(16) / 16

    def bad_at(t):
        for end in model.ends:
            te = max(t, end.t_min + POLE_GUARD)
            if np.any(gauss_curvature(end, te, thetas) < -K_SLACK):
                return True
        return False

    origin = max(end.t_min for end in model.ends)
    heights = reference_heights(origin, h_probe_max)
    last_bad = None
    for i, t in enumerate(heights):
        if bad_at(t):
            last_bad = i
    if last_bad is None:
        return origin
    if last_bad == len(heights) - 1:
        return None
    lo, hi = heights[last_bad], heights[last_bad + 1]
    while hi - lo > h_probe_max / 4096.0:
        mid = 0.5 * (lo + hi)
        if bad_at(mid):
            lo = mid
        else:
            hi = mid
    return hi


def reference_curvature_range(model, h_probe_max):
    """Per-height range of K on the h1 scan's grid, every end at every
    height, clamped to its own ``t_min + POLE_GUARD``."""
    thetas = 2.0 * math.pi * np.arange(16) / 16
    kmin, kmax = math.inf, -math.inf
    for end in model.ends:
        for t in reference_heights(max(e.t_min for e in model.ends), h_probe_max):
            k = gauss_curvature(end, max(t, end.t_min + POLE_GUARD), thetas)
            kmin = min(kmin, float(np.min(k)))
            kmax = max(kmax, float(np.max(k)))
    return kmin, kmax


def theta_cap():
    chart = chart_from_expression("t^2*(1+0.3*sin(2*theta)*t^2*exp(-1.5*t))^2")
    return SurfaceModel(0, (chart,), PolarCap(), name="theta-cap")


def three_ends():
    # K < 0 below t = 3 on the first end and below t = 5 on the second;
    # the unequal t_min clamp every end differently on the shared grid
    ends = (
        chart_from_expression("(2 + tanh(t - 3))^2", t_min=0.4),
        chart_from_expression("(2 + tanh(t - 5))^2", t_min=0.0),
        chart_from_expression("(1 + t)^2", t_min=0.25),
    )
    core = AnalyticCore(0.0)
    return SurfaceModel(0, ends, core, name="three-ends")


PROBE_EXTRAS = {"theta-cap": (theta_cap, 64.0), "three-ends": (three_ends, 16.0)}


@pytest.mark.parametrize("name", zoo_names() + tuple(PROBE_EXTRAS))
def test_probe_scans_match_per_height_loop(name):
    if name in PROBE_EXTRAS:
        build, h_probe_max = PROBE_EXTRAS[name]
        model = build()
    else:
        model, h_probe_max = zoo_entry(name).model, SCHEDULES[name][-1]
    want = reference_detect_h1(model, h_probe_max)
    h1 = curvature_scan(model, h_probe_max)[0]
    assert h1 == want and type(h1) is type(want)
    assert curvature_scan(model, h_probe_max) == (
        want, *reference_curvature_range(model, h_probe_max)
    )
    if name == "three-ends":
        # the scan saw violations on two ends and the bisection ran past t = 5
        assert 5.0 < h1 < 5.0 + h_probe_max / 4096.0
