"""One array call must agree with per-point 0-d calls through the same code."""

import math
import random

import numpy as np
import pytest

from cvlab.curvature import gauss_curvature
from cvlab.dsl import MetricExpr, eval_jet, parse_metric
from cvlab.jets import DomainError, Jet2, Overflow
import cvlab.sweep as sweep
from cvlab.model import (
    AnalyticCore,
    PolarCap,
    SurfaceModel,
    chart_from_expression,
)
from cvlab.quadrature import _FLOOR, _XGK, _thetas
from cvlab.sweep import K_SLACK
from cvlab.zoo import zoo_entry, zoo_names
from conftest import SCHEDULES, band_node_signs, doubling_schedule
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
    t = np.array([0.0, 1.0, 800.0, 2.0])
    for source in ("exp(t)", "cosh(t)"):
        with pytest.raises(Overflow):
            eval_jet(parse_metric(source), t, 0.0)
    with pytest.raises(Overflow):
        eval_jet(parse_metric("t^3"), np.array([1.0, 1e200, 2.0]), 0.0)


def test_single_out_of_domain_entry_raises_domain_error():
    t = np.array([1.0, 0.0, 2.0])
    for source in ("log(t)", "sqrt(t)", "1/t"):
        with pytest.raises(DomainError) as err:
            eval_jet(parse_metric(source), t, 0.0)
        assert not isinstance(err.value, Overflow)


# --- h1 and the K range: the band nodes against a per-height loop -------


def recorded_band_nodes(model, schedule):
    """The ``(t, theta)`` of every density call of the truncation's band
    batch, one list per distinct chart in end order."""
    charts = []
    integrate = sweep.integrate_bands

    def recording(f, edges, tol, **kwargs):
        nodes = []
        charts.append(nodes)

        def density(t, theta):
            nodes.append((t, theta))
            return f(t, theta)

        return integrate(density, edges, tol, **kwargs)

    sweep.integrate_bands = recording
    try:
        sweep.sweep_samples(model, schedule)
    finally:
        sweep.integrate_bands = integrate
    return charts


def least_k(end, h, thetas):
    """The least and largest K at the height ``h`` over ``thetas``: one
    row per call."""
    k = gauss_curvature(end, h, thetas)
    return float(np.min(k)), float(np.max(k))


def reference_refine(end, thetas, lo, hi, scale):
    """The h1 bracket ``(lo, hi]`` narrowed to ``scale / 4096`` in the
    fewest rounds, at most three, of at most 64 equispaced heights in all,
    one height per call."""
    ratio = 4096.0 * (hi - lo) / scale
    rounds = 1 if ratio <= 65 else 2 if ratio <= 33**2 else 3
    n = math.ceil(ratio ** (1.0 / rounds)) - 1
    for _ in range(rounds if n > 0 else 0):
        heights = [lo + (hi - lo) * i / (n + 1) for i in range(1, n + 1)]
        bad = [i for i, h in enumerate(heights) if least_k(end, h, thetas)[0] < -K_SLACK]
        if bad:
            lo, hi = heights[bad[-1]], heights[bad[-1] + 1] if bad[-1] + 1 < n else hi
        else:
            hi = heights[0]
    return float(hi)


def reference_sign_height(model, schedule):
    """Per-height loop: ``(h1, kmin, kmax)`` from K at every band node at
    or above the highest chart edge, each node's angles one call, and the
    last bad node's bracket narrowed by :func:`reference_refine` on each
    chart whose bracket reaches above every chart's last bad node."""
    origin, h_max = model.min_height, schedule[-1]
    charts = list({id(end): end for end in model.ends}.values())
    kmin, kmax, brackets = math.inf, -math.inf, []
    for end, nodes in zip(charts, recorded_band_nodes(model, schedule)):
        least = {}
        for t, theta in nodes:
            for h in np.ravel(t).tolist():
                if h >= origin:
                    lo, hi = least_k(end, h, np.ravel(theta))
                    least[h] = min(least.get(h, math.inf), lo)
                    kmin, kmax = min(kmin, lo), max(kmax, hi)
        bad = [h for h, k in least.items() if k < -K_SLACK]
        if bad:
            after = [h for h in least if h > max(bad)]
            brackets.append((end, max(bad), min(after) if after else None))
    if not brackets:
        return origin, kmin, kmax
    if any(after is None for _, _, after in brackets):
        return None, kmin, kmax
    floor = max(bad for _, bad, _ in brackets)
    h1 = origin
    for end, lo, hi in brackets:
        if hi > floor:
            h1 = max(h1, reference_refine(end, _thetas(_FLOOR), lo, hi, max(h_max, h_max - origin)))
    return h1, kmin, kmax


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


SIGN_EXTRAS = {"theta-cap": (theta_cap, 64.0), "three-ends": (three_ends, 16.0)}


@pytest.mark.parametrize("name", zoo_names() + tuple(SIGN_EXTRAS))
def test_band_node_signs_match_per_height_loop(name):
    if name in SIGN_EXTRAS:
        build, h_max = SIGN_EXTRAS[name]
        model = build()
    else:
        model, h_max = zoo_entry(name).model, SCHEDULES[name][-1]
    want = reference_sign_height(model, doubling_schedule(model, h_max))
    h1 = band_node_signs(model, h_max)[0]
    assert h1 == want[0] and type(h1) is type(want[0])
    assert band_node_signs(model, h_max) == want
    if name == "three-ends":
        # violations on two ends, and the refinement ran past t = 5
        assert 5.0 < h1 < 5.0 + h_max / 4096.0
