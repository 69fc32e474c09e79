"""Differential test of the sweep's integrals against an independent reference.

The reference shares no code with ``cvlab.quadrature`` and no rule with
it: ``scipy.integrate.quad`` (QUADPACK's QAGS) over theta, nested inside
``quad`` over t, on hand-written derivatives of the drawn metric rather
than on the DSL's jets.  Hypothesis draws theta-dependent polar caps
whose ``G`` is positive by construction,

    G = (t + a*t^2*exp(-b*t)*(1 + c*cos(k*theta + d)))^2,  |c| < 1,

with ``k`` up to 20, so that frequencies which alias onto the 8- and
16-point theta rules are drawn; two explicit examples pin ``k = 8`` and
``k = 16``.  Every curvature band, ``mu`` and ``lambda`` of a sweep must
converge and agree with the reference within the sum of both error
estimates plus 1e-12 relative.
"""

import math
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import cvlab.sweep as sweep
from cvlab.model import PolarCap, SurfaceModel, chart_from_expression, validate_surface

TWO_PI = 2.0 * math.pi
SCHEDULE = [0.5, 1.5, 3.0, 6.0]
EPS = 1e-12  # the reference's requested absolute and relative accuracy


def _profile(a, b, c, k, d):
    """``w = sqrt(G)`` and its first two t-derivatives as scalar functions
    of ``(t, theta)``."""

    def bump(t, theta):
        return a * math.exp(-b * t) * (1.0 + c * math.cos(k * theta + d))

    return (
        lambda t, theta: t + t * t * bump(t, theta),
        lambda t, theta: 1.0 + (2.0 * t - b * t * t) * bump(t, theta),
        lambda t, theta: (2.0 - 4.0 * b * t + b * b * t * t) * bump(t, theta),
    )


def _quad(f, lo, hi):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # QUADPACK's roundoff notices
        value, error = quad(f, lo, hi, epsabs=EPS, epsrel=EPS, limit=200)
    return value, error


def _circle(f, t):
    return _quad(lambda theta: f(t, theta), 0.0, TWO_PI)


def _band(f, lo, hi):
    """quad in t of quad in theta; the error adds the worst inner error
    over the band's width to the outer one."""
    inner = []

    def row(t):
        value, error = _circle(f, t)
        inner.append(error)
        return value

    value, error = _quad(row, lo, hi)
    return value, error + (hi - lo) * max(inner)


def _agrees(got_value, got_error, want):
    value, error = want
    return abs(got_value - value) <= got_error + error + EPS * abs(value)


@given(
    a=st.floats(0.05, 1.0),
    b=st.floats(0.5, 2.0),
    c=st.floats(-0.95, 0.95),
    k=st.integers(1, 20),
    d=st.floats(0.0, TWO_PI),
)
@example(a=0.8, b=1.0, c=0.9, k=8, d=0.0)
@example(a=0.8, b=1.0, c=0.9, k=16, d=0.3)
@settings(max_examples=30, deadline=None)
def test_sweep_integrals_match_nested_quad(a, b, c, k, d):
    text = f"(t + {a!r}*t^2*exp(-{b!r}*t)*(1 + {c!r}*cos({k}*theta + {d!r})))^2"
    model = SurfaceModel(0, (chart_from_expression(text),), PolarCap(), "reference")
    validate_surface(model)
    w, dw, d2w = _profile(a, b, c, k, d)
    tol = sweep.DEFAULT_TOL

    heights = [*SCHEDULE, *SCHEDULE]
    slots = ("f",) * len(SCHEDULE) + ("d1",) * len(SCHEDULE)
    values, errors = sweep._boundaries(model, heights, tol, slots)
    for h, slot, value, error in zip(heights, slots, values, errors):
        want = _circle(w if slot == "f" else dw, h)
        assert _agrees(value, error, want), (slot, h, value, error, want)

    bands = sweep._sweep_samples(model, SCHEDULE, tol)[3][0]
    for lo, hi, res in zip([0.0, *SCHEDULE], SCHEDULE, bands):
        assert res.converged and res.evaluations % 240 == 0, (lo, hi, res)
        want = _band(lambda t, theta: -d2w(t, theta), lo, hi)
        assert _agrees(res.value, res.error_estimate, want), (lo, hi, res, want)


def test_reference_meets_the_closed_form():
    # the theta mean of 1 + c*cos(k*theta + d) is 1, so every band is
    # 2*pi*(w'(lo) - w'(hi)) of the theta-free profile, and mu is 2*pi*w
    w, dw, d2w = _profile(0.7, 1.3, 0.8, 16, 0.4)
    flat_dw = _profile(0.7, 1.3, 0.0, 16, 0.4)[1]
    value, error = _band(lambda t, theta: -d2w(t, theta), 0.5, 3.0)
    assert error < 1e-9
    assert value == pytest.approx(TWO_PI * (flat_dw(0.5, 0.0) - flat_dw(3.0, 0.0)), abs=1e-11)
    flat_w = _profile(0.7, 1.3, 0.0, 16, 0.4)[0]
    assert _circle(w, 2.0)[0] == pytest.approx(TWO_PI * flat_w(2.0, 0.0), rel=1e-13)
