import math
import random

import numpy as np
import pytest

from cvlab.curvature import _point, gauss_curvature
from cvlab.jets import DomainError, Jet2
from cvlab.model import EndChart, chart_from_expression
from cvlab.zoo import all_entries, zoo_entry

FLAT = EndChart(g_jet=lambda t, theta: Jet2(1.0))
CUSP = chart_from_expression("exp(-2*t)")
POLAR = EndChart(g_jet=lambda t, theta: Jet2(t * t, 2 * t, 2.0))


# G of the built-ins whose G is a DSL expression
G_OF_BUILT_INS = {
    "flat-cylinder": "1",
    "polar-plane": "t^2",
    "catenoid": "1 + t^2",
    "cusp-cap": "exp(-2*t)",
}


def geodesic_curvature_from_g(end, h, theta):
    """The same quantity through the alternative form ``(dG/dt) / (2 sqrt(G))``,
    as a cross-check.  The sweep reads ``sqrt_jet(...).d1`` because that
    form conditions better when G is tiny."""
    g = end.g_jet(h, theta)
    bad = ~(np.isfinite(g.f) & np.isfinite(g.d1) & np.isfinite(g.d2)) | (g.f <= 0.0)
    if np.any(bad):
        raise DomainError(f"G not positive/finite at {_point(h, theta, bad)}")
    return g.d1 / (2.0 * np.sqrt(g.f))


class TestGaussCurvature:
    def test_flat_cylinder_is_flat(self):
        for t in (0.0, 1.3, 17.0):
            assert gauss_curvature(FLAT, t, 0.5) == 0.0

    def test_cusp_has_constant_negative_one(self):
        for t in (0.0, 1.0, 4.2):
            assert gauss_curvature(CUSP, t, 1.0) == pytest.approx(-1.0, rel=1e-12)

    def test_polar_plane_is_flat(self):
        assert gauss_curvature(POLAR, 2.0, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_height_below_the_chart_edge_is_refused(self):
        # within 1e-12 of the edge a height still counts as on it
        end = chart_from_expression("exp(-2*t)", t_min=2.0)
        assert gauss_curvature(end, 2.0 - 1e-13, 0.0) == pytest.approx(-1.0, rel=1e-12)
        with pytest.raises(ValueError, match=r"t=1\.5 lies below the chart edge t_min=2\.0"):
            gauss_curvature(end, np.array([3.0, 1.5]), 0.0)

    def test_domain_error_on_vanishing_metric(self):
        with pytest.raises(DomainError):
            gauss_curvature(chart_from_expression("1 - t"), 1.0, 0.0)


class TestGeodesicCurvature:
    def test_flat_boundaries_are_geodesics(self):
        assert FLAT.sqrt_jet(3.0, 1.0).d1 == 0.0

    def test_polar_circle(self):
        assert POLAR.sqrt_jet(5.0, 2.0).d1 == pytest.approx(1.0, rel=1e-13)

    def test_cusp_circle(self):
        assert CUSP.sqrt_jet(1.0, 0.0).d1 == pytest.approx(
            -math.exp(-1.0), rel=1e-12
        )

    def test_both_forms_agree(self):
        # a built-in states sqrt(G); the same G written in the DSL gives
        # the G-route cross-check
        rng = random.Random(7)
        for name, g in G_OF_BUILT_INS.items():
            dsl = chart_from_expression(g)
            for end in zoo_entry(name).model.ends:
                for _ in range(16):
                    h = end.t_min + rng.uniform(0.05, 6.0)
                    theta = rng.uniform(0.0, 2 * math.pi)
                    a = end.sqrt_jet(h, theta).d1
                    b = geodesic_curvature_from_g(dsl, h, theta)
                    assert a == pytest.approx(b, rel=1e-12, abs=1e-12), name


def central_fd_curvature(end, t, theta, h=1e-4):
    """Second-order finite differences of sqrt(G) as the curvature oracle."""
    w = lambda s: math.sqrt(end.g(s, theta))
    d2 = (w(t + h) - 2 * w(t) + w(t - h)) / (h * h)
    return -d2 / w(t)


def test_gauss_curvature_matches_finite_differences_on_zoo():
    rng = random.Random(42)
    for entry in all_entries():
        for end in entry.model.ends:
            for _ in range(32):
                t = end.t_min + rng.uniform(0.5, 8.0)
                theta = rng.uniform(0.0, 2 * math.pi)
                expected = central_fd_curvature(end, t, theta)
                got = gauss_curvature(end, t, theta)
                assert got == pytest.approx(expected, rel=1e-6, abs=1e-6), (
                    entry.name,
                    t,
                )


def test_geodesic_curvature_matches_finite_differences():
    h, t0 = 1e-5, 1.5
    for entry in all_entries():
        end = entry.model.ends[0]
        w = lambda s: math.sqrt(end.g(s, 0.3))
        fd = (w(t0 + h) - w(t0 - h)) / (2 * h)
        assert end.sqrt_jet(t0, 0.3).d1 == pytest.approx(fd, rel=1e-8, abs=1e-10)

