"""A multi-end sweep's sums, pinned bit for bit.

Every sum of a sweep adds per-end results in end order: each height's
``mu`` and ``lambda`` circles, the bands of ``c_trunc`` and the tails of
the direct route.  Floating-point addition is not associative, so the
same results added in another order move the last bits.  The surface
below has three distinct charts: two theta-free ends whose tails are
integrated, not quiet, around a theta-dependent end whose circles and
bands are quadratures.  Each sample's ``mu``, ``lam``, ``c_trunc``,
``quad_error`` and ``gb_residual`` and the direct route's value, error
estimate and evaluations are pinned as ``float.hex``.  Reversing the ends
in any one of the three sums changes at least one of them.
"""

import math

import numpy as np

import cvlab.sweep as sweep
from cvlab.model import AnalyticCore, SurfaceModel, chart_from_expression

TWO_PI = 2.0 * math.pi

ENDS = (
    "2.25 + t^2",
    "(1 + t)^2*(1 + 0.2*cos(2*theta)*exp(-(t - 2)^2))^2",
    "(3 + t + 3*exp(-t/3))^2",
)
# chi = -1 and sqrt(G)' averages 0, 1 and 0 over the edge circles, so a
# core of -4*pi closes Gauss-Bonnet
CORE = -2.0 * TWO_PI
SCHEDULE = [float(h) for h in np.geomspace(1.0, 16.0, 8)]

# (mu, lam, c_trunc, quad_error, gb_residual) at each height
SAMPLES = [
    ("0x1.f442ba7b9f8c7p+5", "0x1.7195f5e857f15p+3", "-0x1.1d52e8453caccp+4", "0x1.ec32090d90b33p-39", "0x1.2000000000000p-46"),
    ("0x1.123c9e8cf7282p+6", "0x1.a51b582122c50p+3", "-0x1.37159961a2169p+4", "0x1.ed061f1189a27p-39", "0x1.4000000000000p-46"),
    ("0x1.3abb9518c0626p+6", "0x1.d822402462afap+3", "-0x1.50990d63420bcp+4", "0x1.ee649e88c2f39p-39", "0x1.c000000000000p-46"),
    ("0x1.7d66a5b7a2b49p+6", "0x1.02d1f14413375p+4", "-0x1.6759de9523eb3p+4", "0x1.ef2d972cda09fp-39", "0x1.0000000000000p-45"),
    ("0x1.e8af9a497355dp+6", "0x1.155c3fe6bbbf0p+4", "-0x1.79e42d37cc72dp+4", "0x1.f2eb5c2afd6f6p-39", "0x1.2000000000000p-45"),
    ("0x1.48b95f0fe7f96p+7", "0x1.228614c4754b4p+4", "-0x1.870e021585ff0p+4", "0x1.f33a19483f35dp-39", "0x1.4000000000000p-45"),
    ("0x1.ca8709fa42cccp+7", "0x1.29dab011b5861p+4", "-0x1.8e629d62c639cp+4", "0x1.f7b64798f929ap-39", "0x1.6000000000000p-45"),
    ("0x1.4741e8f156dd4p+8", "0x1.2cab2c0b3be9ep+4", "-0x1.9133195c4c9d9p+4", "0x1.fbdb5de767c03p-39", "0x1.6000000000000p-45"),
]
# (value, error estimate, evaluations) of the direct route
DIRECT = ("-0x1.921fb544438fbp+4", "0x1.489e1ce1ec778p-32", 2490)


def test_sums_keep_end_order():
    model = SurfaceModel(
        0, tuple(chart_from_expression(g) for g in ENDS), AnalyticCore(CORE), "end-order"
    )
    m = sweep._measure(model, SCHEDULE, sweep.DEFAULT_TOL)
    assert [s.h for s in m.samples] == SCHEDULE
    assert [tuple(x.hex() for x in s[1:]) for s in m.samples] == SAMPLES
    d = m.direct
    assert d.converged
    assert (d.value.hex(), d.error_estimate.hex(), d.evaluations) == DIRECT
