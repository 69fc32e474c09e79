"""Machine-speed reference for wall times taken on a shared machine.

The sandbox's CPU speed moves by up to 1.5x with other tenants' load, in
phases of seconds to minutes, so no run length averages it out.  This
fixed kernel is written like cvlab's hot paths (scalar second-order jets
pushed through Python objects and ``math`` calls, 15-point numpy dots)
and is timed between passes; a wall time ``w`` measured next to a kernel
time ``k`` is reported as ``w * REFERENCE_S / k``, seconds at the
reference speed.  The kernel calls no cvlab code, so a change to cvlab
cannot move it.  Raw wall times are reported next to the scaled ones.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# kernel seconds on a 2-core Xeon sandbox (Python 3.11, numpy 2.4) in its
# faster phase; only fixes the unit, comparisons do not depend on it
REFERENCE_S = 0.03

_NODES = np.linspace(-1.0, 1.0, 15)
_WEIGHTS = np.full(15, 2.0 / 15.0)


class _Jet:
    __slots__ = ("f", "d1", "d2")

    def __init__(self, f, d1=0.0, d2=0.0):
        self.f, self.d1, self.d2 = f, d1, d2

    def __mul__(self, o):
        return _Jet(self.f * o.f, self.f * o.d1 + self.d1 * o.f,
                    self.f * o.d2 + 2.0 * self.d1 * o.d1 + self.d2 * o.f)

    def __add__(self, o):
        return _Jet(self.f + o.f, self.d1 + o.d1, self.d2 + o.d2)


def _jexp(a: _Jet) -> _Jet:
    e = math.exp(a.f)
    return _Jet(e, e * a.d1, e * (a.d2 + a.d1 * a.d1))


def _panel(a: float, b: float) -> float:
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    values = []
    for x in _NODES:
        t = _Jet(mid + half * float(x), 1.0)
        w = t * t + _jexp(t * _Jet(-0.5))
        values.append(-w.d2 / w.f)
    return half * float(_WEIGHTS @ np.array(values))


def kernel_seconds() -> float:
    """Wall seconds of one fixed run of the reference kernel."""
    start = perf_counter()
    total = 0.0
    for i in range(720):
        total += _panel(0.01 * i, 0.01 * (i + 1))
    if not math.isfinite(total):
        raise ArithmeticError("reference kernel lost its value")
    return perf_counter() - start
