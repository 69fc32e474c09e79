"""Second-order forward jets in the axial coordinate t.

A :class:`Jet2` bundles a value together with its first and second
t-derivatives and pushes all three through arithmetic, so metric
coefficients report exact derivatives at every evaluation point.  The
angular coordinate rides along as a passive parameter and never
contributes to the derivative slots.

The slots may be floats or numpy arrays: one jet then carries every
node of a quadrature panel, and arithmetic broadcasts slot by slot.  A
scalar is a 0-d input, so pointwise callers see the same code path.
Elementary functions compute under ``np.errstate`` and raise the
exception classes below from explicit checks, never from warnings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """Evaluation left the real domain (log/sqrt of a nonpositive value,
    division by zero, overflow) or produced a non-finite number."""


class Overflow(DomainError):
    """The true value is finite but exceeds double range.  Kept separate
    from genuine domain violations so callers can treat "too large to
    represent" differently from "undefined"."""


@dataclass(frozen=True)
class Jet2:
    """Value and first two t-derivatives at a point or an array of points."""

    f: float
    d1: float = 0.0
    d2: float = 0.0

    def __add__(self, other) -> "Jet2":
        o = as_jet(other)
        return Jet2(self.f + o.f, self.d1 + o.d1, self.d2 + o.d2)

    __radd__ = __add__

    def __sub__(self, other) -> "Jet2":
        o = as_jet(other)
        return Jet2(self.f - o.f, self.d1 - o.d1, self.d2 - o.d2)

    def __rsub__(self, other) -> "Jet2":
        return as_jet(other) - self

    def __neg__(self) -> "Jet2":
        return Jet2(-self.f, -self.d1, -self.d2)

    def __mul__(self, other) -> "Jet2":
        o = as_jet(other)
        return Jet2(
            self.f * o.f,
            self.f * o.d1 + self.d1 * o.f,
            self.f * o.d2 + 2.0 * self.d1 * o.d1 + self.d2 * o.f,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet2":
        o = as_jet(other)
        if np.any(o.f == 0.0):
            raise DomainError("division by zero")
        q = self.f / o.f
        q1 = (self.d1 - q * o.d1) / o.f
        q2 = (self.d2 - 2.0 * q1 * o.d1 - q * o.d2) / o.f
        return Jet2(q, q1, q2)

    def __rtruediv__(self, other) -> "Jet2":
        return as_jet(other) / self

    def __pow__(self, exponent) -> "Jet2":
        return jpow(self, exponent)

    def is_finite(self) -> bool:
        return bool(
            np.all(np.isfinite(self.f))
            and np.all(np.isfinite(self.d1))
            and np.all(np.isfinite(self.d2))
        )


def as_jet(x) -> Jet2:
    if isinstance(x, Jet2):
        return x
    return Jet2(float(x))


def ensure_finite(jet: Jet2, context: str = "expression") -> Jet2:
    if not jet.is_finite():
        raise DomainError(f"non-finite result in {context}")
    return jet


def _first(x, mask) -> float:
    """First entry of ``x`` where ``mask`` holds, for error messages."""
    return float(np.broadcast_to(x, np.shape(mask))[mask].flat[0])


def _check_positive(x, what: str) -> None:
    bad = x <= 0.0
    if np.any(bad):
        raise DomainError(f"{what} of nonpositive value {_first(x, bad)!r}")


def _check_overflow(x, v, template: str) -> None:
    # a finite argument with an infinite result: too large to represent
    hit = np.isinf(v) & np.isfinite(x)
    if np.any(hit):
        raise Overflow("overflow in " + template.format(repr(_first(x, hit))))


def _lift(g: Jet2, v, dv, ddv) -> Jet2:
    # chain rule at second order: (u g)'' = u''(g) g'^2 + u'(g) g''
    return Jet2(v, dv * g.d1, ddv * g.d1 * g.d1 + dv * g.d2)


def jexp(x) -> Jet2:
    g = as_jet(x)
    with np.errstate(all="ignore"):
        v = np.exp(g.f)
        _check_overflow(g.f, v, "exp({})")
        return _lift(g, v, v, v)


def jlog(x) -> Jet2:
    g = as_jet(x)
    _check_positive(g.f, "log")
    with np.errstate(all="ignore"):
        inv = 1.0 / g.f
        return _lift(g, np.log(g.f), inv, -inv * inv)


def jsqrt(x) -> Jet2:
    g = as_jet(x)
    _check_positive(g.f, "sqrt")
    with np.errstate(all="ignore"):
        s = np.sqrt(g.f)
        return _lift(g, s, 0.5 / s, -0.25 / (s * g.f))


def jsin(x) -> Jet2:
    g = as_jet(x)
    with np.errstate(all="ignore"):
        s, c = np.sin(g.f), np.cos(g.f)
        return _lift(g, s, c, -s)


def jcos(x) -> Jet2:
    g = as_jet(x)
    with np.errstate(all="ignore"):
        s, c = np.sin(g.f), np.cos(g.f)
        return _lift(g, c, -s, -c)


def jsinh(x) -> Jet2:
    g = as_jet(x)
    with np.errstate(all="ignore"):
        s, c = np.sinh(g.f), np.cosh(g.f)
        _check_overflow(g.f, c, "sinh({})")
        return _lift(g, s, c, s)


def jcosh(x) -> Jet2:
    g = as_jet(x)
    with np.errstate(all="ignore"):
        s, c = np.sinh(g.f), np.cosh(g.f)
        _check_overflow(g.f, c, "cosh({})")
        return _lift(g, c, s, c)


def jtanh(x) -> Jet2:
    g = as_jet(x)
    with np.errstate(all="ignore"):
        v = np.tanh(g.f)
        sech2 = 1.0 - v * v
        return _lift(g, v, sech2, -2.0 * v * sech2)


def _ipow(g: Jet2, n: int) -> Jet2:
    if n == 0:
        return Jet2(1.0)
    if n < 0:
        return Jet2(1.0) / _ipow(g, -n)
    if n == 1:
        return g
    with np.errstate(all="ignore"):
        v = np.power(g.f, n)
        _check_overflow(g.f, v, f"power {{}}^{n}")
        vm1 = np.power(g.f, n - 1)
        vm2 = np.power(g.f, n - 2)
        return Jet2(
            v,
            n * vm1 * g.d1,
            n * (n - 1) * vm2 * g.d1 * g.d1 + n * vm1 * g.d2,
        )


def jpow(base, exponent) -> Jet2:
    """Power with an integer fast path.

    The fast path needs a constant exponent: a 0-d integer value with
    zero derivatives.  Any other exponent (non-integer, or an array of
    per-point values) routes through exp/log and therefore requires a
    positive base.
    """
    g = as_jet(base)
    e = as_jet(exponent)
    constant = np.ndim(e.f) == np.ndim(e.d1) == np.ndim(e.d2) == 0
    if (
        constant
        and e.d1 == 0.0
        and e.d2 == 0.0
        and float(e.f).is_integer()
        and abs(e.f) < 1e9
    ):
        return _ipow(g, int(e.f))
    return jexp(e * jlog(g))


FUNCTIONS = {
    "exp": jexp,
    "log": jlog,
    "sqrt": jsqrt,
    "sin": jsin,
    "cos": jcos,
    "sinh": jsinh,
    "cosh": jcosh,
    "tanh": jtanh,
}
