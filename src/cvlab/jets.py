"""Second-order forward jets in the axial coordinate t.

A :class:`Jet2` bundles a value together with its first and second
t-derivatives and pushes all three through arithmetic, so metric
coefficients report exact derivatives at every evaluation point.  The
angular coordinate rides along as a passive parameter and never
contributes to the derivative slots.

The slots may be floats or numpy arrays: one jet then carries every
node of a quadrature panel, and arithmetic broadcasts slot by slot.  A
scalar is a 0-d input, so pointwise callers see the same code path.
Any other operand (a number, a numpy scalar or array) is a constant, a
jet with zero derivative slots (forward mode, as in Griewank and
Walther, *Evaluating Derivatives*, ch. 6), and takes the reduced rules:
it adds to the value slot only and scales or divides all three.
Elementary functions raise the exception classes below from explicit
checks, never from warnings.  The rules (``_BARE``, ``_bare_pow``) open
no ``np.errstate``: the compiled DSL kernel calls them inside the one
``np.errstate(all="ignore")`` that :func:`cvlab.dsl.eval_jet` opens, and
``EndChart.sqrt_jet`` runs the sqrt rule inside its own.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class DomainError(ValueError):
    """Evaluation left the real domain (log/sqrt of a nonpositive value,
    division by zero, overflow) or produced a non-finite number."""


class Overflow(DomainError):
    """The true value is finite but exceeds double range.  Kept separate
    from genuine domain violations so callers can treat "too large to
    represent" differently from "undefined"."""


class Jet2(NamedTuple):
    """Value and first two t-derivatives at a point or an array of points;
    any other operand is a constant, with zero derivative slots.  A named
    tuple: immutable, and cheaper to build than a frozen dataclass."""

    f: float
    d1: float = 0.0
    d2: float = 0.0

    # numpy operands on the left defer to the reflected operators below
    __array_ufunc__ = None

    def __add__(self, other) -> "Jet2":
        if isinstance(other, Jet2):
            return Jet2(self.f + other.f, self.d1 + other.d1, self.d2 + other.d2)
        return Jet2(self.f + other, self.d1, self.d2)

    __radd__ = __add__

    def __sub__(self, other) -> "Jet2":
        if isinstance(other, Jet2):
            return Jet2(self.f - other.f, self.d1 - other.d1, self.d2 - other.d2)
        return Jet2(self.f - other, self.d1, self.d2)

    def __rsub__(self, other) -> "Jet2":
        return Jet2(other - self.f, -self.d1, -self.d2)

    def __neg__(self) -> "Jet2":
        return Jet2(-self.f, -self.d1, -self.d2)

    def __mul__(self, other) -> "Jet2":
        if isinstance(other, Jet2):
            return Jet2(
                self.f * other.f,
                self.f * other.d1 + self.d1 * other.f,
                self.f * other.d2 + 2.0 * self.d1 * other.d1 + self.d2 * other.f,
            )
        return Jet2(other * self.f, other * self.d1, other * self.d2)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet2":
        if not isinstance(other, Jet2):
            return Jet2(self.f / _nonzero(other), self.d1 / other, self.d2 / other)
        q = self.f / _nonzero(other.f)
        q1 = (self.d1 - q * other.d1) / other.f
        q2 = (self.d2 - 2.0 * q1 * other.d1 - q * other.d2) / other.f
        return Jet2(q, q1, q2)

    def __rtruediv__(self, other) -> "Jet2":
        return Jet2(other) / self


def ensure_finite(jet: Jet2, context: str) -> Jet2:
    if not (np.isfinite(jet.f).all() and np.isfinite(jet.d1).all() and np.isfinite(jet.d2).all()):
        raise DomainError(f"non-finite result in {context}")
    return jet


def _first(x, mask) -> float:
    """First entry of ``x`` where ``mask`` holds, for error messages."""
    return float(np.broadcast_to(x, np.shape(mask))[mask].flat[0])


def _check_positive(x, what: str):
    bad = np.less_equal(x, 0.0)
    if bad.any():
        raise DomainError(f"{what} of nonpositive value {_first(x, bad)!r}")
    return x


def _check_overflow(x, v, template: str):
    # a finite argument with an infinite result: too large to represent
    if np.isinf(v).any():
        hit = np.isinf(v) & np.isfinite(x)
        if hit.any():
            raise Overflow("overflow in " + template.format(repr(_first(x, hit))))
    return v


def _nonzero(divisor):
    if np.equal(divisor, 0.0).any():
        raise DomainError("division by zero")
    return divisor


# The value slot of each elementary function with its checks, for the
# jet rules below and for arguments that carry no derivatives.  sinh
# overflows exactly where cosh does.
_VALUES = {
    "exp": lambda x: _check_overflow(x, np.exp(x), "exp({})"),
    "log": lambda x: np.log(_check_positive(x, "log")),
    "sqrt": lambda x: np.sqrt(_check_positive(x, "sqrt")),
    "sin": np.sin,
    "cos": np.cos,
    "sinh": lambda x: _check_overflow(x, np.sinh(x), "sinh({})"),
    "cosh": lambda x: _check_overflow(x, np.cosh(x), "cosh({})"),
    "tanh": np.tanh,
}


def _jet_rule(name: str, derivatives):
    """The bare jet of ``_VALUES[name]``; ``derivatives(x, v)`` returns
    the first and second derivative at ``x``, where the value is ``v``."""
    value = _VALUES[name]

    def rule(x) -> Jet2:
        g = x if isinstance(x, Jet2) else Jet2(x)
        v = value(g.f)
        dv, ddv = derivatives(g.f, v)
        # chain rule at second order: (u g)'' = u''(g) g'^2 + u'(g) g''
        return Jet2(v, dv * g.d1, ddv * g.d1 * g.d1 + dv * g.d2)

    return rule


# the bare rules, for the compiled DSL kernel inside eval_jet's context
# and for EndChart.sqrt_jet inside its own
_BARE = {
    "exp": _jet_rule("exp", lambda x, v: (v, v)),
    "log": _jet_rule("log", lambda x, v: (inv := 1.0 / x, -inv * inv)),
    "sqrt": _jet_rule("sqrt", lambda x, s: (0.5 / s, -0.25 / (s * x))),
    "sin": _jet_rule("sin", lambda x, s: (np.cos(x), -s)),
    "cos": _jet_rule("cos", lambda x, c: (-np.sin(x), -c)),
    "sinh": _jet_rule("sinh", lambda x, s: (np.cosh(x), s)),
    "cosh": _jet_rule("cosh", lambda x, c: (np.sinh(x), c)),
    "tanh": _jet_rule("tanh", lambda x, v: (sech2 := 1.0 - v * v, -2.0 * v * sech2)),
}


def _bare_ipow(g: Jet2, n: int) -> Jet2:
    if n == 0:
        return Jet2(1.0)
    if n < 0:
        return Jet2(1.0) / _bare_ipow(g, -n)
    if n == 1:
        return g
    if n == 2:  # squaring: the products the general rule reduces to
        v = _check_overflow(g.f, g.f * g.f, "power {}^2")
        return Jet2(v, 2.0 * g.f * g.d1, 2.0 * g.d1 * g.d1 + 2.0 * g.f * g.d2)
    v = _check_overflow(g.f, np.power(g.f, n), f"power {{}}^{n}")
    vm1 = np.power(g.f, n - 1)
    vm2 = np.power(g.f, n - 2)
    return Jet2(
        v,
        n * vm1 * g.d1,
        n * (n - 1) * vm2 * g.d1 * g.d1 + n * vm1 * g.d2,
    )


def _integer_exponent(e) -> bool:
    """Whether an exponent without derivatives takes the integer path."""
    return np.ndim(e) == 0 and float(e).is_integer() and abs(e) < 1e9


def _bare_pow(base, exponent) -> Jet2:
    """Power with an integer fast path.

    The fast path needs a constant exponent: a 0-d integer, given as a
    value or as a jet with zero derivatives.  Any other exponent
    (non-integer, or an array of per-point values) routes through
    exp/log and therefore requires a positive base.
    """
    g = base if isinstance(base, Jet2) else Jet2(base)
    e = exponent
    if isinstance(e, Jet2) and np.ndim(e.d1) == np.ndim(e.d2) == 0 and e.d1 == e.d2 == 0.0:
        e = e.f
    if not isinstance(e, Jet2) and _integer_exponent(e):
        return _bare_ipow(g, int(e))
    return _BARE["exp"](exponent * _BARE["log"](g))


def _value_pow(x, e):
    """The value slot of ``_bare_pow(x, e)`` for operands without derivatives."""
    if not _integer_exponent(e):
        return _VALUES["exp"](e * _VALUES["log"](x))
    n = int(e)
    if n < 0:
        return 1.0 / _nonzero(_value_pow(x, -n))
    if n < 2:
        return x if n else 1.0
    return _check_overflow(x, np.power(x, n), f"power {{}}^{n}")
