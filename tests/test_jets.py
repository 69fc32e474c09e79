import math
import warnings

import numpy as np
import pytest

from cvlab.dsl import eval_jet, parse_metric
from cvlab.jets import _BARE, DomainError, Jet2, Overflow, _bare_pow
from cvlab.model import EndChart, chart_from_expression


def jet_of(source, t):
    return eval_jet(parse_metric(source), t, 0.0)


def fd_checks(fn, jfn, x0, h=1e-5):
    """Central finite differences of fn as an independent derivative oracle."""
    d1 = (fn(x0 + h) - fn(x0 - h)) / (2 * h)
    d2 = (fn(x0 + h) - 2 * fn(x0) + fn(x0 - h)) / (h * h)
    jet = jfn(Jet2(x0, 1.0, 0.0))
    assert jet.f == pytest.approx(fn(x0), rel=1e-12)
    assert jet.d1 == pytest.approx(d1, rel=1e-7, abs=1e-9)
    assert jet.d2 == pytest.approx(d2, rel=1e-4, abs=1e-6)


def test_elementary_functions_match_finite_differences():
    fd_checks(math.exp, _BARE["exp"], 0.7)
    fd_checks(math.log, _BARE["log"], 1.3)
    fd_checks(math.sqrt, _BARE["sqrt"], 2.1)
    fd_checks(math.sin, _BARE["sin"], 0.4)
    fd_checks(math.cosh, _BARE["cosh"], 0.9)
    fd_checks(math.tanh, _BARE["tanh"], -0.6)


def test_product_and_quotient_rules():
    t = Jet2(1.7, 1.0, 0.0)
    prod = _BARE["sin"](t) * _BARE["exp"](t)
    # (sin t e^t)' = (sin t + cos t) e^t ; '' = 2 cos t e^t
    e = math.exp(1.7)
    assert prod.d1 == pytest.approx((math.sin(1.7) + math.cos(1.7)) * e, rel=1e-13)
    assert prod.d2 == pytest.approx(2 * math.cos(1.7) * e, rel=1e-13)

    quot = _BARE["sin"](t) / _BARE["cosh"](t)
    h = 1e-5

    def f(x):
        return math.sin(x) / math.cosh(x)

    assert quot.d1 == pytest.approx((f(1.7 + h) - f(1.7 - h)) / (2 * h), rel=1e-8)


def test_integer_power_fast_path_handles_negative_base():
    cubed = jet_of("t^3", -2.0)
    assert cubed.f == -8.0
    assert cubed.d1 == 12.0
    assert cubed.d2 == -12.0


def test_fractional_power_requires_positive_base():
    assert jet_of("t^0.5", 4.0).f == pytest.approx(2.0)
    with pytest.raises(DomainError):
        jet_of("t^0.5", -4.0)


def test_domain_errors():
    with pytest.raises(DomainError):
        jet_of("log(t)", -1.0)
    with pytest.raises(DomainError):
        jet_of("sqrt(t)", 0.0)
    with pytest.raises(DomainError):
        Jet2(1.0) / Jet2(0.0)
    with pytest.raises(DomainError):
        jet_of("exp(t)", 1e9)


def test_scalar_coercion():
    t = Jet2(3.0, 1.0, 0.0)
    assert (2 + t).f == 5.0
    assert (2 * t).d1 == 2.0
    assert (1 / t).f == pytest.approx(1 / 3)
    assert (t - 1).f == 2.0


def test_sinh_overflows_where_cosh_does():
    edge = 710.4758600739439  # the largest double whose cosh is finite
    for x in (edge, -edge):
        assert np.isfinite(jet_of("sinh(t)", x).f)
        assert np.isfinite(jet_of("cosh(t)", x).f)
    for x in (np.nextafter(edge, 1e3), -np.nextafter(edge, 1e3), 800.0):
        for name in ("sinh", "cosh"):
            with pytest.raises(Overflow, match=rf"^overflow in {name}\("):
                jet_of(f"{name}(t)", np.array([1.0, x]))
    # a t-free argument takes the value rule, with the same check
    for source in ("sinh(theta*200)", "t*sinh(theta*200)"):
        with pytest.raises(Overflow, match=r"^overflow in sinh\(800\.0\)$"):
            eval_jet(parse_metric(source), 1.0, 4.0)


def test_array_constants_meet_jets_through_jet2():
    jet = Jet2(np.array([1.0, 2.0, 3.0]), np.array([0.5, -1.0, 2.0]), np.array([0.25, 3.0, -1.5]))
    arr = np.array([3.0, 4.0, 0.5])
    const = Jet2(arr, 0.0, 0.0)  # the same constant, through the full rules
    cases = [
        (jet + arr, jet + const),
        (arr - jet, const - jet),
        (arr * jet, const * jet),
        (np.float64(2.0) * jet, Jet2(2.0, 0.0, 0.0) * jet),
        (jet / arr, jet / const),
        (arr / jet, const / jet),
        (_bare_pow(jet, arr), _bare_pow(jet, const)),
    ]
    for got, want in cases:
        assert isinstance(got, Jet2)
        for slot in ("f", "d1", "d2"):
            assert np.all(getattr(got, slot) == getattr(want, slot)), slot


def test_elementary_functions_take_a_plain_number_as_a_constant_jet():
    for fn in (_BARE[name] for name in ("exp", "log", "sqrt", "sin", "cosh", "tanh")):
        jet = fn(1.5)
        assert isinstance(jet, Jet2)
        assert jet.f == fn(Jet2(1.5)).f
        assert jet.d1 == jet.d2 == 0.0


def test_jet2_is_immutable():
    jet = Jet2(1.0, 2.0, 3.0)
    for slot in ("f", "d1", "d2"):
        with pytest.raises(AttributeError):
            setattr(jet, slot, 0.0)
    assert jet == Jet2(1.0, 2.0, 3.0)


# Outside eval_jet, a g_jet chart's sqrt_jet runs the sqrt rule inside
# its own np.errstate, and jet division checks its divisor first, so a
# failing evaluation raises its DomainError from an explicit check and
# emits no RuntimeWarning on the way.  With RuntimeWarning an error, a
# rule that lost its context raises the warning instead.
NEGATIVE_G = EndChart(g_jet=lambda t, theta: Jet2(-2.0, 1.0, 0.0))
DIRECT_FAILURES = [
    (lambda: NEGATIVE_G.sqrt_jet(1.0, 0.0), DomainError, r"^sqrt of nonpositive value -2\.0$"),
    (lambda: Jet2(1.0) / Jet2(0.0), DomainError, r"^division by zero$"),
]


@pytest.mark.parametrize("run, error, message", DIRECT_FAILURES)
def test_public_rules_raise_without_a_runtime_warning(run, error, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(error, match=message) as raised:
            run()
    assert type(raised.value) is error


# Through eval_jet the kernel's bare rules run inside eval_jet's one
# np.errstate(all="ignore"): each failure raises from an explicit check
# or from the final finiteness check, never as a RuntimeWarning.
KERNEL_FAILURES = [
    ("exp(t)", 1000.0, Overflow, r"^overflow in exp\(1000\.0\)$"),
    ("exp(t)", np.array([1.0, 1000.0]), Overflow, r"^overflow in exp\(1000\.0\)$"),
    ("1/(t-1)", 1.0, DomainError, r"^division by zero$"),
    ("log(t-1)", 1.0, DomainError, r"^log of nonpositive value 0\.0$"),
    ("log(t-1)", np.array([2.0, 1.0]), DomainError, r"^log of nonpositive value 0\.0$"),
    # sqrt's second derivative divides by an underflowed s*x: -inf
    ("sqrt(exp(-t)^2)", 360.0, DomainError, r"^non-finite result in metric expression$"),
    ("t^0.5", -4.0, DomainError, r"^log of nonpositive value -4\.0$"),
]


@pytest.mark.parametrize("source, t, error, message", KERNEL_FAILURES)
def test_kernel_failures_keep_their_class_and_message(source, t, error, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(error, match=message) as raised:
            eval_jet(parse_metric(source), t, 0.0)
    assert type(raised.value) is error


def test_dsl_chart_sqrt_jet_past_underflow():
    chart = chart_from_expression("exp(-t)^2")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        # G is subnormal: sqrt(G) is finite, and s*G underflows to 0 in
        # the sqrt rule's second derivative, which is -inf, not a warning
        jet = chart.sqrt_jet(360.0, 0.0)
        assert jet.f > 0.0 and np.isinf(jet.d2)
        # G underflows to 0
        for t in (400.0, np.array([1.0, 360.0, 400.0])):
            with pytest.raises(DomainError, match=r"^sqrt of nonpositive value 0\.0$") as raised:
                chart.sqrt_jet(t, 0.0)
            assert type(raised.value) is DomainError
