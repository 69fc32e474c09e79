import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvlab.jets import DomainError
from cvlab.model import chart_from_expression
from cvlab.quadrature import (
    DEFAULT_TOL,
    NotMonotone,
    Tolerance,
    _panel_1d,
    estimate_tail_limit,
    integrate_annulus,
    integrate_circle,
    integrate_improper,
)
from cvlab.zoo import paraboloid_radius_oracle, zoo_entry

TWO_PI = 2.0 * math.pi


class TestCircle:
    def test_constant(self):
        res = integrate_circle(lambda theta: 1.0)
        assert res.converged
        assert res.value == pytest.approx(TWO_PI, abs=1e-12)

    def test_cosine_squared(self):
        res = integrate_circle(lambda theta: np.cos(theta) ** 2)
        assert res.value == pytest.approx(math.pi, abs=1e-10)

    def test_paraboloid_parallel_circumference(self):
        # closed-form oracle: the parallel at height h has radius r(h)
        entry = zoo_entry("paraboloid")
        end = entry.model.ends[0]
        res = integrate_circle(lambda theta: end.sqrt_jet(1.0, theta).f)
        expected = TWO_PI * paraboloid_radius_oracle(1.0)
        assert res.value == pytest.approx(expected, abs=1e-8)

    def test_error_estimate_honest_on_peaked_integrand(self):
        res = integrate_circle(lambda theta: np.exp(-80.0 * (theta - 3.0) ** 2))
        exact = math.sqrt(math.pi / 80.0)  # tails beyond [0, 2pi] are ~1e-270
        assert abs(res.value - exact) <= max(res.error_estimate, 1e-10)

    def test_domain_error_propagates(self):
        def bad(theta):
            raise DomainError("boom")

        with pytest.raises(DomainError):
            integrate_circle(bad)

    def test_budget_exhaustion_reports_nonconverged(self):
        tol = Tolerance(abs_tol=1e-15, rel_tol=1e-15, max_evaluations=200)
        res = integrate_circle(lambda theta: np.sin(7 * theta) ** 4 + theta, tol)
        assert not res.converged
        assert res.evaluations <= 200


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-5.0, max_value=5.0),
            st.floats(min_value=-5.0, max_value=5.0),
        ),
        min_size=0,
        max_size=6,
    ),
    st.floats(min_value=-10.0, max_value=10.0),
)
@settings(max_examples=80, deadline=None)
def test_trig_polynomials_integrate_to_constant_term(coeffs, constant):
    # over a full period every pure harmonic integrates to zero
    def f(theta):
        total = constant
        for n, (a, b) in enumerate(coeffs, start=1):
            total += a * np.cos(n * theta) + b * np.sin(n * theta)
        return total

    res = integrate_circle(f)
    expected = constant * TWO_PI
    assert abs(res.value - expected) <= max(res.error_estimate * 10, 1e-9)


class TestPanelExactness:
    @pytest.mark.parametrize("degree", range(14))
    def test_polynomials_exact_on_single_panel(self, degree):
        value, err, _ = _panel_1d(lambda x: x**degree, 0.0, TWO_PI)
        exact = TWO_PI ** (degree + 1) / (degree + 1)
        assert value == pytest.approx(exact, rel=1e-13)


class TestAnnulus:
    def test_zero_integrand(self):
        res = integrate_annulus(lambda t, theta: 0.0, 0.0, 5.0)
        assert res.value == 0.0
        assert res.converged

    def test_flat_cylinder_curvature_density(self):
        end = zoo_entry("flat-cylinder").model.ends[0]
        res = integrate_annulus(lambda t, theta: -end.sqrt_jet(t, theta).d2, 0.0, 4.0)
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_cusp_band_matches_hand_integral(self):
        # integrand K*sqrt(G) = -e^{-t}; over [0,1] x circle this gives
        # -2*pi*(1 - 1/e)
        end = chart_from_expression("exp(-2*t)")
        res = integrate_annulus(lambda t, theta: -end.sqrt_jet(t, theta).d2, 0.0, 1.0)
        assert res.value == pytest.approx(-TWO_PI * (1.0 - math.exp(-1.0)), abs=1e-8)

    def test_theta_dependence(self):
        res = integrate_annulus(lambda t, theta: t * np.sin(theta) ** 2, 0.0, 2.0)
        assert res.value == pytest.approx(2.0 * math.pi, rel=1e-9)

    def test_additivity(self):
        end = chart_from_expression("exp(-2*t)")
        f = lambda t, theta: -end.sqrt_jet(t, theta).d2
        left = integrate_annulus(f, 0.0, 1.3)
        right = integrate_annulus(f, 1.3, 3.0)
        whole = integrate_annulus(f, 0.0, 3.0)
        combined_err = left.error_estimate + right.error_estimate + whole.error_estimate
        assert abs(left.value + right.value - whole.value) <= combined_err + 1e-13

    def test_degenerate_band(self):
        res = integrate_annulus(lambda t, theta: 1.0, 2.0, 2.0)
        assert res.value == 0.0 and res.converged

    def test_monotone_refinement_on_closed_form(self):
        end = chart_from_expression("exp(-2*t)")
        f = lambda t, theta: -end.sqrt_jet(t, theta).d2
        exact = -TWO_PI * (1.0 - math.exp(-2.0))
        errors = []
        for abs_tol in (1e-3, 1e-5, 1e-7, 1e-9):
            res = integrate_annulus(f, 0.0, 2.0, Tolerance(abs_tol=abs_tol))
            errors.append(abs(res.value - exact))
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= coarse + 1e-12


class TestImproper:
    def test_zero(self):
        res = integrate_improper(lambda t, theta: 0.0, 0.0)
        assert res.converged
        assert res.value == 0.0

    def test_exponential_tail(self):
        res = integrate_improper(lambda t, theta: np.exp(-t), 0.0)
        assert res.converged
        assert res.value == pytest.approx(TWO_PI, rel=1e-8)

    def test_paraboloid_full_end_curvature(self):
        # Gauss-map image of the full paraboloid is an open hemisphere
        end = zoo_entry("paraboloid").model.ends[0]
        res = integrate_improper(
            lambda t, theta: -end.sqrt_jet(t, theta).d2, 1e-6,
            Tolerance(abs_tol=1e-8, rel_tol=1e-8),
        )
        assert res.converged
        assert res.value == pytest.approx(TWO_PI, abs=1e-6)

    def test_flared_end_diverges_downward(self):
        end = chart_from_expression("exp(t^2)")
        res = integrate_improper(lambda t, theta: -end.sqrt_jet(t, theta).d2, 0.0)
        assert not res.converged
        assert res.divergence == "-inf"
        assert len(res.partial_sums) >= 3
        sums = [s for _, s in res.partial_sums]
        assert sums[-1] < sums[0]

    def test_oscillatory_growth_detected(self):
        res = integrate_improper(
            lambda t, theta: np.sin(math.pi * t) * np.exp(0.5 * t), 0.0
        )
        assert not res.converged
        assert res.divergence is not None

    def test_converged_error_estimate_meets_tolerance(self):
        tol = Tolerance()
        for decay in (lambda t: np.exp(-t), lambda t: (1.0 + t) ** -3):
            res = integrate_improper(lambda t, theta: decay(t), 0.0, tol)
            assert res.converged
            assert res.error_estimate <= max(tol.abs_tol, tol.rel_tol * abs(res.value))


class TestTailLimit:
    def test_constant_sequence(self):
        samples = [(h, TWO_PI) for h in (1.0, 2.0, 4.0, 8.0, 16.0)]
        limit, err = estimate_tail_limit(samples, 0.5)
        assert limit == pytest.approx(TWO_PI)
        assert err <= 1e-9

    def test_paraboloid_tail_extrapolates_to_zero(self):
        entry = zoo_entry("paraboloid")
        samples = [(h, entry.oracle.lam(h)) for h in [2.0**k for k in range(11)]]
        limit, err = estimate_tail_limit(samples, 0.0)
        assert abs(limit) < 1e-3
        assert abs(limit) <= err + 1e-12

    def test_increasing_sequence_raises(self):
        samples = [(float(h), -TWO_PI * math.exp(-h)) for h in range(1, 8)]
        with pytest.raises(NotMonotone):
            estimate_tail_limit(samples, 0.0)

    def test_needs_three_tail_samples(self):
        with pytest.raises(ValueError):
            estimate_tail_limit([(1.0, 1.0), (2.0, 0.9)], 0.0)

    def test_permutation_insensitive_below_threshold(self):
        decay = [(float(h), 2.0 ** -h) for h in range(1, 10)]
        junk_a = [(0.1, 99.0), (0.5, -3.0)]
        junk_b = [(0.5, -3.0), (0.1, 99.0)]
        a = estimate_tail_limit(junk_a + decay, 0.9)
        b = estimate_tail_limit(junk_b + decay, 0.9)
        assert a == b

    def test_noise_tolerates_small_bumps(self):
        samples = [(1.0, 5.0), (2.0, 4.0), (3.0, 4.0 + 1e-12), (4.0, 4.0)]
        limit, _ = estimate_tail_limit(samples, 0.0, noise=1e-9)
        assert limit == pytest.approx(4.0)


def test_results_are_deterministic():
    f = lambda theta: np.sin(3 * theta) ** 2 + 0.25
    a = integrate_circle(f)
    b = integrate_circle(f)
    assert (a.value, a.error_estimate, a.evaluations) == (
        b.value,
        b.error_estimate,
        b.evaluations,
    )


def test_tolerance_invariants():
    with pytest.raises(ValueError):
        Tolerance(abs_tol=0.0)
    with pytest.raises(ValueError):
        Tolerance(rel_tol=2.0)
    with pytest.raises(ValueError):
        Tolerance(max_evaluations=10)
    assert DEFAULT_TOL.abs_tol == 1e-9
    assert DEFAULT_TOL.rel_tol == 1e-8
    assert DEFAULT_TOL.max_evaluations == 2_000_000
