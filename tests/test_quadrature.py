import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.special import i0
from hypothesis import strategies as st

import cvlab.quadrature as quadrature
import cvlab.sweep as sweep
from cvlab.cli import RunConfig
from cvlab.jets import DomainError
from cvlab.model import AnalyticCore, SurfaceModel, chart_from_expression
from cvlab.quadrature import (
    DEFAULT_TOL,
    ImproperResult,
    NotMonotone,
    Tolerance,
    _divergence_direction,
    _geometric_tail,
    estimate_tail_limit,
    integrate_bands,
    integrate_circles,
)
from cvlab.zoo import paraboloid_radius_oracle, zoo_entry
from conftest import walk_from

TWO_PI = 2.0 * math.pi


class TestCircle:
    def test_constant(self):
        res = integrate_circles(lambda _, theta: 1.0, [0.0])[0]
        assert res.converged
        assert res.value == pytest.approx(TWO_PI, abs=1e-12)

    def test_cosine_squared(self):
        res = integrate_circles(lambda _, theta: np.cos(theta) ** 2, [0.0])[0]
        assert res.value == pytest.approx(math.pi, abs=1e-10)

    def test_paraboloid_parallel_circumference(self):
        # closed-form oracle: the parallel at height h has radius r(h)
        entry = zoo_entry("paraboloid")
        end = entry.model.ends[0]
        res = integrate_circles(lambda _, theta: end.sqrt_jet(1.0, theta).f, [0.0])[0]
        expected = TWO_PI * paraboloid_radius_oracle(1.0)
        assert res.value == pytest.approx(expected, abs=1e-8)

    def test_error_estimate_honest_on_peaked_integrand(self):
        res = integrate_circles(lambda _, theta: np.exp(-80.0 * (theta - 3.0) ** 2), [0.0])[0]
        exact = math.sqrt(math.pi / 80.0)  # tails beyond [0, 2pi] are ~1e-270
        assert abs(res.value - exact) <= max(res.error_estimate, 1e-10)

    def test_domain_error_propagates(self):
        def bad(_, theta):
            raise DomainError("boom")

        with pytest.raises(DomainError):
            integrate_circles(bad, [0.0])

    def test_column_answer_is_its_own_mean(self):
        # no theta axis: 2*pi times the answer, exact, at one evaluation,
        # and inf past double range
        res = integrate_circles(lambda p, theta: p, [3.0, 1e308])
        assert [tuple(r) for r in res] == [(TWO_PI * 3.0, 0.0, 1, True), (math.inf, 0.0, 1, True)]

    def test_budget_exhaustion_reports_nonconverged(self):
        tol = Tolerance(abs_tol=1e-15, rel_tol=1e-15, max_evaluations=200)
        res = integrate_circles(lambda _, theta: np.sin(7 * theta) ** 4 + theta, [0.0], tol)[0]
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
    def f(_, theta):
        total = constant
        for n, (a, b) in enumerate(coeffs, start=1):
            total += a * np.cos(n * theta) + b * np.sin(n * theta)
        return total

    res = integrate_circles(f, [0.0])[0]
    expected = constant * TWO_PI
    assert abs(res.value - expected) <= max(res.error_estimate * 10, 1e-9)


class TestPanelExactness:
    @pytest.mark.parametrize("degree", range(14))
    def test_polynomials_exact_on_single_panel(self, degree):
        value, _, _, _ = quadrature._band_panels(
            lambda t, theta: t**degree, np.array([0.0]), np.array([TWO_PI]), [quadrature._FLOOR]
        )
        exact = TWO_PI * TWO_PI ** (degree + 1) / (degree + 1)
        assert value[0] == pytest.approx(exact, rel=1e-13)


def per_panel_1d(values, a, b):
    """The 1-D rule one panel at a time, as before it was stacked: per
    panel ``2*pi`` times the Kronrod value and the Kronrod-Gauss
    difference."""
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    fv = np.empty((a.size, 15))
    fv[...] = values(mid[:, None] + half[:, None] * quadrature._XGK)
    out = []
    for h, row in zip(half.tolist(), fv):
        kron = h * float(quadrature._WGK @ row)
        gauss = h * float(quadrature._WG7 @ row[np.arange(1, 15, 2)])
        out.append((TWO_PI * kron, TWO_PI * abs(kron - gauss)))
    return out


def stacked_1d(values, a, b):
    """:func:`quadrature._band_panels` on the column answer ``values(t)``
    as ``(value, error)`` per panel; every panel costs 15 evaluations and
    splits in t."""
    column = lambda t, theta: values(t[..., 0])[..., None]
    value, error, cost, split = quadrature._band_panels(
        column, a, b, [quadrature._FLOOR] * a.size
    )
    assert cost == [15] * a.size and split == [True] * a.size
    return list(zip(value.tolist(), error.tolist()))


def per_panel_theta(f, jobs):
    """The band rule one panel at a time: GK15 in t of both theta rules'
    means, each panel its own call of ``f``."""
    wgk, wg7 = quadrature._WGK, quadrature._WG7
    out = []
    for _, (a, b, n) in jobs:
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        grid = np.empty((15, 2 * n))
        grid[...] = f((mid + half * quadrature._XGK)[:, None], quadrature._thetas(n)[None, :])
        plain = np.array([row[:n].sum() / n for row in grid])
        rotated = np.array([row[n:].sum() / n for row in grid])
        kron = half * float(wgk @ plain)
        gauss = half * float(wg7 @ plain[np.arange(1, 15, 2)])
        t_err = TWO_PI * abs(kron - gauss)
        theta_err = TWO_PI * half * float(wgk @ np.abs(plain - rotated))
        children = ((a, mid, n), (mid, b, n)) if t_err >= theta_err else ((a, b, 2 * n),)
        out.append((TWO_PI * kron, t_err + theta_err, 30 * n, children))
    return out


def stacked_band_rows(f, jobs):
    """The stacked band rule's columns as per-panel rows, each with the
    children the driver makes from its split."""
    a, b, levels = zip(*(box for _, box in jobs))
    value, error, cost, split = quadrature._band_panels(f, np.array(a), np.array(b), levels)
    rows = zip(jobs, value.tolist(), error.tolist(), cost, split)
    return [(v, e, c, quadrature._children(*box, s)) for (_, box), v, e, c, s in rows]


class TestStackedPanels:
    """The stacked band rule against the per-panel loop, bit for bit."""

    @staticmethod
    def random_jobs(rng, count):
        lo = rng.uniform(0.0, 50.0, count)
        width = rng.uniform(1e-3, 20.0, count)
        levels = rng.choice([8, 16, 32], count)
        return [(k, (float(a), float(a + w), int(n))) for k, (a, w, n) in enumerate(zip(lo, width, levels))]

    @pytest.mark.parametrize("count", [1, 2, 15, 64])
    def test_random_grids_match_per_panel_loop(self, count):
        # the values are a function of the node, so the per-panel calls see
        # the same numbers; only correctly rounded operations, so no
        # vectorised math routine can round a row differently
        rng = np.random.default_rng(count)
        for _ in range(20):
            jobs = self.random_jobs(rng, count)
            c = rng.uniform(-3.0, 3.0, 3)
            f = lambda t, s: (t * t - c[0] * t + 1.0 / (t - 25.5)) * (s * s * s - c[1] * s + c[2])
            assert stacked_band_rows(f, jobs) == per_panel_theta(f, jobs)

    def test_integrand_on_nodes_matches_per_panel_loop(self):
        jobs = self.random_jobs(np.random.default_rng(7), 40)
        f = lambda t, s: t * t * (1.0 + 0.3 * s * (TWO_PI - s) / (1.0 + t))
        assert stacked_band_rows(f, jobs) == per_panel_theta(f, jobs)

    def test_constant_grid_ties_split_in_t(self):
        # t error == theta error == 0: the tie goes to the t-halves
        jobs = [(0, (0.0, 2.0, 8)), (1, (1.0, 3.0, 16))]
        got = stacked_band_rows(lambda t, s: 1.5 + 0.0 * s, jobs)
        assert got == per_panel_theta(lambda t, s: 1.5 + 0.0 * s, jobs)
        assert [children for *_, children in got] == [
            ((0.0, 1.0, 8), (1.0, 2.0, 8)),
            ((1.0, 2.0, 16), (2.0, 3.0, 16)),
        ]

    def test_larger_theta_error_doubles_the_level(self):
        jobs = [(0, (0.0, 1.0, 8))]
        got = stacked_band_rows(lambda t, s: np.exp(4.0 * np.cos(s)) + t, jobs)
        assert got == per_panel_theta(lambda t, s: np.exp(4.0 * np.cos(s)) + t, jobs)
        assert got[0][3] == ((0.0, 1.0, 16),)


class TestStackedPanels1d:
    """The stacked 1-D rule against the per-panel loop, bit for bit."""

    @pytest.mark.parametrize("scale", [1.0, TWO_PI])
    @pytest.mark.parametrize("count", [1, 2, 15, 64])
    def test_random_rows_match_per_panel_loop(self, count, scale):
        # rows with and without a factor 2*pi: the rule's own factor 2*pi
        # multiplies the Kronrod sum, never the rows
        rng = np.random.default_rng(count)
        for _ in range(20):
            lo = rng.uniform(-50.0, 50.0, count)
            hi = lo + rng.uniform(1e-6, 30.0, count)
            rows = scale * 10.0 ** rng.uniform(-8, 8, (count, 1)) * rng.standard_normal((count, 15))
            f = lambda x: rows
            assert stacked_1d(f, lo, hi) == per_panel_1d(f, lo, hi)

    def test_integrand_on_nodes_matches_per_panel_loop(self):
        rng = np.random.default_rng(7)
        lo = rng.uniform(0.0, 20.0, 40)
        hi = lo + 0.5 * np.arange(40) + 0.1
        f = lambda t: t * t * np.exp(-0.3 * t) * np.cos(3.0 * t)
        assert stacked_1d(f, lo, hi) == per_panel_1d(f, lo, hi)


class TestAnnulus:
    def test_zero_integrand(self):
        res = integrate_bands(lambda t, theta: 0.0, [0.0, 5.0])[0]
        assert res.value == 0.0
        assert res.converged

    def test_flat_cylinder_curvature_density(self):
        end = zoo_entry("flat-cylinder").model.ends[0]
        res = integrate_bands(lambda t, theta: -end.sqrt_jet(t, theta).d2, [0.0, 4.0])[0]
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_cusp_band_matches_hand_integral(self):
        # integrand K*sqrt(G) = -e^{-t}; over [0,1] x circle this gives
        # -2*pi*(1 - 1/e)
        end = chart_from_expression("exp(-2*t)")
        res = integrate_bands(lambda t, theta: -end.sqrt_jet(t, theta).d2, [0.0, 1.0])[0]
        assert res.value == pytest.approx(-TWO_PI * (1.0 - math.exp(-1.0)), abs=1e-8)

    def test_theta_dependence(self):
        res = integrate_bands(lambda t, theta: t * np.sin(theta) ** 2, [0.0, 2.0])[0]
        assert res.value == pytest.approx(2.0 * math.pi, rel=1e-9)

    def test_additivity(self):
        end = chart_from_expression("exp(-2*t)")
        f = lambda t, theta: -end.sqrt_jet(t, theta).d2
        left = integrate_bands(f, [0.0, 1.3])[0]
        right = integrate_bands(f, [1.3, 3.0])[0]
        whole = integrate_bands(f, [0.0, 3.0])[0]
        combined_err = left.error_estimate + right.error_estimate + whole.error_estimate
        assert abs(left.value + right.value - whole.value) <= combined_err + 1e-13

    def test_degenerate_band(self):
        res = integrate_bands(lambda t, theta: 1.0, [2.0, 2.0])[0]
        assert res.value == 0.0 and res.converged

    @pytest.mark.parametrize("theta_free", [True, False])
    @pytest.mark.parametrize("edges", [[1e308, math.inf], [0.0, 1.0, math.inf], [-math.inf, 0.0]])
    def test_infinite_edge_is_refused_before_any_evaluation(self, edges, theta_free):
        # no panel is formed, so no node arithmetic can warn first, whether
        # the integrand would answer with a theta axis or without one
        evaluated = []

        def f(t, theta):
            evaluated.append(t)
            return np.exp(-t) if theta_free else np.exp(-t) + 0.0 * theta

        band = next(b for b in zip(edges, edges[1:]) if math.isinf(b[0]) or math.isinf(b[1]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as got:
                integrate_bands(f, edges)
        assert str(got.value) == f"infinite edge on band {band}"
        assert evaluated == []

    def test_monotone_refinement_on_closed_form(self):
        end = chart_from_expression("exp(-2*t)")
        f = lambda t, theta: -end.sqrt_jet(t, theta).d2
        exact = -TWO_PI * (1.0 - math.exp(-2.0))
        errors = []
        for abs_tol in (1e-3, 1e-5, 1e-7, 1e-9):
            res = integrate_bands(f, [0.0, 2.0], Tolerance(abs_tol=abs_tol))[0]
            errors.append(abs(res.value - exact))
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= coarse + 1e-12


# fixed integrands f(t, theta); the circle tests read them at t = 1.25
PINNED_INTEGRANDS = {
    "peaked": lambda t, theta: np.exp(-20.0 * ((t - 1.0) ** 2 + (theta - 3.0) ** 2)),
    "oscillatory": lambda t, theta: np.sin(3.0 * t) * np.cos(7.0 * theta) ** 2 + 0.1 * t,
    "theta-dependent": lambda t, theta: (
        t**2 * (1.0 + 0.3 * np.sin(2.0 * theta) * np.exp(-t)) ** 2
    ),
}


class TestAdaptiveDriver:
    """Pin the worst-first driver: split order, stopping rule and the
    exact sums it returns, not just agreement with closed forms."""

    @pytest.mark.parametrize(
        "name, expected",
        [
            ("peaked", (0.11355122822910563, 2.179917811255395e-17, 128)),
            ("oscillatory", (-1.0102146766395936, 1.3951473992034527e-15, 16)),
            ("theta-dependent", (9.853741083996557, 2.7902947984069054e-15, 16)),
        ],
    )
    def test_circle_pinned(self, name, expected):
        f = PINNED_INTEGRANDS[name]
        res = integrate_circles(f, [1.25])[0]
        assert res.converged
        assert (res.value, res.error_estimate, res.evaluations) == expected

    @pytest.mark.parametrize(
        "name, expected",
        [
            ("peaked", (0.15695668615116187, 4.107389973809983e-10, 18960)),
            ("oscillatory", (1.5960357605236961, 3.990414974827157e-13, 720)),
            ("theta-dependent", (32.51932261847524, 1.4216668350140121e-11, 240)),
        ],
    )
    def test_annulus_pinned(self, name, expected):
        res = integrate_bands(PINNED_INTEGRANDS[name], [0.5, 2.5])[0]
        assert res.converged
        assert (res.value, res.error_estimate, res.evaluations) == expected

    def test_annulus_stops_before_exceeding_budget(self):
        # refining a panel costs twice that panel, at 30 evaluations per
        # point of a theta rule; the driver stops before a refinement that
        # would overrun the budget
        tol = Tolerance(max_evaluations=1000)
        res = integrate_bands(PINNED_INTEGRANDS["peaked"], [0.5, 2.5], tol)[0]
        assert not res.converged
        assert res.evaluations == 720  # a panel at 8 points and two at 16
        assert res.evaluations <= 1000 < res.evaluations + 2 * 30 * 16

    def test_equal_errors_split_the_older_panel_first(self):
        # a constant gives both halves of the starting panel the same error
        # estimate; the unreachable tolerance lets the budget stop the driver
        left_half = []

        def recording(t, theta):
            left_half.extend(bool(row.max() <= 1.0) for row in t)
            return np.ones_like(t)

        tol = Tolerance(abs_tol=1e-300, rel_tol=1e-300, max_evaluations=100)
        res = integrate_bands(recording, [0.0, 2.0], tol)[0]  # a column answer
        assert not res.converged
        assert res.evaluations == 75
        assert left_half == [False, True, False, True, True]

    @staticmethod
    def _panel_shapes(f, t_lo, t_hi):
        shapes = []

        def recording(t, theta):
            # one row per panel of the round at this call's theta level
            shapes.extend(((tp.min(), tp.max()), theta.size) for tp in t)
            return f(t, theta)

        res = integrate_bands(recording, [t_lo, t_hi])[0]
        assert res.converged
        assert len(shapes) > 1
        return shapes

    def test_theta_only_integrand_never_split_in_t(self):
        # its t error vanishes, so each refinement doubles the theta level
        shapes = self._panel_shapes(
            lambda t, theta: np.exp(-20.0 * (theta - 3.0) ** 2) + 0.0 * t, 0.5, 2.5
        )
        assert len({t_range for t_range, _ in shapes}) == 1
        assert [angles for _, angles in shapes] == [16, 32, 64, 128]

    def test_t_only_integrand_never_split_in_theta(self):
        # its two theta rules agree to the bit, so every refinement halves t
        shapes = self._panel_shapes(
            lambda t, theta: np.exp(-20.0 * (t - 1.0) ** 2) + 0.0 * theta, 0.0, 2.0
        )
        assert {angles for _, angles in shapes} == {16}
        assert len({t_range for t_range, _ in shapes}) > 1


class TestImproper:
    def test_zero(self):
        res = walk_from(lambda t, theta: 0.0, 0.0)
        assert res.converged
        assert res.value == 0.0

    def test_exponential_tail(self):
        res = walk_from(lambda t, theta: np.exp(-t), 0.0)
        assert res.converged
        assert res.value == pytest.approx(TWO_PI, rel=1e-8)

    def test_paraboloid_full_end_curvature(self):
        # Gauss-map image of the full paraboloid is an open hemisphere
        end = zoo_entry("paraboloid").model.ends[0]
        res = walk_from(
            lambda t, theta: -end.sqrt_jet(t, theta).d2, 1e-6,
            Tolerance(abs_tol=1e-8, rel_tol=1e-8),
        )
        assert res.converged
        assert res.value == pytest.approx(TWO_PI, abs=1e-6)

    @pytest.mark.parametrize("t_lo", [1e17, 2.0**53 + 2.0])
    def test_far_chart_edge_skips_windows_that_round_away(self, t_lo):
        # t_lo + 2^k rounds to t_lo for small k; at 2^53 + 2, t_lo + 1
        # rounds up onto t_lo + 2, which would repeat an edge
        res = walk_from(lambda t, theta: np.exp(-(t - t_lo) / 64.0), t_lo)
        ends = [t_lo] + [end for end, _ in res.partial_sums]
        assert all(hi > lo for lo, hi in zip(ends, ends[1:]))
        assert res.converged and res.divergence is None
        # the nodes themselves round to the grid of t_lo, so the value is
        # only near 2*pi*64
        assert res.value == pytest.approx(TWO_PI * 64.0, rel=0.05)

    def test_flared_end_diverges_downward(self):
        end = chart_from_expression("exp(t^2)")
        res = walk_from(lambda t, theta: -end.sqrt_jet(t, theta).d2, 0.0)
        assert not res.converged
        assert res.divergence == "-inf"
        assert len(res.partial_sums) >= 3
        sums = [s for _, s in res.partial_sums]
        assert sums[-1] < sums[0]

    def test_oscillatory_growth_detected(self):
        res = walk_from(
            lambda t, theta: np.sin(math.pi * t) * np.exp(0.5 * t), 0.0
        )
        assert not res.converged
        assert res.divergence is not None

    def test_alternating_growth_is_oscillatory(self):
        # t^2, negated on [2, 4), [8, 16), ...: the densities of the windows
        # [0, 1], [1, 2], [2, 4], [4, 8] grow more than 1.5-fold each, with
        # the signs + + - +, so the fourth window ends the walk
        def f(t, theta):
            return np.where(np.floor(np.log2(np.maximum(t, 1.0))) % 2 == 1, -1.0, 1.0) * t**2

        res = walk_from(f, 0.0)
        assert (res.converged, res.divergence) == (False, "oscillatory")
        assert (len(res.partial_sums), res.evaluations) == (4, 90)

    @pytest.mark.parametrize("theta_free", [False, True])
    def test_integrand_gets_batched_nodes(self, theta_free):
        # the windows run in look-ahead chunks, one band batch each: a
        # chunk's first panels come as one row per window, at most
        # _MAX_WINDOWS, and each later round brings at most two panels per
        # window still refining, one call per theta level; a column answer
        # never leaves the floor level
        shapes = []

        def recording(t, theta):
            shapes.append((np.shape(t), np.shape(theta)))
            peaked = (1.0 + t) ** -3 + np.exp(-40.0 * (t - 1.3) ** 2)
            return peaked if theta_free else peaked * (1.0 + 0.5 * np.cos(theta) ** 2)

        res = walk_from(recording, 0.0)
        assert res.converged
        angles = [16] if theta_free else [16 * 2**i for i in range(8)]
        allowed = {
            ((j, 15, 1), (1, 1, m)) for j in range(1, 2 * quadrature._MAX_WINDOWS + 1) for m in angles
        }
        assert shapes[0] == ((2, 15, 1), (1, 1, 16))
        assert set(shapes) <= allowed

    def test_lower_end_past_every_window_gives_an_unconverged_zero(self):
        # each of the _MAX_WINDOWS edges t_lo + 2^k, k < 64, rounds back onto 1e300
        res = walk_from(lambda t, theta: np.exp(-t), 1e300)
        assert (res.value, res.evaluations, res.converged) == (0.0, 0, False)

    def test_converged_error_estimate_meets_tolerance(self):
        tol = Tolerance()
        for decay in (lambda t: np.exp(-t), lambda t: (1.0 + t) ** -3):
            res = walk_from(lambda t, theta: decay(t), 0.0, tol)
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
    f = lambda _, theta: np.sin(3 * theta) ** 2 + 0.25
    a = integrate_circles(f, [0.0])[0]
    b = integrate_circles(f, [0.0])[0]
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


# t-only integrands f(t, theta) that answer with a theta axis; at theta = 0
# they answer a column, whose band is 2*pi times a 1-D rule
T_ONLY_INTEGRANDS = {
    "peaked": lambda t, theta: np.exp(-20.0 * (t - 1.0) ** 2) + 0.0 * theta,
    "oscillatory": lambda t, theta: np.sin(3.0 * t) + 0.1 * t + 0.0 * theta,
    "growing": lambda t, theta: t**2 * (1.0 + 0.3 * np.exp(-t)) ** 2 + 0.0 * theta,
    "cusp-density": lambda t, theta: -np.exp(-t) + 0.0 * theta,
}


def column(f):
    """``f`` read at theta = 0 alone: the same values, answered as a column."""
    return lambda t, theta: f(t, 0.0)


class TestThetaFree:
    @pytest.mark.parametrize("name", sorted(T_ONLY_INTEGRANDS))
    def test_band_matches_2d_on_the_same_panel_tree(self, name):
        f = T_ONLY_INTEGRANDS[name]
        full = integrate_bands(f, [0.5, 2.5])[0]
        flat = integrate_bands(column(f), [0.5, 2.5])[0]
        assert full.converged and flat.converged
        assert flat.value == pytest.approx(full.value, rel=1e-12, abs=0.0)
        assert flat.evaluations * 2 * quadrature._FLOOR == full.evaluations

    def test_improper_windows_collapse(self):
        f = T_ONLY_INTEGRANDS["cusp-density"]
        full = walk_from(f, 0.0)
        flat = walk_from(column(f), 0.0)
        assert flat.converged and full.converged
        assert flat.value == pytest.approx(-TWO_PI, abs=1e-8)
        assert flat.value == pytest.approx(full.value, rel=1e-12)
        assert flat.evaluations * 2 * quadrature._FLOOR == full.evaluations
        assert len(flat.partial_sums) == len(full.partial_sums)


class TestStartingBudget:
    def test_budget_below_the_first_2d_panel_is_refused(self):
        f = T_ONLY_INTEGRANDS["peaked"]
        message = "max_evaluations=100 cannot pay for the 240 evaluations of the starting panels"
        with pytest.raises(ValueError, match=message):
            integrate_bands(f, [0.0, 2.0], Tolerance(max_evaluations=100))

    def test_same_budget_pays_for_a_theta_free_band(self):
        f = column(T_ONLY_INTEGRANDS["peaked"])
        res = integrate_bands(f, [0.0, 2.0], Tolerance(max_evaluations=100))[0]
        assert 15 <= res.evaluations <= 100
        assert res.value == pytest.approx(TWO_PI * math.sqrt(math.pi / 20.0), rel=1e-3)

    def test_circle_fits_the_floor(self):
        # both 8-point floor rules cost 16 of the minimum 100
        res = integrate_circles(
            lambda _, theta: np.cos(theta) ** 2, [0.0], Tolerance(max_evaluations=100)
        )[0]
        assert res.converged and res.evaluations <= 100


class TestThetaRule:
    """The rotated trapezoid pair behind every theta integral."""

    def test_no_frequency_aliases_unnoticed(self):
        # cos(k*theta) equals 1 on every node of a power-of-two rule whose
        # size divides k; the rotated rule moves, so the pair must either
        # refine past k or report an error that covers the miss
        ks = np.arange(1, 241)
        circles = integrate_circles(lambda k, theta: 1.0 + 0.5 * np.cos(k * theta), ks)
        band_exact = TWO_PI * (1.0 - math.exp(-1.0))
        missed = [
            ("circle", int(k), r)
            for k, r in zip(ks, circles)
            if r.converged and abs(r.value - TWO_PI) > 10.0 * r.error_estimate + 1e-9
        ]
        for k in ks:
            f = lambda t, theta: np.exp(-t) * (1.0 + 0.5 * np.cos(k * theta))
            r = integrate_bands(f, [0.0, 1.0])[0]
            if r.converged and abs(r.value - band_exact) > 10.0 * r.error_estimate + 1e-9:
                missed.append(("band", int(k), r))
        assert missed == []

    def test_blind_phase_stays_missed(self):
        # cos(8*theta + d) reads cos(d) on the 8-point rule and cos(d + 8*s)
        # on the rule rotated by s = _SHIFT; at d = pi - 4*s the two agree,
        # so the pair converges at its floor with the mean 1 + 0.5*cos(d),
        # off by 2*pi*0.5*cos(d) = 1.138 (README, the theta rule).  A
        # change that closes or moves this miss shows here
        d = math.pi - 4.0 * quadrature._SHIFT
        circle = integrate_circles(lambda _, theta: 1.0 + 0.5 * np.cos(8.0 * theta + d), [0.0])[0]
        assert (circle.converged, circle.evaluations) == (True, 16)
        assert circle.error_estimate < 1e-13
        assert circle.value - TWO_PI == pytest.approx(TWO_PI * 0.5 * math.cos(d), rel=1e-12)
        assert circle.value - TWO_PI == pytest.approx(1.1384, abs=1e-4)
        band = integrate_bands(
            lambda t, theta: np.exp(-t) * (1.0 + 0.5 * np.cos(8.0 * theta + d)), [0.0, 1.0]
        )[0]
        assert (band.converged, band.evaluations) == (True, 240)
        assert band.error_estimate < 1e-13
        assert band.value - TWO_PI * (1.0 - math.exp(-1.0)) == pytest.approx(0.7196, abs=1e-4)

    def test_smooth_periodic_integrand_converges_geometrically(self):
        # the trapezoid error on exp(4*cos(theta)) is about 4*pi*I_N(4):
        # 5e-8 at N = 16, below 1e-23 at N = 32.  The rotated rule's error
        # is that times cos(N*shift), so their distance, the estimate, is
        # 0.91 of the error at N = 16: within the verdicts' factor of 10
        f = lambda _, theta: np.exp(4.0 * np.cos(theta))
        exact = TWO_PI * i0(4.0)
        res = integrate_circles(f, [0.0])[0]
        assert res.converged and res.evaluations == 32
        assert res.error_estimate <= DEFAULT_TOL.target(exact)
        assert res.error_estimate < abs(res.value - exact) <= 10.0 * res.error_estimate
        tight = integrate_circles(f, [0.0], Tolerance(abs_tol=1e-15, rel_tol=1e-15))[0]
        assert tight.converged and tight.evaluations == 64
        assert tight.value == pytest.approx(exact, rel=1e-14)

    def test_kink_ends_unconverged_on_its_budget(self):
        # |cos| has kinks at pi/2 and 3*pi/2: the trapezoid error decays
        # only like N^-2, so no level within 1,000 evaluations meets 1e-8
        tol = Tolerance(max_evaluations=1000)
        res = integrate_circles(lambda _, theta: np.abs(np.cos(theta)), [0.0], tol)[0]
        assert not res.converged
        assert res.evaluations == 512  # doubling to 1,024 would pass the budget
        assert abs(res.value - 4.0) <= res.error_estimate

    def test_non_finite_value_names_the_t_interval(self):
        band = lambda t, theta: np.where(t > 2.5, np.nan, 1.0 + 0.0 * theta)
        with pytest.raises(DomainError) as got:
            integrate_bands(band, [2.0, 3.0])
        assert str(got.value) == "non-finite integrand value on panel (2.0, 3.0)"


def _outcome(res):
    return (res.value, res.error_estimate, res.evaluations, res.converged)


class TestLockstep:
    """The batched entry points run K integrals side by side; each result
    must equal, to the bit, that of a K = 1 call on that integral alone."""

    @pytest.mark.parametrize("name", sorted(PINNED_INTEGRANDS))
    def test_circles_match_lone_circles(self, name):
        f = PINNED_INTEGRANDS[name]
        params = [0.5, 1.25, 2.0, 3.0]
        batch = integrate_circles(f, params)
        assert [_outcome(r) for r in batch] == [
            _outcome(integrate_circles(f, [p])[0]) for p in params
        ]

    def test_circles_are_one_call_per_round(self):
        shapes = []

        def recording(p, theta):
            shapes.append((p.shape, theta.shape))
            return np.exp(p * (np.cos(theta - 3.0) - 1.0))

        batch = integrate_circles(recording, [1.0, 20.0, 80.0])
        # the first round holds both 8-point floor rules of every circle;
        # each later round the midpoints of both rules, on the circles
        # still running, so a round at level n brings 2*n new angles
        assert shapes == [((3, 1), (1, 16)), ((3, 1), (1, 16)), ((2, 1), (1, 32)), ((1, 1), (1, 64))]
        assert [r.evaluations for r in batch] == [32, 64, 128]
        assert all(r.converged for r in batch)

    @pytest.mark.parametrize("name", sorted(PINNED_INTEGRANDS))
    def test_bands_match_lone_annuli(self, name):
        f = PINNED_INTEGRANDS[name]
        edges = [0.5, 1.0, 1.0, 1.7, 2.5]
        batch = integrate_bands(f, edges, Tolerance(abs_tol=1e-7, rel_tol=1e-7))
        lone = [
            integrate_bands(f, [lo, hi], Tolerance(abs_tol=1e-7, rel_tol=1e-7))[0]
            for lo, hi in zip(edges, edges[1:])
        ]
        assert [_outcome(r) for r in batch] == [_outcome(r) for r in lone]
        assert batch[1].evaluations == 0

    @pytest.mark.parametrize("name", sorted(T_ONLY_INTEGRANDS))
    def test_theta_free_bands_match_lone_annuli(self, name):
        f = column(T_ONLY_INTEGRANDS[name])
        edges = [0.0, 0.5, 1.25, 2.5, 5.0]
        batch = integrate_bands(f, edges)
        lone = [integrate_bands(f, [lo, hi])[0] for lo, hi in zip(edges, edges[1:])]
        assert [_outcome(r) for r in batch] == [_outcome(r) for r in lone]
        assert all(r.evaluations % 15 == 0 and r.evaluations % 240 != 0 for r in batch)

    @pytest.mark.parametrize("theta_free", [True, False])
    def test_first_round_settles_beside_refining_bands(self, theta_free):
        # sqrt(|t - 2.5|) settles on the first panel of every band but the
        # one holding its kink; the first round settles those as arrays and
        # only the kinked band goes on to refine
        f = lambda t, theta: np.sqrt(np.abs(t - 2.5)) * (1.0 + 0.3 * np.cos(theta) ** 2)
        f = column(f) if theta_free else f
        edges = [0.0, 0.5, 1.0, 2.0, 3.0, 3.0, 4.0]
        batch = integrate_bands(f, edges)
        lone = [integrate_bands(f, [lo, hi])[0] for lo, hi in zip(edges, edges[1:])]
        assert [_outcome(r) for r in batch] == [_outcome(r) for r in lone]
        first = 15 if theta_free else 240
        assert [r.evaluations == first for r in batch] == [True, True, True, False, False, True]
        assert all(r.converged for r in batch)

    def test_decided_band_stops_on_its_first_panel(self):
        # exp(3t) passes |value| - error > 1e10 on its first panel on both
        # bands; a band without a magnitude refines to the tolerance
        f = lambda t, theta: np.exp(3.0 * t)
        edges = [0.0, 8.0, 12.0]
        free = integrate_bands(f, edges)
        assert [(r.evaluations, r.converged) for r in free] == [(75, True), (45, True)]
        batch = quadrature._bands(f, edges, DEFAULT_TOL, [math.inf, 1e10])
        assert _outcome(batch[0]) == _outcome(free[0])
        assert (batch[1].evaluations, batch[1].converged) == (15, False)
        assert abs(batch[1].value) - batch[1].error_estimate > 1e10
        lone = quadrature._bands(f, edges[1:], DEFAULT_TOL, [1e10])[0]
        assert _outcome(batch[1]) == _outcome(lone)

    @pytest.mark.parametrize("decided", [[], [1e10], [1e10, 1e10, 1e10]])
    def test_decided_needs_one_magnitude_per_band(self, decided):
        def f(t, theta):
            raise AssertionError("evaluated")

        with pytest.raises(ValueError, match="decided needs one magnitude per band"):
            quadrature._bands(f, [0.0, 8.0, 12.0], DEFAULT_TOL, decided)

    def test_band_nodes_are_batched(self):
        # with or without a theta axis in its answer, the integrand gets the
        # same nodes; a column answer costs 15 evaluations a panel, an odd
        # number of panels never a multiple of 240
        tol = Tolerance(abs_tol=1e-6, rel_tol=1e-6)
        for theta_term in (0.0, None):
            shapes = []

            def recording(t, theta):
                shapes.append((np.shape(t), np.shape(theta)))
                return np.exp(-t) if theta_term is None else np.exp(-t) + theta_term * theta

            bands = integrate_bands(recording, [0.0, 1.0, 2.0], tol)
            assert shapes[0] == ((2, 15, 1), (1, 1, 16))
            assert (bands[0].evaluations % 240 == 0) == (theta_term is not None)

    def test_exhausted_member_leaves_the_others_alone(self):
        # the sharp circle runs out of budget, the broad one converges; both
        # are periodic, a peak of width about p^-1/2 at theta = 3
        f = lambda p, theta: np.exp(p * (np.cos(theta - 3.0) - 1.0))
        tol = Tolerance(max_evaluations=150)
        batch = integrate_circles(f, [1.0, 400.0], tol)
        assert [r.converged for r in batch] == [True, False]
        assert batch[1].evaluations <= 150
        lone = [integrate_circles(f, [p], tol)[0] for p in (1.0, 400.0)]
        assert [_outcome(r) for r in batch] == [_outcome(r) for r in lone]

    def test_exhausted_band_leaves_the_others_alone(self):
        f = PINNED_INTEGRANDS["peaked"]
        tol = Tolerance(max_evaluations=1000)
        edges = [0.5, 1.5, 3.0, 4.0]
        batch = integrate_bands(f, edges, tol)
        assert [r.converged for r in batch] == [False, False, True]
        lone = [integrate_bands(f, [lo, hi], tol)[0] for lo, hi in zip(edges, edges[1:])]
        assert [_outcome(r) for r in batch] == [_outcome(r) for r in lone]

    def test_non_finite_member_fails_the_call(self):
        def circle(p, theta):
            return np.where(p == 2.0, np.nan, np.cos(theta) ** 2)

        with pytest.raises(DomainError):
            integrate_circles(circle, [1.0, 2.0, 3.0])

        def band(t, theta):
            return np.where(t > 2.0, np.inf, 1.0 + 0.0 * theta)

        with pytest.raises(DomainError):
            integrate_bands(band, [0.0, 1.0, 3.0])
        with pytest.raises(DomainError):
            integrate_bands(column(band), [0.0, 1.0, 3.0])
        with pytest.raises(DomainError):
            integrate_circles(lambda p, theta: np.where(p == 2.0, np.nan, 1.0), [1.0, 2.0])

    def test_empty_and_decreasing_edges(self):
        assert integrate_bands(lambda t, theta: 1.0, [1.0]) == []
        assert integrate_circles(lambda p, theta: 1.0, []) == []
        with pytest.raises(ValueError):
            integrate_bands(lambda t, theta: 1.0, [0.0, 2.0, 1.0])

    @pytest.mark.parametrize("theta_free", [True, False])
    def test_nan_edge_is_refused(self, theta_free):
        # hi < lo is False for NaN, so the order check alone would take
        # such a band as empty: a converged zero, with either answer shape
        f = (lambda t, theta: 1.0) if theta_free else (lambda t, theta: 1.0 + 0.0 * theta)
        with pytest.raises(ValueError, match="NaN"):
            integrate_bands(f, [0.0, math.nan, 1.0])


def per_window_improper(f, t_lo, tol=DEFAULT_TOL, starts=(0,)):
    """Reference: the improper walk with one band batch per window and no
    look-ahead.  The budget is shared out at the windows ``starts``
    where the walk checks it (its first by default), the start of each of
    its chunks and the end of its last: there the walk has integrated
    exactly the windows walked so far, and what is left is each window's
    budget up to the next start.  Each window gets the
    walk's decided magnitude: ``1e14`` plus ``|total|`` at a start,
    ``2e14`` elsewhere."""
    edges = t_lo
    total = 0.0
    quad_err = 0.0
    evals = 0
    increments, densities, trace = [], [], []
    accel_prev = None
    for k in range(64):
        upper = t_lo + 2.0**k
        decided = 2.0 * quadrature._DIVERGED
        if k in starts:
            decided = quadrature._DIVERGED + abs(total)
            left = tol.max_evaluations - evals
            if left < 100:
                break
            window_tol = Tolerance(
                abs_tol=max(tol.abs_tol / 8.0, 1e-15), rel_tol=tol.rel_tol, max_evaluations=left
            )
        try:
            part = quadrature._bands(f, (edges, upper), window_tol, [decided])[0]
        except (DomainError, OverflowError):
            direction = _divergence_direction(densities)
            if direction is not None:
                return ImproperResult(total, quad_err, evals, False, direction, tuple(trace))
            raise
        densities.append(part.value / (upper - edges))
        edges = upper
        evals += part.evaluations
        quad_err += part.error_estimate
        total += part.value
        increments.append(part.value)
        trace.append((upper, total))
        if abs(total) > quadrature._DIVERGED:
            direction = "+inf" if total > 0 else "-inf"
            return ImproperResult(total, quad_err, evals, False, direction, tuple(trace))
        direction = _divergence_direction(densities)
        if direction is not None:
            return ImproperResult(total, quad_err, evals, False, direction, tuple(trace))
        tail = _geometric_tail(increments)
        if tail is not None and accel_prev is not None:
            tail_est, tail_unc = tail
            accel = total + tail_est
            err = quad_err + tail_unc + abs(accel - accel_prev)
            if err <= tol.target(accel):
                return ImproperResult(accel, err, evals, True, None, tuple(trace))
        elif len(increments) >= 2:
            # both of the last two increments below tolerance, also on a
            # geometric model that has no drift yet
            last_two = max(abs(increments[-1]), abs(increments[-2]))
            err = quad_err + last_two
            if err <= tol.target(total):
                return ImproperResult(total, err, evals, True, None, tuple(trace))
        accel_prev = total + tail[0] if tail is not None else None
    tail = _geometric_tail(increments)
    value = total + tail[0] if tail is not None else total
    err = quad_err + (tail[1] if tail is not None else abs(increments[-1]) if increments else 0.0)
    return ImproperResult(value, err, evals, False, None, tuple(trace))


def _curvature_density_of(expr):
    end = chart_from_expression(expr)
    return lambda t, theta: -end.sqrt_jet(t, theta).d2


# (integrand, tolerance, windows walked or None when it diverges); all but
# stops-at-7-2d answer without a theta axis
LOOKAHEAD_CASES = {
    "stops-at-2": (lambda t, theta: 1e-13 * np.exp(-t), DEFAULT_TOL, 2),
    "stops-at-3": (lambda t, theta: np.maximum(1.0 - t, 0.0), DEFAULT_TOL, 3),
    "stops-at-7": (lambda t, theta: np.exp(-t), DEFAULT_TOL, 7),
    "stops-at-7-2d": (
        lambda t, theta: np.exp(-t) * (1.0 + 0.5 * np.cos(theta) ** 2), DEFAULT_TOL, 7
    ),
    "stops-at-23": (lambda t, theta: (1.0 + t) ** -1.45, DEFAULT_TOL, 23),
    "budget": (lambda t, theta: (1.0 + t) ** -1.45, Tolerance(max_evaluations=200), 8),
    "flared-exp-t2": (_curvature_density_of("exp(t^2)"), DEFAULT_TOL, None),
    "oscillatory": (lambda t, theta: np.sin(math.pi * t) * np.exp(0.5 * t), DEFAULT_TOL, None),
    "underflowing-exp-2t": (_curvature_density_of("exp(-2*t)"), DEFAULT_TOL, 7),
}


# the tail beyond h = 16 of one end at t_min = 0, on the CLI schedule:
# the windows of its one look-ahead chunk, and the value and error as
# float.hex of a converged walk, or its divergence.  The numbers are those
# of the walk in fixed chunks of two, then four windows, which took 3, 3,
# 1, 2 and 11 band batches here (one of the 3 raising)
SIZED_TAILS = {
    "exp(-2*t)": (3, ("-0x1.7b9c3f2b713a8p-21", "0x1.9bf9150ed5259p-35")),
    "1.2^2 + t^2": (15, ("-0x1.20503ca4428c5p-6", "0x1.291a419ac42eep-33")),
    "cosh(t)^2": (2, "-inf"),
    "(1 + t)^6": (18, "-inf"),
    "(1 + t)^4": (39, "-inf"),
}


class TestLookahead:
    """The improper windows run in look-ahead chunks; every outcome but the
    evaluation count must equal that of the per-window walk, and the
    count must cover every window integrated."""

    @staticmethod
    def _recorded(monkeypatch):
        calls = []
        integrate = quadrature._bands

        def recording(f, edges, tol, decided=None):
            try:
                results = integrate(f, edges, tol, decided)
            except (DomainError, OverflowError) as err:
                calls.append((list(edges), err))
                raise
            calls.append((list(edges), results))
            return results

        monkeypatch.setattr(quadrature, "_bands", recording)
        return calls

    @staticmethod
    def _starts(calls):
        """The window indices at which each chunk that answered starts and
        ends, on the windows ``[0, 1]`` and then ``[2^(k-1), 2^k]``: the
        walk checks its budget at each."""
        index = lambda t: 0 if t == 0.0 else int(math.log2(t)) + 1
        return {index(t) for edges, out in calls if isinstance(out, list) for t in (edges[0], edges[-1])}

    @pytest.mark.parametrize("name", sorted(LOOKAHEAD_CASES))
    def test_matches_per_window_walk(self, name, monkeypatch):
        f, tol, windows = LOOKAHEAD_CASES[name]
        calls = self._recorded(monkeypatch)
        got = walk_from(f, 0.0, tol)
        calls = calls[:]  # the reference's own calls are recorded too
        want = per_window_improper(f, 0.0, tol, self._starts(calls))
        outcome = lambda r: (r.value, r.error_estimate, r.converged, r.divergence, r.partial_sums)
        assert outcome(got) == outcome(want)
        assert got.evaluations == sum(
            r.evaluations for _, results in calls if isinstance(results, list) for r in results
        )
        assert got.evaluations >= want.evaluations
        if windows is not None:
            assert got.converged == (name != "budget")
            assert len(got.partial_sums) == windows
        else:
            assert got.divergence is not None

    @pytest.mark.parametrize("theta_free", [True, False])
    def test_budget_binds_all_but_the_last_chunk(self, theta_free, monkeypatch):
        # each window of a chunk may spend what the walk has left, and the
        # walk stops before a chunk once less than 100 is left: only the
        # last chunk can take it past the budget (one window per budget
        # used to take 4,140 evaluations on the column answer here)
        calls = self._recorded(monkeypatch)
        if theta_free:
            f, budget = lambda t, theta: np.sin(40.0 * t) * (1.0 + t) ** -1.1, 1000
        else:
            f, budget = lambda t, theta: (1.0 + t) ** -1.45 * (1.0 + 0.5 * np.cos(theta)), 630
        res = walk_from(f, 0.0, Tolerance(max_evaluations=budget))
        spent = [sum(r.evaluations for r in results) for _, results in calls]
        left = budget - sum(spent[:-1])
        assert not res.converged and res.divergence is None
        assert res.evaluations == sum(spent)
        assert left >= 100
        if theta_free:
            assert all(r.evaluations <= left for r in calls[-1][1])
        else:
            # the corner of a 2-D answer: 150 is left, less than one
            # 240-point starting panel, and each of the last chunk's four
            # windows still pays one
            assert (left, [r.evaluations for r in calls[-1][1]]) == (150, [240] * 4)
            assert res.evaluations == 1440

    @pytest.mark.parametrize("theta_free", [True, False])
    def test_readme_budget_examples_keep_their_numbers(self, theta_free):
        # value and error as float.hex, evaluations: those of the walk in
        # fixed chunks of two, then four windows; its second chunk, entered
        # with 490 or 150 left, holds four windows here too
        if theta_free:
            f, budget = lambda t, theta: np.sin(40.0 * t) * (1.0 + t) ** -1.1, 1000
            want = ("0x1.247da3b8778c3p-3", "0x1.928d44e2e6fb1p-5", 2370)
        else:
            f, budget = lambda t, theta: (1.0 + t) ** -1.45 * (1.0 + 0.5 * np.cos(theta)), 630
            want = ("0x1.d39b95459c4fap+3", "0x1.c6fc59ac0e439p-1", 1440)
        res = walk_from(f, 0.0, Tolerance(max_evaluations=budget))
        assert (res.value.hex(), res.error_estimate.hex(), res.evaluations) == want
        assert (res.converged, res.divergence, len(res.partial_sums)) == (False, None, 6)

    @pytest.mark.parametrize("expr", SIZED_TAILS)
    def test_known_bands_size_one_chunk_per_tail(self, expr, monkeypatch):
        # the direct route's walk beyond h = 16 knows the truncation's
        # bands, so its first chunk already reaches where the walk stops
        calls = self._recorded(monkeypatch)
        walks = []
        walk = sweep._integrate_windows
        monkeypatch.setattr(sweep, "_integrate_windows", lambda *args: walks.append(walk(*args)) or walks[-1])
        model = SurfaceModel(0, (chart_from_expression(expr),), AnalyticCore(0.0), "tail")
        sweep._measure(model, RunConfig("tail", h_max=16.0).schedule(), DEFAULT_TOL)
        (res,) = walks
        chunks = [(len(edges) - 1, type(out)) for edges, out in calls if edges[0] >= 16.0]
        windows, outcome = SIZED_TAILS[expr]
        assert chunks == [(windows, list)]
        if res.converged:
            assert (res.value.hex(), res.error_estimate.hex()) == outcome
        else:
            assert res.divergence == outcome

    def test_quiet_increments_stop_a_geometric_model_without_drift(self):
        # the tail of G = exp(-2t) beyond 16 on the windows [16, 32, 64,
        # 128, ...]: after three windows the increments look geometric but
        # have no drift yet, and the last two are below tolerance.  Stopping
        # there keeps the walk out of [128, 256]: the second derivative of
        # sqrt(G) overflows past t ~ 236
        density = _curvature_density_of("exp(-2*t)")
        edges = [16.0, *quadrature._doublings(0.0, 32.0)]
        res = quadrature._integrate_windows(density, edges, DEFAULT_TOL)
        assert res.converged
        assert res.partial_sums[-1][0] == 128.0
        assert res.value == pytest.approx(-TWO_PI * math.exp(-16.0), rel=1e-9)

    def test_decided_window_ends_a_funnel_walk(self, monkeypatch):
        # the direct route's tail of G = cosh(t)^2 beyond h = 16, on the
        # windows [16, 32, 64, ...]: the first panel of [16, 32] already
        # takes |total| past 1e14 by more than its error, so neither window
        # of the chunk is refined; refining both to 1e-8 takes 4 rounds
        # and 180 evaluations
        calls = self._recorded(monkeypatch)
        density = _curvature_density_of("cosh(t)^2")
        edges = [16.0, *quadrature._doublings(0.0, 32.0)]
        res = quadrature._integrate_windows(density, edges, DEFAULT_TOL)
        assert (res.divergence, res.converged, res.evaluations) == ("-inf", False, 30)
        assert len(res.partial_sums) == 1
        window = -TWO_PI * (math.sinh(32.0) - math.sinh(16.0))
        assert res.partial_sums[0][1] == pytest.approx(window)
        (chunk, parts), = calls
        assert chunk == [16.0, 32.0, 64.0]
        assert [(r.evaluations, r.converged) for r in parts] == [(15, False), (15, False)]

    def test_chunks_follow_the_fitted_decay(self, monkeypatch):
        # with nothing known the first chunk holds the two windows a walk
        # needs to stop; the exponential law through [0, 1] and [1, 2]
        # predicts 6 more, and from three known windows the power law,
        # which comes closer to the third, predicts the walk past the 23rd
        calls = self._recorded(monkeypatch)
        res = walk_from(LOOKAHEAD_CASES["stops-at-23"][0], 0.0)
        assert [len(edges) - 1 for edges, _ in calls] == [2, 6, 50]
        assert len(res.partial_sums) == 23

    def test_raising_chunk_is_walked_band_by_band(self, monkeypatch):
        # (1+t)^-3 up to t = 6, then 0, then NaN past t = 40: the law of
        # [0, 1] and [1, 2] sends the chunk up to 64, which raises; its
        # windows are integrated one at a time, and the walk stops at
        # t = 32 after two zero increments, before the window that raises
        calls = self._recorded(monkeypatch)
        got = walk_from(
            lambda t, theta: np.where(t > 40.0, np.nan, np.where(t > 6.0, 0.0, (1.0 + t) ** -3)),
            0.0,
        )
        assert got.converged and got.partial_sums[-1][0] == 32.0
        assert [(edges, type(results)) for edges, results in calls] == [
            ([0.0, 1.0, 2.0], list),
            ([2.0, 4.0, 8.0, 16.0, 32.0, 64.0], DomainError),
            ([2.0, 4.0], list),
            ([4.0, 8.0], list),
            ([8.0, 16.0], list),
            ([16.0, 32.0], list),
        ]

    def test_budget_binds_inside_a_chunk_walked_again(self, monkeypatch):
        # the chunk [2, 32] raises (NaN past t = 9); its windows are taken
        # alone, each checked against what is left, and after [4, 8] the
        # budget is spent to the last evaluation
        calls = self._recorded(monkeypatch)
        res = walk_from(
            lambda t, theta: np.where(t > 9.0, np.nan, np.sin(40.0 * t) * (1.0 + t) ** -1.1),
            0.0,
            Tolerance(max_evaluations=1500),
        )
        assert [
            (edges, sum(r.evaluations for r in out) if isinstance(out, list) else type(out))
            for edges, out in calls
        ] == [
            ([0.0, 1.0, 2.0], 510),
            ([2.0, 4.0, 8.0, 16.0, 32.0], DomainError),
            ([2.0, 4.0], 705),
            ([4.0, 8.0], 285),
        ]
        assert res.evaluations == 1500
        assert res.partial_sums[-1][0] == 8.0
        assert res.converged is False and res.divergence is None

    def test_one_window_chunk_that_raises_is_integrated_once(self, monkeypatch):
        # (1+t)^-1.05 decays too slowly to stop at t = 2, and the last
        # chunk, [2, 3] alone, meets the NaN past t = 2.5
        calls = self._recorded(monkeypatch)
        density = lambda t, theta: np.where(t > 2.5, np.nan, (1.0 + t) ** -1.05)
        with pytest.raises(DomainError) as got:
            quadrature._integrate_windows(density, [0.0, 1.0, 2.0, 3.0], DEFAULT_TOL)
        assert str(got.value) == "non-finite integrand value on panel (2.0, 3.0)"
        assert [edges for edges, _ in calls] == [[0.0, 1.0, 2.0], [2.0, 3.0]]

    def test_band_that_raises_today_raises_at_its_own_step(self):
        # the first window is clean, the second raises: no look-ahead may
        # turn that into a different error or a result
        def density(t, theta):
            return np.where(t > 1.5, np.nan, np.exp(-t))

        with pytest.raises(DomainError) as want:
            per_window_improper(density, 0.0)
        with pytest.raises(DomainError) as got:
            walk_from(density, 0.0)
        assert str(got.value) == str(want.value)
