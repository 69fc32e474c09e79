import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvlab.sweep as sweep
from cvlab.cli import RunConfig, report_to_csv, report_to_json_dict
from cvlab.curvature import gauss_curvature
from cvlab.jets import DomainError, Jet2
from cvlab.model import (
    AnalyticCore,
    EndChart,
    ModelInvalid,
    PolarCap,
    SurfaceModel,
    chart_from_expression,
    validate_surface,
)
from cvlab.quadrature import _XGK, ImproperResult, TailLimit
from cvlab.sweep import (
    NonPositiveMu,
    Verdict,
    residual_bound,
    run_sweep,
    sweep_samples,
)
from cvlab.zoo import zoo_entry, zoo_names
from conftest import (
    DEEP_SCHEDULE,
    SCHEDULES,
    band_node_signs,
    doubling_schedule,
    first_panel_costs,
    mu_prime_order,
    recorded_circles,
    walk_from,
)
from test_array_eval import recorded_band_nodes, reference_sign_height, theta_cap, three_ends

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def reports(zoo_reports):
    return zoo_reports


class TestBoundaryFunctionals:
    def test_flat_cylinder_mu(self):
        model = zoo_entry("flat-cylinder").model
        assert sweep_samples(model, [5.0])[0].mu == pytest.approx(2 * TWO_PI, abs=1e-10)

    def test_polar_plane_mu(self):
        assert sweep_samples(zoo_entry("polar-plane").model, [3.0])[0].mu == pytest.approx(
            3 * TWO_PI, abs=1e-9
        )

    def test_cusp_mu(self):
        assert sweep_samples(zoo_entry("cusp-cap").model, [2.0])[0].mu == pytest.approx(
            TWO_PI * math.exp(-2.0), abs=1e-9
        )

    def test_mu_underflow_raises(self):
        with pytest.raises(NonPositiveMu):
            sweep_samples(zoo_entry("cusp-cap").model, [800.0])

    def test_flat_cylinder_lambda(self):
        assert sweep_samples(zoo_entry("flat-cylinder").model, [9.0])[0].lam == pytest.approx(
            0.0, abs=1e-12
        )

    def test_polar_plane_lambda(self):
        assert sweep_samples(zoo_entry("polar-plane").model, [4.0])[0].lam == pytest.approx(
            TWO_PI, abs=1e-9
        )

    def test_paraboloid_lambda_at_unit_radius(self):
        h = 0.5 * (math.sqrt(2.0) + math.asinh(1.0))
        assert sweep_samples(zoo_entry("paraboloid").model, [h])[0].lam == pytest.approx(
            TWO_PI / math.sqrt(2.0), abs=1e-6
        )

    def test_heights_below_chart_rejected(self):
        with pytest.raises(ValueError):
            sweep_samples(zoo_entry("polar-plane").model, [-1.0])


class TestTruncatedTotalCurvature:
    def test_flat_cases_vanish(self):
        assert sweep_samples(
            zoo_entry("flat-cylinder").model, [6.0]
        )[0].c_trunc == pytest.approx(0.0, abs=1e-10)
        assert sweep_samples(
            zoo_entry("polar-plane").model, [6.0]
        )[0].c_trunc == pytest.approx(0.0, abs=1e-8)

    def test_paraboloid_matches_slope_formula(self):
        # the head [0, h] is one band from the pole, with no mass dropped
        # below its nodes
        entry = zoo_entry("paraboloid")
        for h in (0.01, 1.0, 2.0, 8.0, 128.0, 1e6):
            exact = entry.oracle.c_trunc(h)
            got = sweep_samples(entry.model, [h])[0].c_trunc
            assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact)), h


class TestGaussBonnetResidual:
    def test_flat_cylinder(self):
        sample = sweep_samples(zoo_entry("flat-cylinder").model, [3.0])[0]
        assert sample.gb_residual < 1e-10

    def test_polar_plane(self):
        sample = sweep_samples(zoo_entry("polar-plane").model, [2.0])[0]
        assert sample.gb_residual < 1e-10

    def test_paraboloid_heights(self):
        model = zoo_entry("paraboloid").model
        for h in (1.0, 2.0, 4.0, 8.0):
            sample = sweep_samples(model, [h])[0]
            assert sample.gb_residual < 1e-6


class TestLambdaMuPrime:
    def test_polar_plane_linear_mu(self):
        dev, dev_half, _ = mu_prime_order(zoo_entry("polar-plane").model, 2.5, 1.0)
        assert max(dev, dev_half) < 1e-10

    def test_flat_cylinder(self):
        dev, dev_half, _ = mu_prime_order(zoo_entry("flat-cylinder").model, 2.0, 1.0)
        assert max(dev, dev_half) < 1e-12

    def test_paraboloid_second_order(self):
        dev, dev_half, _ = mu_prime_order(
            zoo_entry("paraboloid").model, 5.0, 0.1
        )
        ratio = dev / dev_half
        assert 3.5 < ratio < 4.5


@given(
    b=st.floats(min_value=0.1, max_value=2.0),
    e=st.floats(min_value=0.0, max_value=0.9),
    k=st.sampled_from([1, 2, 3]),
    t_min=st.floats(min_value=0.5, max_value=2.0),
)
@settings(max_examples=30, deadline=None)
def test_theta_dependent_log_end_meets_closed_forms(b, e, k, t_min):
    # w = sqrt(G) = t + b*(1 + e*cos(k*theta))*log(1+t) has the theta means
    # mu = 2*pi*(h + b*log(1+h)) and lambda = 2*pi*(1 + b/(1+h)), so L = 2*pi;
    # the core value 2*pi - lambda(t_min) closes Gauss-Bonnet, so c_total = 0
    lam = lambda h: TWO_PI * (1.0 + b / (1.0 + h))
    end = chart_from_expression(
        f"(t + {b!r}*(1 + {e!r}*cos({k}*theta))*log(1+t))^2", t_min=t_min
    )
    core = AnalyticCore(TWO_PI - lam(t_min))
    model = SurfaceModel(0, (end,), core, name="log-end")
    report = run_sweep(model, RunConfig("log-end", h_min=t_min + 0.5, h_max=64.0).schedule())
    for s in report.samples:
        assert s.gb_residual <= residual_bound(s.quad_error), s.h
        assert s.mu == pytest.approx(TWO_PI * (s.h + b * math.log1p(s.h)), rel=0.0, abs=1e-9)
        assert s.lam == pytest.approx(lam(s.h), rel=0.0, abs=1e-9)
    assert abs(report.c_total) <= 1e-6
    assert report.limit.value == pytest.approx(TWO_PI, rel=0.0, abs=1e-6)
    assert all(v.status != "fail" for v in report.verdicts.values()), report.verdicts
    assert report.verdicts["corollary"].status == "not-applicable"


class TestSignHeight:
    def test_paraboloid_found_at_origin(self):
        model = zoo_entry("paraboloid").model
        assert band_node_signs(model, 64.0)[0] == pytest.approx(0.0, abs=1e-9)

    def test_cusp_not_found(self):
        assert band_node_signs(zoo_entry("cusp-cap").model, 64.0)[0] is None

    def test_constructed_sign_change_located(self):
        # synthetic chart whose curvature is (t - 5) * sin^2(theta):
        # negative somewhere for every t < 5, nonnegative beyond
        def sqrt_g_jet(t, theta):
            # the value carries theta's axis, so validation measures the end 2-D
            return Jet2(1.0 + 0.0 * theta, 0.0, -(t - 5.0) * np.sin(theta) ** 2)

        chart = EndChart(sqrt_g_jet=sqrt_g_jet)
        model = SurfaceModel(
            genus=0,
            ends=(chart,),
            core=AnalyticCore(TWO_PI),
            name="sign-change",
        )
        h1 = band_node_signs(model, 10.0)[0]
        assert h1 == pytest.approx(5.0, abs=10.0 / 4096.0 + 1e-6)

    def test_curvature_range_scan(self):
        _, kmin, kmax = band_node_signs(zoo_entry("capped-cone").model, 64.0)
        assert kmin >= 0.0
        assert kmax > 1e-3

    def test_last_height_must_clear_chart_edges(self):
        with pytest.raises(ValueError):
            band_node_signs(zoo_entry("polar-plane").model, 0.0)

    def test_span_must_be_finite(self):
        # 1e308 - (-1e308) overflows: the h1 resolution, a 4096th of that
        # span, would be infinite
        model = SurfaceModel(0, (chart_from_expression("1", t_min=-1e308),), AnalyticCore(TWO_PI))
        with pytest.raises(ValueError, match="span from the highest t_min .* is not finite"):
            run_sweep(model, [1.0, 2.0, 1e308])


# the polar cap of a bump on the flank t in [3.23, 4.76] at theta = 0,
# where K < 0 falls between the heights of a uniform 64-row grid
BUMP_CAP = "t^2*(1+0.3*t^2*exp(-t)*exp(40*(cos(theta)-1))*exp(-50*(t-4)^2))^2"


class TestBandNodeSigns:
    """``h1`` and the sampled K range are read at the band nodes."""

    def test_bump_flank_between_grid_heights_is_found(self):
        model = _dsl_cap(BUMP_CAP)
        report = run_sweep(model, RunConfig("bump").schedule())
        # the upper edge of K < 0, where K(t, 0) crosses -K_SLACK
        lo, hi = 4.7, 4.8
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            bad = gauss_curvature(model.ends[0], mid, 0.0) < -sweep.K_SLACK
            lo, hi = (mid, hi) if bad else (lo, mid)
        assert report.h1 - 64.0 / 4096.0 <= hi <= report.h1
        assert report.verdicts["lambda-monotone"].status == "pass"

    @pytest.mark.parametrize(
        "g, status, note",
        [
            # K = 1/(2*cosh(t/2)^2) > 0 with no false K at the pole
            ("(2*tanh(t/2))^2", "pass", "K >= 0 sampled everywhere"),
            ("t^2", "not-applicable", "curvature vanishes at every sample"),
        ],
    )
    def test_dsl_cap_corollary(self, g, status, note):
        report = run_sweep(_dsl_cap(g), RunConfig("cap").schedule())
        assert report.h1 == 0.0
        verdict = report.verdicts["corollary"]
        assert verdict.status == status and verdict.note.startswith(note)

    def test_negative_curvature_next_to_the_pole_is_found(self):
        # w = t + 0.5*t^3/(0.25 + t^2): K < 0 on (0, 0.866), whose edge the
        # refinement narrows to 64/4096
        report = run_sweep(_dsl_cap("(t + 0.5*t^3/(0.25 + t^2))^2"), RunConfig("cap").schedule())
        edge = math.sqrt(3.0) / 2.0
        assert edge <= report.h1 <= edge + 64.0 / 4096.0
        assert report.kmin_sampled < -11.9
        assert report.verdicts["corollary"].status == "not-applicable"


class TestMonotoneRule:
    def test_step_that_straddles_tail_from_is_not_judged(self):
        # lambda rises only from h = 1 to h = 2, across tail_from = 1.5: the
        # tail limit reads no sample below 1.5, and neither does the verdict
        lams = [1.0, 2.0, 1.5, 1.25]
        samples = [sweep.TruncationSample(h, 0.0, lam, 0.0, 0.0, 0.0) for h, lam in zip(
            [1.0, 2.0, 3.0, 4.0], lams)]
        assert sweep._monotone_verdict(samples, 1.5, 1.5).status == "pass"
        assert sweep._monotone_verdict(samples, 1.0, 1.0).status == "fail"


class TestRunSweep:
    def test_flat_cylinder_all_pass(self, reports):
        report = reports["flat-cylinder"]
        assert report.all_pass
        assert report.limit.value == pytest.approx(0.0, abs=1e-9)
        assert report.c_total == pytest.approx(0.0, abs=1e-9)
        assert report.verdicts["theorem"].status == "pass"

    def test_paraboloid_equality_case(self, reports):
        report = reports["paraboloid"]
        assert report.all_pass
        assert report.c_total == pytest.approx(TWO_PI, abs=1e-3)
        assert abs(report.verdicts["theorem"].residual) < 1e-3
        assert report.verdicts["corollary"].status == "pass"
        assert report.verdicts["c-total-consistency"].status == "pass"

    def test_capped_cone_strict_inequality(self, reports):
        report = reports["capped-cone"]
        assert report.all_pass
        assert report.limit.value == pytest.approx(math.pi, abs=1e-6)
        assert report.c_total == pytest.approx(math.pi, abs=1e-6)

    def test_cusp_cap_triggers_not_monotone(self, reports):
        report = reports["cusp-cap"]
        assert report.h1 is None
        assert report.verdicts["lambda-monotone"].status == "fail"
        assert "NotMonotone" in report.verdicts["lambda-monotone"].note
        assert report.verdicts["theorem"].status == "not-applicable"
        # curvature integral still reachable through the direct route
        assert report.c_total == pytest.approx(TWO_PI, abs=1e-6)
        assert not report.all_pass

    def test_catenoid_observed_only(self, reports):
        report = reports["catenoid"]
        assert report.h1 is None
        assert report.c_total == pytest.approx(-2 * TWO_PI, abs=1e-5)
        verdict = report.verdicts["theorem"]
        assert verdict.status == "not-applicable"
        assert "not certified" in verdict.note
        assert verdict.residual == pytest.approx(2 * TWO_PI, abs=1e-4)

    def test_samples_strictly_increasing(self, reports):
        for report in reports.values():
            hs = [s.h for s in report.samples]
            assert hs == sorted(hs)
            assert all(b > a for a, b in zip(hs, hs[1:]))

    def test_lambda_monotone_within_error_beyond_h1(self, reports):
        for name in ("flat-cylinder", "polar-plane", "paraboloid", "capped-cone"):
            report = reports[name]
            assert report.h1 is not None
            tail = [s for s in report.samples if s.h > report.h1]
            for a, b in zip(tail, tail[1:]):
                slack = 10.0 * (a.quad_error + b.quad_error) + 1e-9
                assert b.lam <= a.lam + slack, name

    def test_lemma_bound_on_hypothesis_surfaces(self, reports):
        for name in ("flat-cylinder", "polar-plane", "paraboloid", "capped-cone"):
            report = reports[name]
            limit = report.limit
            assert limit is not None
            assert limit.value >= -limit.error_bound, name

    def test_invalid_model_aborts(self):
        from cvlab.model import chart_from_expression

        model = SurfaceModel(
            genus=0,
            ends=(chart_from_expression("1 - t"),),
            core=AnalyticCore(0.0),
            name="broken",
        )
        with pytest.raises(ModelInvalid):
            run_sweep(model, [1.0, 2.0, 3.0])

    def test_schedule_validation(self):
        model = zoo_entry("flat-cylinder").model
        with pytest.raises(ValueError):
            run_sweep(model, [1.0, 2.0])
        with pytest.raises(ValueError):
            run_sweep(model, [1.0, 1.0, 2.0])


BRANCH_SCHEDULE = [1.0, 2.0, 4.0, 8.0]
FALLING = (4.0, 3.0, 2.5, 2.25)  # lambda at the branch schedule's heights


def _direct(value=0.0, error=1e-6, converged=True, divergence=None):
    return ImproperResult(value, error, 0, converged, divergence)


# one row per verdict branch: fields of the measurement record the verdicts
# read, and the verdict they must produce; unset fields take the defaults
# of test_verdict_branch
VERDICT_BRANCHES = {
    "gauss-bonnet-fail": dict(
        gb=(0.0, 1e-3, 0.0, 0.0),
        check="gauss-bonnet-truncated",
        want=Verdict("fail", 1e-3, 1e-9),
    ),
    "mu-prime-fail": dict(
        mu_prime=(1e-3, 1e-3, 1e-9),
        check="lambda-mu-prime",
        want=Verdict("fail", 1e-3, 1e-3 / 2.5, "h0=2.82843, step=0.05, measured order 0.00"),
    ),
    "mu-prime-noise-floor": dict(
        mu_prime=(1e-10, 1e-10, 1e-9),
        check="lambda-mu-prime",
        want=Verdict("pass", 1e-10, 1e-9, "h0=2.82843, step=0.05, at noise floor"),
    ),
    "monotone-no-h1": dict(
        h1=None,
        check="lambda-monotone",
        want=Verdict(
            "not-applicable", 0.0, None, "no curvature-sign height found; decrease observed anyway"
        ),
    ),
    "monotone-fail-with-h1": dict(
        lam=(4.0, 3.0, 3.5, 3.25),
        check="lambda-monotone",
        want=Verdict("fail", 0.5, 0.0, "NotMonotone: lambda rose by 5.000e-01 across 1 step(s)"),
    ),
    "monotone-fail-no-h1": dict(
        h1=None,
        lam=(4.0, 3.0, 3.5, 3.25),
        check="lambda-monotone",
        want=Verdict(
            "fail",
            0.5,
            0.0,
            "NotMonotone: lambda rose by 5.000e-01 across 1 step(s); "
            "hypothesis unmet, decrease not expected",
        ),
    ),
    "L-fail": dict(
        limit=TailLimit(-1.0, 1e-3),
        check="L-nonneg",
        want=Verdict("fail", -1.0, 1e-3, "L = -1"),
    ),
    "L-hypothesis-unmet": dict(
        h1=None,
        check="L-nonneg",
        want=Verdict("not-applicable", None, None, "hypothesis unmet"),
    ),
    "L-not-estimated": dict(
        limit=None,
        limit_note="limit not estimated: need at least 3 tail points",
        check="L-nonneg",
        want=Verdict(
            "not-applicable", None, None, "limit not estimated: need at least 3 tail points"
        ),
    ),
    "L-not-monotone": dict(
        limit=None,
        limit_note="NotMonotone: rise at h=4",
        check="L-nonneg",
        want=Verdict("not-applicable", None, None, "NotMonotone: rise at h=4"),
    ),
    "consistency-fail": dict(
        limit=TailLimit(1.0, 1e-3),
        direct=_direct(value=0.5),
        check="c-total-consistency",
        want=Verdict("fail", 1.5, residual_bound(1e-3 + 1e-6)),
    ),
    "consistency-direct-unconverged": dict(
        direct=_direct(converged=False),
        check="c-total-consistency",
        want=Verdict("not-applicable", None, None, "direct route did not converge"),
    ),
    "consistency-limit-unavailable": dict(
        h1=None,
        check="c-total-consistency",
        want=Verdict("not-applicable", None, None, "limit route unavailable"),
    ),
    "consistency-no-route": dict(
        h1=None,
        direct=_direct(converged=False, divergence="-inf"),
        check="c-total-consistency",
        want=Verdict("not-applicable", None, None, "neither route converged"),
    ),
    "theorem-fail": dict(
        limit=TailLimit(-1.0, 1e-3),
        check="theorem",
        want=Verdict("fail", -1.0, residual_bound(1e-3), "margin -1"),
    ),
    "theorem-violated-unmet": dict(
        h1=None,
        direct=_direct(value=1.0),
        check="theorem",
        want=Verdict(
            "not-applicable",
            -1.0,
            residual_bound(1e-6),
            "hypothesis unmet; inequality violated numerically (margin -1), not certified",
        ),
    ),
    "theorem-divergent": dict(
        h1=None,
        direct=_direct(converged=False, divergence="-inf"),
        check="theorem",
        want=Verdict(
            "not-applicable", None, None, "total curvature does not converge (toward -inf)"
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(VERDICT_BRANCHES))
def test_verdict_branch(case):
    # every branch of every verdict, reached by building the measurement
    # record the verdicts read; the flat cylinder (chi = 0, analytic core)
    # supplies only the name, chi and core, so the numbers below are all
    # the verdicts see
    row = VERDICT_BRANCHES[case]
    model = zoo_entry("flat-cylinder").model
    gb = row.get("gb", (0.0,) * 4)
    lam = row.get("lam", FALLING)
    h1 = row.get("h1", 1.0)
    measured = sweep._Measured(
        samples=tuple(
            sweep.TruncationSample(h, 1.0, l, 0.0, 0.0, r)
            for h, l, r in zip(BRANCH_SCHEDULE, lam, gb)
        ),
        mu_prime=(
            *sweep._mu_prime_point(model, BRANCH_SCHEDULE),
            *row.get("mu_prime", (4e-6, 1e-6, 1e-9)),
        ),
        h1=h1,
        kmin=0.0,
        kmax=1.0,
        tail_from=h1 if h1 is not None else BRANCH_SCHEDULE[1],
        limit=row.get("limit", TailLimit(0.5, 1e-3)),
        limit_note=row.get("limit_note", ""),
        direct=row.get("direct", _direct(value=-0.5)),
    )
    report = sweep._report(model, measured)
    assert report.verdicts[row["check"]] == row["want"]
    # the limit is reported whenever it was estimated, certified by h1 or not
    assert report.limit == measured.limit


@pytest.mark.parametrize(
    "kmin,kmax,status,note",
    [
        (-1e-11, 0.5, "pass", "K >= 0 sampled everywhere, max K = 0.5 > 0, chi = 1"),
        (-12.0, 0.5, "not-applicable", "sampled curvature is not nonnegative from the bottom"),
        (0.0, 1e-10, "not-applicable", "curvature vanishes at every sample"),
    ],
    ids=["pass", "negative-sample", "flat"],
)
def test_corollary_premise_is_the_sampled_range(kmin, kmax, status, note):
    # every sample K >= -K_SLACK and some K > K_SLACK, wherever the
    # negative samples lie
    verdict = sweep._corollary_verdict(zoo_entry("polar-plane").model, kmin, kmax)
    assert (verdict.status, verdict.note) == (status, note)


def test_tail_limit_notes_why_it_is_missing():
    samples = tuple(
        sweep.TruncationSample(h, 1.0, l, 0.0, 0.0, 0.0) for h, l in zip(BRANCH_SCHEDULE, FALLING)
    )
    assert sweep._tail_limit(samples, 1.0)[0] is not None
    limit, note = sweep._tail_limit(samples, 4.0)
    assert limit is None
    assert note == "limit not estimated: need at least 3 samples beyond monotone_from"
    rising = tuple(sweep.TruncationSample(s.h, 1.0, -s.lam, 0.0, 0.0, 0.0) for s in samples)
    limit, note = sweep._tail_limit(rising, 1.0)
    assert limit is None and note.startswith("NotMonotone: ")


def test_mu_prime_step_resolves_large_heights():
    # a fixed step of 0.05 vanishes against h0 = 1e80: h0 +- step == h0
    model = zoo_entry("paraboloid").model
    schedule = RunConfig("paraboloid", h_max=1e160).schedule()
    h0, step = sweep._mu_prime_point(model, schedule)
    assert h0 == pytest.approx(1e80, rel=1e-6)
    assert h0 + step / 2 != h0 and h0 - step / 2 != h0
    assert h0 - step > model.min_height
    # the benchmark heights keep the fixed step
    assert sweep._mu_prime_point(model, SCHEDULES["paraboloid"])[1] == 0.05


def test_mu_prime_point_survives_heights_whose_product_overflows():
    # h_min * h_max = 4e400 is past double range; the square roots are not
    model = zoo_entry("paraboloid").model
    report = run_sweep(model, RunConfig(surface="paraboloid", h_min=1e200, h_max=4e200).schedule())
    verdict = report.verdicts["lambda-mu-prime"]
    assert verdict.status == "pass"
    assert verdict.note.startswith("h0=2e+200")
    # a finite product keeps its form: sqrt(2 * 50) is 10, sqrt(2) * sqrt(50) is not
    assert sweep._mu_prime_point(model, [2.0, 50.0])[0] == 10.0


def _direct_route(name):
    """The direct route of a zoo surface on its test schedule."""
    model = zoo_entry(name).model
    return sweep._measure(model, SCHEDULES[name], sweep.DEFAULT_TOL).direct


class TestDirectTotalCurvature:
    def test_catenoid_classical_value(self):
        res = _direct_route("catenoid")
        assert res.converged
        assert res.value == pytest.approx(-2 * TWO_PI, abs=1e-5)

    def test_positive_and_negative_parts_split(self):
        # hypothesis-satisfying surfaces have integrable negative part;
        # here it vanishes identically and the positive part carries all
        # of the curvature
        entry = zoo_entry("capped-cone")
        end = entry.model.ends[0]

        def k_minus_density(t, theta):
            return np.maximum(-gauss_curvature(end, t, theta), 0.0) * end.sqrt_jet(t, theta).f

        res = walk_from(k_minus_density, 1e-6)
        assert res.converged
        assert res.value == pytest.approx(0.0, abs=1e-9)
        direct = _direct_route("capped-cone")
        assert direct.value == pytest.approx(entry.oracle.c_total, abs=1e-6)

    @pytest.mark.parametrize("name", ["paraboloid", "polar-plane", "capped-cone", "catenoid"])
    def test_evaluations_count_every_integral(self, name, monkeypatch):
        # the direct route is c_trunc(h_max) plus the tails beyond: the
        # bands, a polar cap's head among them, and the tail windows all
        # belong to its count
        counted = []

        def counting(integrate):
            def wrapper(*args, **kwargs):
                res = integrate(*args, **kwargs)
                # the batched entry points return one result per integral
                counted.extend(r.evaluations for r in (res if isinstance(res, list) else [res]))
                return res

            return wrapper

        for fn in ("integrate_bands", "_integrate_windows"):
            monkeypatch.setattr(sweep, fn, counting(getattr(sweep, fn)))
        res = _direct_route(name)
        assert counted
        assert res.evaluations == sum(counted)

    def test_failed_tails_report_the_first_and_add_only_settled_ones(self):
        # two flaring ends diverge at different rates between two settling
        # ones: the route fails with the first failed end's direction and
        # trace, and its value adds only the settled tails
        settle, slow, fast, wide = (
            chart_from_expression(g) for g in ("1 + t^2", "(1 + t)^4", "(1 + t)^6", "2.25 + t^2")
        )
        schedule = [float(h) for h in np.geomspace(1.0, 16.0, 8)]

        def measure(*ends):
            # the core's value does not reach the tails
            model = SurfaceModel(0, ends, AnalyticCore(-7 * TWO_PI))
            return sweep._measure(model, schedule, sweep.DEFAULT_TOL)

        m = measure(settle, slow, fast, wide)
        alone_slow, alone_fast = measure(settle, slow).direct, measure(settle, fast).direct
        assert alone_slow.partial_sums != alone_fast.partial_sums
        assert not m.direct.converged
        assert m.direct.divergence == alone_slow.divergence == "-inf"
        assert m.direct.partial_sums == alone_slow.partial_sums
        # sqrt(G) = sqrt(c^2 + t^2) has the tail -2*pi*(1 - h/sqrt(c^2 + h^2))
        h = schedule[-1]
        tails = sum(-TWO_PI * (1.0 - h / math.sqrt(c2 + h * h)) for c2 in (1.0, 2.25))
        assert m.direct.value == pytest.approx(m.samples[-1].c_trunc + tails, rel=0.0, abs=1e-9)


# the verdicts of the exp(-2t) surface below, the same at both heights
# before the direct route continued the truncation
QUIET_END_VERDICTS = {
    "gauss-bonnet-truncated": "pass",
    "lambda-mu-prime": "pass",
    "lambda-monotone": "fail",
    "L-nonneg": "not-applicable",
    "c-total-consistency": "not-applicable",
    "theorem": "not-applicable",
    "corollary": "not-applicable",
}


@pytest.mark.parametrize("h_max", [100.0, 230.0])
def test_quiet_end_walks_no_window_past_h_max(h_max):
    # the exp(-2t) end's last two bands are quiet, so its tail is 0; a
    # first window [h_max, 2*h_max] would reach past t ~ 236, where the
    # second derivative of sqrt(G) overflows
    ends = (chart_from_expression("exp(-2*t)"), chart_from_expression("1+t^2"))
    model = SurfaceModel(0, ends, AnalyticCore(TWO_PI))
    report = run_sweep(model, list(np.geomspace(1.0, h_max, 12)))
    assert {name: v.status for name, v in report.verdicts.items()} == QUIET_END_VERDICTS
    # L = 2*pi from the 1+t^2 end, so c = -2*pi, by the direct route
    assert report.c_total_route == "direct"
    assert report.c_total == pytest.approx(-TWO_PI, abs=1e-9)


@pytest.mark.parametrize(
    "h_min,h_max", [(1.0, 1e160), (1e200, 4e200)], ids=["to-1e160", "1e200-to-4e200"]
)
def test_long_band_defect_stays_flagged(h_min, h_max):
    # a long band such as [3.5e14, 1.2e29] is one GK15 panel whose error
    # estimate misses its mass; the direct route now sums the same bands,
    # and the defect must still fail gauss-bonnet-truncated
    schedule = RunConfig("paraboloid", h_min=h_min, h_max=h_max).schedule()
    report = run_sweep(zoo_entry("paraboloid").model, schedule)
    assert report.verdicts["gauss-bonnet-truncated"].status == "fail"


def _dsl_cap(g):
    model = SurfaceModel(0, (chart_from_expression(g),), PolarCap())
    validate_surface(model)
    return model


# DSL caps G = w^2 and the closed form of c_trunc(h) = 2*pi*(1 - w'(h))
POLAR_HEAD_CAPS = {
    "sinh(t)^2": lambda h: TWO_PI * (1.0 - math.cosh(h)),
    "(t+t^3)^2": lambda h: -6.0 * math.pi * h * h,
}


class TestPolarHead:
    """A polar cap's head is the band from the pole, t = 0, to the first
    height: the density -w'' has no division and GK15 nodes never touch
    t = 0, so no mass below the nodes is dropped."""

    @pytest.mark.parametrize("h", [0.5, 1.0, 4.0])
    @pytest.mark.parametrize("g", sorted(POLAR_HEAD_CAPS))
    def test_dsl_cap_head_matches_closed_form(self, g, h):
        exact = POLAR_HEAD_CAPS[g](h)
        got = sweep_samples(_dsl_cap(g), [h])[0].c_trunc
        assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact))

    @pytest.mark.parametrize("h", [0.5, 1.0, 4.0])
    def test_singular_density_is_covered_by_its_error(self, h):
        # w = t + t^1.5 passes validation, but w'' = 0.75/sqrt(t) is
        # singular at the pole; c_trunc(h) = 2*pi*(1 - w'(h)) = -3*pi*sqrt(h)
        s = sweep_samples(_dsl_cap("(t + t^1.5)^2"), [h])[0]
        assert abs(s.c_trunc + 3.0 * math.pi * math.sqrt(h)) <= s.quad_error


BAND_SCHEDULES = {
    **SCHEDULES,
    "theta-cap": list(np.geomspace(1.0, 64.0, 12)),
    "three-ends": list(np.geomspace(1.0, 16.0, 12)),
}
BAND_MODELS = {"theta-cap": theta_cap, "three-ends": three_ends}


class TestBandReuse:
    @pytest.mark.parametrize("name", zoo_names() + tuple(BAND_MODELS))
    def test_sweep_matches_per_height_path(self, name, zoo_reports):
        if name in BAND_MODELS:
            model = BAND_MODELS[name]()
            report = run_sweep(model, BAND_SCHEDULES[name])
        else:
            model, report = zoo_entry(name).model, zoo_reports[name]
        for s in report.samples:
            one = sweep_samples(model, [s.h])[0]
            assert abs(s.c_trunc - one.c_trunc) <= residual_bound(s.quad_error + one.quad_error)

    @staticmethod
    def _band_calls(monkeypatch, model, schedule):
        """``((t_lo, t_hi), error_estimate)`` of every band integral, one
        list per ``integrate_bands`` call, and the samples."""
        calls = []
        integrate = sweep.integrate_bands

        def recording(f, edges, tol, **kwargs):
            results = integrate(f, edges, tol, **kwargs)
            bands = zip(edges, edges[1:])
            calls.append([(box, res.error_estimate) for box, res in zip(bands, results)])
            return results

        monkeypatch.setattr(sweep, "integrate_bands", recording)
        return calls, sweep_samples(model, schedule)

    def test_each_band_is_integrated_once(self, monkeypatch):
        schedule = [1.0, 2.0, 4.0, 8.0]
        # a polar cap's head is an ordinary band from the pole, in the one batch
        batches, _ = self._band_calls(monkeypatch, theta_cap(), schedule)
        steps = list(zip(schedule, schedule[1:]))
        assert [[box for box, _ in batch] for batch in batches] == [[(0.0, 1.0)] + steps]
        monkeypatch.undo()
        model = three_ends()
        batches, samples = self._band_calls(monkeypatch, model, schedule)
        # one batch per end; regrouped by height, in the sweep's summation order
        assert len(batches) == len(model.ends)
        calls = [band for bands in zip(*batches) for band in bands]
        heads = [(end.t_min, 1.0) for end in model.ends]
        bands = [step for step in steps for _ in model.ends]
        assert [box for box, _ in calls] == heads + bands
        # theta-free ends: the error is the running sum of band errors alone
        errors, running = [], 0.0
        for i, (_, error) in enumerate(calls, 1):
            running += error
            if i % len(model.ends) == 0:
                errors.append(running)
        assert [s.quad_error for s in samples] == errors

    def test_schedule_needs_a_height(self):
        with pytest.raises(ValueError, match="schedule needs at least one height"):
            sweep_samples(zoo_entry("paraboloid").model, [])

    def test_schedule_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            sweep_samples(zoo_entry("paraboloid").model, [1.0, 4.0, 2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_schedule_heights_must_be_finite(self, bad):
        # NaN passes every comparison of the order checks
        model = zoo_entry("paraboloid").model
        with pytest.raises(ValueError, match="finite"):
            run_sweep(model, [1.0, bad, 3.0, 5.0])
        with pytest.raises(ValueError, match="finite"):
            sweep_samples(model, [1.0, 3.0, bad])

    def test_sweep_checks_the_schedule_before_the_mu_prime_point(self):
        # the mu' point of [1, 4, -2] would take the root of a negative
        with pytest.raises(ValueError, match="strictly increasing"):
            run_sweep(zoo_entry("paraboloid").model, [1.0, 4.0, -2.0])


def all_columns(batches):
    """Whether every circle of the recorded batches was a column answer."""
    return bool(batches) and all(
        errors == [0.0] * len(errors) and evals == [1] * len(evals) for errors, evals in batches
    )


class TestThetaFreeSweep:
    @pytest.mark.parametrize("name", zoo_names())
    def test_circles_are_point_values(self, name, monkeypatch):
        batches = recorded_circles(monkeypatch)
        model = zoo_entry(name).model
        h = 3.0
        sample = sweep_samples(model, [h])[0]
        assert all_columns(batches)
        assert sample.mu == sum(TWO_PI * float(e.sqrt_jet(h, 0.0).f) for e in model.ends)
        assert sample.lam == sum(
            TWO_PI * float(e.sqrt_jet(h, 0.0).d1) for e in model.ends
        )

    @pytest.mark.parametrize("name", zoo_names() + ("three-ends",))
    def test_sweep_path_needs_no_circle_quadrature(self, name, monkeypatch):
        # every boundary value of the sweep and of the mu' check is a
        # point value on theta-free ends
        model = three_ends() if name == "three-ends" else zoo_entry(name).model
        schedule = BAND_SCHEDULES[name]
        expected = [
            [sum(TWO_PI * float(getattr(e.sqrt_jet(h, 0.0), slot)) for e in model.ends)
             for h in schedule]
            for slot in ("f", "d1")
        ]

        batches = recorded_circles(monkeypatch)
        samples = sweep_samples(model, schedule)
        assert [[s.mu for s in samples], [s.lam for s in samples]] == expected
        mu_prime_order(model, schedule[len(schedule) // 2], 0.05)
        assert all_columns(batches)

    def test_collapsed_cap_matches_2d_cap(self):
        # the same metric, once with a vanishing theta term that keeps the
        # tree theta-dependent and so the 2-D rules
        schedule = [1.0, 2.0, 4.0, 8.0]
        samples = []
        for expr in ("sinh(t)^2", "sinh(t)^2 + 0*theta"):
            chart = chart_from_expression(expr)
            model = SurfaceModel(0, (chart,), PolarCap())
            samples.append(sweep_samples(model, schedule))
        for flat, full in zip(*samples):
            bound = residual_bound(flat.quad_error + full.quad_error)
            for key in ("mu", "lam", "c_trunc"):
                assert abs(getattr(flat, key) - getattr(full, key)) <= bound, key
            assert flat.c_trunc == pytest.approx(TWO_PI * (1.0 - math.cosh(flat.h)), rel=1e-9)


def test_theta_bump_between_sample_heights_is_measured_2d():
    # w = t*(1 + 0.5*cos(theta)*exp(-(t - 80)^2)) varies in theta only
    # near t = 80, between validation's sample heights; its value still
    # has a theta axis, so the end is 2-D and mu(80) is the circle mean
    # 2*pi*80, not the point value 2*pi*120 at theta = 0
    model = _dsl_cap("(t*(1 + 0.5*cos(theta)*exp(-(t - 80)^2)))^2")
    assert first_panel_costs(model) == [240]
    sample = sweep_samples(model, [1.0, 8.0, 64.0, 80.0])[-1]
    assert abs(sample.mu - TWO_PI * 80.0) <= residual_bound(sample.quad_error)


def _late_theta_cap():
    """``sqrt(G) = t*(1 + 0.5*cos(theta)*exp(-(t - 80)^2))`` with exact
    t-derivatives, whose chart builds the theta term only once some height
    of a call reaches 70: every height validation samples lies below it."""

    def sqrt_g_jet(t, theta):
        if np.max(t) < 70.0:
            return Jet2(t, 1.0, 0.0)
        c, u = 0.5 * np.cos(theta), t - 80.0
        b = np.exp(-u * u)
        db, d2b = -2.0 * u * b, (4.0 * u * u - 2.0) * b
        return Jet2(t * (1.0 + c * b), 1.0 + c * (b + t * db), c * (2.0 * db + t * d2b))

    return SurfaceModel(0, (EndChart(sqrt_g_jet=sqrt_g_jet),), PolarCap(), "late-theta")


def test_theta_axis_above_the_validation_heights_is_read_2d():
    # the theta term appears only in calls that reach t = 70, above every
    # height validation samples: the circles at 80 still read their theta
    # axis, so mu(80) and lambda(80) are the circle means 2*pi*80 and
    # 2*pi, not the values 2*pi*120 and 2*pi*1.5 at theta = 0
    schedule = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 80.0, 96.0, 128.0]
    report = run_sweep(_late_theta_cap(), schedule)
    sample = report.samples[schedule.index(80.0)]
    assert abs(sample.mu / TWO_PI - 80.0) <= 1e-9
    assert abs(sample.lam / TWO_PI - 1.0) <= 1e-9


def test_theta_in_a_derivative_slot_is_measured_2d(monkeypatch):
    # sqrt(G) = 1 has no theta axis, but its second t-derivative, the
    # curvature density, does: the bands are 2-D, so K = (t - 5)*sin^2(theta)
    # is read over every angle, not at theta = 0 where it vanishes; h1
    # lies within the resolution 16/4096 above 5.  The circles of f and
    # d1 have no theta axis and stay columns
    chart = EndChart(sqrt_g_jet=lambda t, theta: Jet2(1.0, 0.0, -(t - 5) * np.sin(theta) ** 2))
    model = SurfaceModel(0, (chart,), AnalyticCore(0.0))
    assert first_panel_costs(model) == [240]
    batches = recorded_circles(monkeypatch)
    report = run_sweep(model, [1.0, 2.0, 4.0, 8.0, 16.0])
    assert all_columns(batches)
    assert 5.0 <= report.h1 <= 5.0 + 16.0 / 4096.0
    # the K range is read at the band nodes, the outermost of which lie
    # 0.0043 of a band's width inside [0, 1] and [8, 16]
    gap = 1.0 - _XGK[-1]
    assert report.kmin_sampled == pytest.approx(-5.0 + 0.5 * gap, abs=1e-6)
    assert report.kmax_sampled == pytest.approx(11.0 - 4.0 * gap, abs=1e-6)


def _exp_cap_chart(theta_free):
    """``sqrt(G) = exp(-t) * (1 + 0.5*cos(theta))`` (theta dropped when
    ``theta_free``): mu underflows to exactly 0 between h = 700 and 760."""

    def sqrt_g_jet(t, theta):
        w = np.exp(-t) * (1.0 if theta_free else 1.0 + 0.5 * np.cos(theta))
        return Jet2(w, -w, w)

    return EndChart(sqrt_g_jet=sqrt_g_jet)


class TestLockstepSweep:
    @pytest.mark.parametrize("theta_free", [True, False])
    def test_non_positive_mu_names_the_first_height(self, theta_free):
        model = SurfaceModel(
            0, (_exp_cap_chart(theta_free),), AnalyticCore(TWO_PI)
        )
        assert sweep_samples(model, [700.0])[0].mu > 0.0
        with pytest.raises(NonPositiveMu, match=r"^mu\(760\.0\) = 0\.0 <= 0$"):
            sweep_samples(model, [1.0, 700.0, 760.0, 800.0])

    def test_cusp_cap_non_positive_mu_in_schedule_order(self):
        with pytest.raises(NonPositiveMu, match=r"^mu\(760\.0\)"):
            sweep_samples(zoo_entry("cusp-cap").model, [1.0, 700.0, 760.0, 800.0])

    @pytest.mark.parametrize("name", sorted(BAND_MODELS))
    def test_batched_boundaries_match_single_heights(self, name):
        model = BAND_MODELS[name]()
        schedule = BAND_SCHEDULES[name]
        samples = sweep_samples(model, schedule)
        singles = [sweep_samples(model, [h])[0] for h in schedule]
        assert [s.mu for s in samples] == [one.mu for one in singles]
        assert [s.lam for s in samples] == [one.lam for one in singles]

    def test_theta_cap_circles_are_one_batch(self, monkeypatch):
        batches = recorded_circles(monkeypatch)
        schedule = BAND_SCHEDULES["theta-cap"]
        sweep_samples(theta_cap(), schedule)
        assert [len(errors) for errors, _ in batches] == [2 * len(schedule)]
        assert not all_columns(batches)
        batches.clear()
        mu_prime_order(theta_cap(), 8.0, 0.05)
        assert [len(errors) for errors, _ in batches] == [5]


@pytest.mark.parametrize("a", [0.7, 2.0])
def test_rotation_leaves_the_samples_unchanged(a):
    # theta -> theta + a moves no boundary circle and no band of a 2-D cap
    def cap(a):
        g = f"t^2*(1+0.3*cos(3*(theta+{a}))*t^2*exp(-1.5*t))^2"
        return SurfaceModel(0, (chart_from_expression(g),), PolarCap())

    schedule = [1.0, 2.0, 4.0, 8.0, 16.0]
    base, turned = cap(0.0), cap(a)
    for s, r in zip(sweep_samples(base, schedule), sweep_samples(turned, schedule)):
        bound = residual_bound(s.quad_error + r.quad_error)
        for field in ("mu", "lam", "c_trunc"):
            assert abs(getattr(s, field) - getattr(r, field)) <= bound, (s.h, field)


def refinement_calls(model, schedule, monkeypatch):
    """``(end id, heights)`` of every h1 refinement call of a sweep, and
    ``(angles, columns of the value, inside a refinement call)`` of every
    ``sqrt_jet`` call; a value of fewer than two axes counts as one
    column."""
    refined, jets, inside = [], [], []
    least, sqrt_jet = sweep._least_curvature, EndChart.sqrt_jet

    def refining(end, heights):
        refined.append((id(end), heights.size))
        inside.append(True)
        try:
            return least(end, heights)
        finally:
            inside.pop()

    def recording(self, t, theta):
        w = sqrt_jet(self, t, theta)
        columns = np.shape(w.f)[-1] if np.ndim(w.f) >= 2 else 1
        jets.append((np.size(theta), columns, bool(inside)))
        return w

    monkeypatch.setattr(sweep, "_least_curvature", refining)
    monkeypatch.setattr(EndChart, "sqrt_jet", recording)
    run_sweep(model, schedule)
    return refined, jets


class TestThetaFreeColumns:
    @pytest.mark.parametrize("name", ["paraboloid", "three-ends", "theta-cap"])
    def test_theta_free_ends_probe_one_column(self, name, monkeypatch):
        # every chart call of a sweep reads the angles of a theta rule, at
        # least 16 (but the polar cap's pole probe, at theta = 0), and a
        # theta-free chart answers each with one column; the h1 refinement
        # reads every end at the 16 angles of a band's first panel
        model = three_ends() if name == "three-ends" else (
            theta_cap() if name == "theta-cap" else zoo_entry(name).model
        )
        refined, jets = refinement_calls(model, BAND_SCHEDULES[name], monkeypatch)
        free = name != "theta-cap"
        assert jets
        assert all(n == 1 or n >= 16 for n, _, _ in jets)
        assert sum(n == 1 for n, _, _ in jets) == int(isinstance(model.core, PolarCap))
        assert all(n == 16 for n, _, inside in jets if inside)
        assert all(cols == 1 for _, cols, _ in jets) == free
        assert any(inside for *_, inside in jets) == (name != "paraboloid")
        assert bool(refined) == (name != "paraboloid")

    @pytest.mark.parametrize("name", ["paraboloid", "catenoid", "three-ends"])
    def test_sweep_scans_each_end_once(self, name, monkeypatch):
        # h1 and the sampled K range come from the band nodes.  Only a
        # chart whose bracket can set h1 is refined, in at most three calls
        # of 64 heights in all: no chart when K >= 0 (paraboloid) or when
        # the last node is bad (catenoid, whose one chart stands twice), and
        # on three-ends the second end alone (K < 0 below t = 5, the first
        # below t = 3)
        model = three_ends() if name == "three-ends" else zoo_entry(name).model
        refined, _ = refinement_calls(model, BAND_SCHEDULES[name], monkeypatch)
        want = [model.ends[1]] if name == "three-ends" else []
        assert sorted({end for end, _ in refined}) == sorted(map(id, want))
        for end in want:
            sizes = [n for key, n in refined if key == id(end)]
            assert len(sizes) <= 3 and sum(sizes) <= 64


def sign_change_model(roots, t_min=0.0, theta_free=False):
    """One end with curvature ``prod(t - r for r in roots) * sin^2(theta)``,
    without the ``sin^2`` when theta-free: negative below the first root,
    then alternating at each root.  Otherwise every slot carries theta's
    axis, so the quadrature reads the end 2-D."""

    def sqrt_g_jet(t, theta):
        k = 1.0 if theta_free else np.sin(theta) ** 2
        for r in roots:
            k = k * (t - r)
        return Jet2(1.0 if theta_free else 1.0 + 0.0 * theta, 0.0, -k)

    chart = EndChart(sqrt_g_jet=sqrt_g_jet, t_min=t_min)
    return SurfaceModel(0, (chart,), AnalyticCore(TWO_PI), name="sign-change")


class TestLookahead:
    """The h1 refinement reads a round of heights from one call; its
    outcome must equal that of the per-height loop."""

    @pytest.mark.parametrize("grid", [8, 16, 64])
    def test_detect_h1_matches_per_step_bisection(self, grid, monkeypatch):
        # ``grid`` heights log-spaced on [0.5, 10]: the band nodes, and so
        # the bracket about t = 5, move with the schedule.  On one end a
        # bracket lies in one band from the chart edge, so two rounds do
        model = sign_change_model([5.0])
        schedule = [float(h) for h in np.geomspace(0.5, 10.0, grid)]
        want = reference_sign_height(model, schedule)[0]
        calls = []
        least = sweep._least_curvature

        def counting(end, heights):
            calls.append(heights.size)
            return least(end, heights)

        monkeypatch.setattr(sweep, "_least_curvature", counting)
        h1 = sweep._measure(model, schedule, sweep.DEFAULT_TOL).h1
        assert h1 == want
        assert h1 - 10.0 / 4096.0 <= 5.0 <= h1
        assert 1 <= len(calls) <= 2 and sum(calls) <= 64

    def test_two_sign_changes_inside_one_bracket(self):
        # K < 0 below 4.05 and on (4.12, 4.2), both between the band nodes
        # 4.0097 and 4.257; the refinement settles on one of the two upward
        # crossings
        model = sign_change_model([4.05, 4.12, 4.2])
        schedule = doubling_schedule(model, 10.0)
        nodes = [h for t, _ in recorded_band_nodes(model, schedule)[0] for h in np.ravel(t)]
        assert not any(4.05 < h < 4.2 for h in nodes)
        want = reference_sign_height(model, schedule)[0]
        assert band_node_signs(model, 10.0)[0] == want
        assert min(abs(want - 4.05), abs(want - 4.2)) <= 10.0 / 4096.0


def refinement_sizes(model, h_max):
    """``(h1, sizes)``: ``h1`` as a sweep measures it and the number of
    heights in each refinement call it makes."""
    sizes = []

    def counting(end, heights):
        sizes.append(heights.size)
        return least(end, heights)

    least, sweep._least_curvature = sweep._least_curvature, counting
    try:
        return band_node_signs(model, h_max)[0], sizes
    finally:
        sweep._least_curvature = least


class TestBisectionBound:
    """The h1 refinement stops at ``max(h_max, h_max - origin)
    / 4096`` after at most three calls of 64 heights in all, whatever the
    origin's sign: a bracket lies within that span, and three rounds of 21
    heights split it 10,648-fold."""

    @pytest.mark.parametrize("theta_free", [True, False])
    @pytest.mark.parametrize(
        "t_min, root, h_max",
        [
            (-10.0, -5.0, -1.0),  # a ceiling below 0: the resolution was negative
            (-10.0, -5.0, 0.0),  # a ceiling at 0: the resolution was 0
            (-1e5, -5000.0, 64.0),  # far below 0: 131,071 midpoints before
            (-3.0, 1.3, 10.0),
            (0.0, 5.0, 10.0),  # the default origin keeps h_max / 4096
            (2.0, 7.7, 64.0),
            (1e6, 1e6 + 3.3, 1e6 + 64.0),
        ],
    )
    def test_midpoints_stay_within_127(self, t_min, root, h_max, theta_free):
        model = sign_change_model([root], t_min, theta_free)
        assert first_panel_costs(model) == [15 if theta_free else 240]
        h1, sizes = refinement_sizes(model, h_max)
        # no call when the node bracket is already within the resolution
        # (t_min = 1e6)
        assert len(sizes) <= 3 and sum(sizes) <= 64
        assert (not sizes) == (t_min == 1e6)
        resolution = max(h_max, h_max - t_min) / 4096.0
        assert h1 - resolution <= root <= h1
        assert h1 == reference_sign_height(model, doubling_schedule(model, h_max))[0]

    @pytest.mark.parametrize("theta_free", [True, False])
    def test_wide_head_band_takes_three_rounds(self, theta_free, monkeypatch):
        # the head band [-9000, 90] of the first end is one panel whose top
        # node, 51.2, is the only one above the highest chart edge 0: the
        # bracket (51.2, 90.02) is 0.39 of the span 100, past two rounds
        sizes = []
        least = sweep._least_curvature

        def counting(end, heights):
            sizes.append(heights.size)
            return least(end, heights)

        flat = EndChart(sqrt_g_jet=lambda t, theta: Jet2(1.0, 0.0, 0.0))
        wide = sign_change_model([70.0], -9000.0, theta_free).ends[0]
        model = SurfaceModel(0, (wide, flat), AnalyticCore(0.0))
        monkeypatch.setattr(sweep, "_least_curvature", counting)
        m = sweep._measure(model, [90.0, 95.0, 100.0], sweep.DEFAULT_TOL)
        assert len(sizes) == 3 and sum(sizes) <= 64
        assert m.h1 - 100.0 / 4096.0 <= 70.0 <= m.h1

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-1e6, 1e6), st.floats(1e-3, 1e6), st.floats(0.02, 0.98), st.booleans())
    def test_drawn_origins_stay_within_127(self, t_min, span, at, theta_free):
        h_max = t_min + span
        root = t_min + at * (h_max - t_min)
        h1, sizes = refinement_sizes(sign_change_model([root], t_min, theta_free), h_max)
        assert len(sizes) <= 3 and sum(sizes) <= 64
        if h1 != t_min:  # K < -K_SLACK at some band node
            resolution = max(h_max, h_max - t_min) / 4096.0
            slack = 1e-9 * max(1.0, abs(root))  # K_SLACK and rounding of t - root
            assert h1 - resolution <= root + slack and root <= h1 + slack


def _faulty_chart(raise_in=(), negative_in=(), theta_free=True):
    """``sqrt(G) = t``, but raising :class:`DomainError` that names the
    first point inside a ``raise_in`` window, and negative inside a
    ``negative_in`` window; with a theta axis unless ``theta_free``."""

    def inside(t, windows):
        hit = np.zeros(t.shape, dtype=bool)
        for lo, hi in windows:
            hit |= (lo < t) & (t < hi)
        return hit

    def sqrt_g_jet(t, theta):
        t = np.asarray(t if theta_free else t + 0.0 * theta)
        hit = inside(t, raise_in)
        if hit.any():
            raise DomainError(f"fault at t={float(t[hit][0])!r}")
        f = np.where(inside(t, negative_in), -t, t)
        return Jet2(f, np.ones_like(f), np.zeros_like(f))

    return EndChart(sqrt_g_jet=sqrt_g_jet)


def _cap(end):
    return SurfaceModel(0, (end,), PolarCap())


def _analytic(end):
    return SurfaceModel(0, (end,), AnalyticCore(0.0))


# the windows below t = 1 lie in the head [0, 1] of the schedule [1, 2, 4, 8],
# whose band of w'' = 0 is one GK15 panel with nodes at 0.0676, 0.129, ...,
# 0.5, 0.604, ...; "sliver-and-head" lies between them and "sliver-at-a-node"
# holds two
CAP_FAULTS = {
    "sliver-and-head": [(0.07, 0.11), (0.5, 0.6)],
    "sliver-at-a-node": [(0.06, 0.07), (0.6, 0.61)],
    "sliver-and-band": [(0.07, 0.11), (5.0, 6.0)],
    "band": [(5.0, 6.0)],
}
# faults no chart call of the sweep reaches: they lie between the head
# band's GK15 nodes, so the sweep completes without reading them
MISSED_FAULTS = {"sliver-and-head-True", "sliver-and-head-False"}
# the mu' heights of the schedule [1, 2, 4, 8] are 2.828 +- 0.05 and +- 0.025
MU_PRIME_FAULTS = {
    "mu-prime-and-band": {"raise_in": [(2.7, 2.9)]},
    "mu-prime-only": {"raise_in": [(2.877, 2.879)]},
    "nonpositive-mu": {"negative_in": [(2.85, 2.9)]},
    "nonpositive-mu-after-band": {"negative_in": [(2.85, 2.9)], "raise_in": [(5.0, 6.0)]},
}
# name: (model builder, fault windows of the values the error may name);
# validation would refuse these charts, so the sweep is run without it
FAULT_CASES = {
    **{
        f"{name}-{free}": (
            lambda w=windows, free=free: _cap(_faulty_chart(raise_in=w, theta_free=free)),
            windows,
        )
        for name, windows in CAP_FAULTS.items()
        for free in (True, False)
    },
    # sqrt(G) < 0 at the band nodes in (5, 6), which read K with the checks
    # of gauss_curvature
    **{
        f"nonpositive-band-{free}": (
            lambda free=free: _cap(_faulty_chart(negative_in=[(5.0, 6.0)], theta_free=free)),
            [(5.0, 6.0)],
        )
        for free in (True, False)
    },
    # the DSL names the log's argument t - 0.6, negative below t = 0.6
    "dsl-cap": (lambda: _cap(chart_from_expression("t^2 + 0*log(t - 0.6)")), [(-0.6, 0.0)]),
    **{
        name: (lambda f=faults: _analytic(_faulty_chart(**f)), sum(faults.values(), []))
        for name, faults in MU_PRIME_FAULTS.items()
    },
}


class TestMergedBatches:
    """The mu' heights ride in the sweep's boundary batch; each value is
    that of the measurement run apart, and a merged batch that raises
    fails the sweep with its own error."""

    @pytest.mark.parametrize("name", zoo_names() + ("theta-cap",))
    def test_mu_prime_equals_the_separate_measurement(self, name):
        model = theta_cap() if name == "theta-cap" else zoo_entry(name).model
        m = sweep._measure(model, BAND_SCHEDULES[name], sweep.DEFAULT_TOL)
        assert m.mu_prime[2:] == mu_prime_order(model, *m.mu_prime[:2])

    @pytest.mark.parametrize("name", FAULT_CASES)
    def test_fault_fails_the_sweep(self, name):
        # the error is one a lone call raises too, and it names a point of
        # a fault window; with two faults either one may be named.  A
        # pinned miss: faults between the band nodes leave the sweep of
        # the flat cap w = t whole
        build, windows = FAULT_CASES[name]
        if name in MISSED_FAULTS:
            m = sweep._measure(build(), [1.0, 2.0, 4.0, 8.0], sweep.DEFAULT_TOL)
            assert (m.h1, m.kmin, m.kmax) == (0.0, 0.0, 0.0)
            return
        with pytest.raises((DomainError, OverflowError, NonPositiveMu)) as caught:
            sweep._measure(build(), [1.0, 2.0, 4.0, 8.0], sweep.DEFAULT_TOL)
        message = str(caught.value)
        named = [float(x) for x in re.findall(r"-?\d+(?:\.\d*)?(?:e[-+]?\d+)?", message)]
        assert any(lo < x < hi for x in named for lo, hi in windows), message


CHART_CALL_CASES = {
    "paraboloid": (lambda: zoo_entry("paraboloid").model, DEEP_SCHEDULE),
    "catenoid": (lambda: zoo_entry("catenoid").model, SCHEDULES["catenoid"]),
    "flat-cylinder": (lambda: zoo_entry("flat-cylinder").model, SCHEDULES["flat-cylinder"]),
    "theta-cap": (theta_cap, RunConfig("theta-cap").schedule()),
    "three-ends": (three_ends, BAND_SCHEDULES["three-ends"]),
}


@pytest.mark.parametrize(
    "name,calls",
    [("paraboloid", 6), ("catenoid", 4), ("flat-cylinder", 3), ("theta-cap", 5),
     ("three-ends", 13)],
)
def test_chart_calls_per_sweep(name, calls, monkeypatch):
    # chart calls do not depend on the machine: pinning them keeps the
    # merged batches merged, the direct route on the truncation's bands
    # and a chart listed at two positions measured once.  Validation
    # makes the one ``g`` call per distinct chart; the rest are sqrt_jet
    build, schedule = CHART_CALL_CASES[name]
    model = build()
    counted = []
    for method in ("sqrt_jet", "g"):
        original = getattr(EndChart, method)

        def counting(self, t, theta, original=original, method=method):
            counted.append(method)
            return original(self, t, theta)

        monkeypatch.setattr(EndChart, method, counting)
    run_sweep(model, schedule)
    charts = len({id(end) for end in model.ends})
    assert len(counted) == calls
    assert (counted.count("sqrt_jet"), counted.count("g")) == (calls - charts, charts)


def theta_end():
    # G varies in theta and K < 0 up to t ~ 7: circle batches, 2-D bands
    # and an h1 bisection between grid rows
    return chart_from_expression("(1 + t)^2*(1 + 0.2*cos(2*theta)*exp(-(t - 2)^2))^2")


# (distinct charts, the chart at each position, core curvature, schedule);
# the core closes Gauss-Bonnet, since every end but the catenoid's has
# sqrt(G)' = 1 at its edge
REPEATED_CHARTS = {
    "zoo-theta-free": (
        lambda: [zoo_entry("catenoid").model.ends[0]], (0, 0), 0.0, SCHEDULES["catenoid"]
    ),
    "dsl-theta": (lambda: [theta_end()], (0, 0), -2 * TWO_PI, list(np.geomspace(1.0, 16.0, 8))),
    "non-adjacent": (
        lambda: [chart_from_expression("(1 + t)^2", t_min=0.25), theta_end()],
        (0, 1, 0),
        -4 * TWO_PI,
        list(np.geomspace(1.0, 16.0, 8)),
    ),
}


@pytest.mark.parametrize("name", REPEATED_CHARTS)
def test_repeated_chart_reports_as_distinct_charts(name):
    # one chart object at several positions is measured once; the report
    # must be that of distinct objects around the same closures, which
    # are measured one by one
    build, positions, core, schedule = REPEATED_CHARTS[name]
    charts = build()
    shared = SurfaceModel(0, tuple(charts[k] for k in positions), AnalyticCore(core), name)
    apart = SurfaceModel(
        0, tuple(dataclasses.replace(charts[k]) for k in positions), AnalyticCore(core), name
    )
    assert len({id(end) for end in apart.ends}) == len(positions)
    want, got = run_sweep(apart, schedule), run_sweep(shared, schedule)
    assert got == want
    assert json.dumps(report_to_json_dict(got), indent=2) == json.dumps(
        report_to_json_dict(want), indent=2
    )
    assert report_to_csv(got) == report_to_csv(want)
    if name != "zoo-theta-free":
        assert shared.min_height < got.h1 < schedule[-1]
