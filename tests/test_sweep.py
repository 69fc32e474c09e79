import math

import numpy as np
import pytest

from cvlab.jets import Jet2
from cvlab.model import AnalyticCore, EndChart, ModelInvalid, SurfaceModel, Topology
from cvlab.sweep import (
    NonPositiveMu,
    check_gauss_bonnet_truncated,
    check_lambda_is_mu_prime,
    compute_sample,
    detect_h1,
    lambda_total,
    measure_mu_prime_order,
    mu,
    run_sweep,
    sampled_curvature_range,
    total_curvature_direct,
    truncated_total_curvature,
)
from cvlab.zoo import zoo_entry

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def reports(zoo_reports):
    return zoo_reports


class TestBoundaryFunctionals:
    def test_flat_cylinder_mu(self):
        model = zoo_entry("flat-cylinder").model
        assert mu(model, 5.0) == pytest.approx(2 * TWO_PI, abs=1e-10)

    def test_polar_plane_mu(self):
        assert mu(zoo_entry("polar-plane").model, 3.0) == pytest.approx(
            3 * TWO_PI, abs=1e-9
        )

    def test_cusp_mu(self):
        assert mu(zoo_entry("cusp-cap").model, 2.0) == pytest.approx(
            TWO_PI * math.exp(-2.0), abs=1e-9
        )

    def test_mu_underflow_raises(self):
        with pytest.raises(NonPositiveMu):
            mu(zoo_entry("cusp-cap").model, 800.0)

    def test_flat_cylinder_lambda(self):
        assert lambda_total(zoo_entry("flat-cylinder").model, 9.0) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_polar_plane_lambda(self):
        assert lambda_total(zoo_entry("polar-plane").model, 4.0) == pytest.approx(
            TWO_PI, abs=1e-9
        )

    def test_paraboloid_lambda_at_unit_radius(self):
        h = 0.5 * (math.sqrt(2.0) + math.asinh(1.0))
        assert lambda_total(zoo_entry("paraboloid").model, h) == pytest.approx(
            TWO_PI / math.sqrt(2.0), abs=1e-6
        )

    def test_heights_below_chart_rejected(self):
        with pytest.raises(ValueError):
            mu(zoo_entry("polar-plane").model, -1.0)


class TestTruncatedTotalCurvature:
    def test_flat_cases_vanish(self):
        assert truncated_total_curvature(
            zoo_entry("flat-cylinder").model, 6.0
        ) == pytest.approx(0.0, abs=1e-10)
        assert truncated_total_curvature(
            zoo_entry("polar-plane").model, 6.0
        ) == pytest.approx(0.0, abs=1e-8)

    def test_paraboloid_matches_slope_formula(self):
        entry = zoo_entry("paraboloid")
        for h in (1.0, 2.0, 8.0):
            assert truncated_total_curvature(entry.model, h) == pytest.approx(
                entry.oracle.c_trunc(h), abs=1e-6
            )


class TestGaussBonnetResidual:
    def test_flat_cylinder(self):
        sample = compute_sample(zoo_entry("flat-cylinder").model, 3.0)
        assert check_gauss_bonnet_truncated(sample, 0) < 1e-10

    def test_polar_plane(self):
        sample = compute_sample(zoo_entry("polar-plane").model, 2.0)
        assert check_gauss_bonnet_truncated(sample, 1) < 1e-10

    def test_paraboloid_heights(self):
        model = zoo_entry("paraboloid").model
        for h in (1.0, 2.0, 4.0, 8.0):
            sample = compute_sample(model, h)
            assert check_gauss_bonnet_truncated(sample, 1) < 1e-6


class TestLambdaMuPrime:
    def test_polar_plane_linear_mu(self):
        samples = [compute_sample(zoo_entry("polar-plane").model, h) for h in (1, 2, 3, 4)]
        assert check_lambda_is_mu_prime(samples) < 1e-10

    def test_flat_cylinder(self):
        samples = [compute_sample(zoo_entry("flat-cylinder").model, h) for h in (1, 2, 3)]
        assert check_lambda_is_mu_prime(samples) < 1e-12

    def test_paraboloid_second_order(self):
        dev, dev_half, _ = measure_mu_prime_order(
            zoo_entry("paraboloid").model, 5.0, 0.1
        )
        ratio = dev / dev_half
        assert 3.5 < ratio < 4.5


class TestDetectH1:
    def test_paraboloid_found_at_origin(self):
        model = zoo_entry("paraboloid").model
        assert detect_h1(model, 64.0) == pytest.approx(0.0, abs=1e-9)

    def test_cusp_not_found(self):
        assert detect_h1(zoo_entry("cusp-cap").model, 64.0) is None

    def test_constructed_sign_change_located(self):
        # synthetic chart whose curvature is (t - 5) * sin^2(theta):
        # negative somewhere for every t < 5, nonnegative beyond
        def sqrt_g_jet(t, theta):
            return Jet2(1.0, 0.0, -(t - 5.0) * np.sin(theta) ** 2)

        def g_jet(t, theta):
            w = sqrt_g_jet(t, theta)
            return Jet2(1.0, 0.0, 2.0 * w.d2)

        chart = EndChart(g_jet=g_jet, sqrt_g_jet=sqrt_g_jet)
        model = SurfaceModel(
            topology=Topology(0, 1),
            ends=(chart,),
            core=AnalyticCore(TWO_PI, (0.0,)),
            name="sign-change",
        )
        h1 = detect_h1(model, 10.0, grid=16)
        assert h1 == pytest.approx(5.0, abs=10.0 / 4096.0 + 1e-6)

    def test_curvature_range_scan(self):
        kmin, kmax = sampled_curvature_range(zoo_entry("capped-cone").model, 64.0)
        assert kmin >= 0.0
        assert kmax > 1e-3

    def test_probe_ceiling_must_clear_chart_edges(self):
        with pytest.raises(ValueError):
            detect_h1(zoo_entry("polar-plane").model, 0.0)


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
            topology=Topology(0, 1),
            ends=(chart_from_expression("1 - t"),),
            core=AnalyticCore(0.0, (0.0,)),
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

    def test_workers_do_not_change_results(self):
        model = zoo_entry("polar-plane").model
        schedule = [1.0, 2.0, 4.0, 8.0]
        seq = run_sweep(model, schedule, workers=1)
        par = run_sweep(model, schedule, workers=4)
        assert [s.mu for s in seq.samples] == [s.mu for s in par.samples]
        assert [s.c_trunc for s in seq.samples] == [s.c_trunc for s in par.samples]


class TestDirectTotalCurvature:
    def test_catenoid_classical_value(self):
        res = total_curvature_direct(zoo_entry("catenoid").model)
        assert res.converged
        assert res.value == pytest.approx(-2 * TWO_PI, abs=1e-5)

    def test_positive_and_negative_parts_split(self):
        # hypothesis-satisfying surfaces have integrable negative part;
        # here it vanishes identically and the positive part carries all
        # of the curvature
        from cvlab.curvature import gauss_curvature
        from cvlab.quadrature import integrate_improper

        entry = zoo_entry("capped-cone")
        end = entry.model.ends[0]

        def k_minus_density(t, theta):
            return np.maximum(-gauss_curvature(end, t, theta), 0.0) * end.sqrt_jet(t, theta).f

        res = integrate_improper(k_minus_density, 1e-6)
        assert res.converged
        assert res.value == pytest.approx(0.0, abs=1e-9)
        direct = total_curvature_direct(entry.model)
        assert direct.value == pytest.approx(entry.oracle.c_total, abs=1e-6)
