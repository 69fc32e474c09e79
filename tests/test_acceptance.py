"""Acceptance gate: one test per shipped criterion, stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from cvlab.cli import main
from cvlab.dsl import MetricExpr, parse_metric, serialize
from cvlab.quadrature import NotMonotone, Tolerance, estimate_tail_limit
from cvlab.model import chart_from_expression
from cvlab.sweep import sweep_samples
from cvlab.zoo import zoo_entry, zoo_names

from conftest import mu_prime_order, walk_from
from test_dsl import check_against_finite_differences, random_expression

TWO_PI = 2.0 * math.pi

HYPOTHESIS_SURFACES = ("flat-cylinder", "polar-plane", "paraboloid", "capped-cone")


def report_line(num, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_1_truncated_identity_all_surfaces():
    """|2*pi*chi - c_trunc(h) - lambda(h)| < 1e-6 on 6 surfaces x 12 heights."""
    start = time.perf_counter()
    schedule = list(np.geomspace(1.0, 64.0, 12))
    worst = 0.0
    for name in zoo_names():
        model = zoo_entry(name).model
        for h in schedule:
            sample = sweep_samples(model, [h])[0]
            worst = max(worst, sample.gb_residual)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 30.0
    report_line(
        1,
        f"truncated closed-surface identity: worst residual {worst:.2e} "
        f"(< 1e-6), {elapsed:.1f}s (< 30s)",
        ok,
    )


def test_criterion_2_lambda_equals_mu_derivative():
    """Central-difference order >= 1.9 under step halving; deviation < 1e-4
    at step 0.05, on the paraboloid and the capped cone."""
    ok = True
    details = []
    for name, h0 in (("paraboloid", 5.0), ("capped-cone", 2.0)):
        model = zoo_entry(name).model
        dev, dev_half, _ = mu_prime_order(model, h0, 0.05)
        order = math.log2(dev / dev_half)
        details.append(f"{name}: dev(0.05)={dev:.2e}, order={order:.2f}")
        ok = ok and dev < 1e-4 and order >= 1.9
    report_line(2, "lambda = mu'; " + "; ".join(details), ok)


def test_criterion_3_monotone_tail(zoo_reports):
    """lambda nonincreasing beyond the detected height on hypothesis
    surfaces; the cusp control trips the NotMonotone signal."""
    ok = True
    for name in HYPOTHESIS_SURFACES:
        report = zoo_reports[name]
        ok = ok and report.h1 is not None
        ok = ok and report.verdicts["lambda-monotone"].status == "pass"
    cusp = zoo_reports["cusp-cap"]
    tripped = (
        cusp.verdicts["lambda-monotone"].status == "fail"
        and "NotMonotone" in cusp.verdicts["lambda-monotone"].note
    )
    # the estimator itself raises on the raw increasing sequence
    try:
        estimate_tail_limit([(float(h), -TWO_PI * math.exp(-h)) for h in range(1, 9)], 0.0)
        raised = False
    except NotMonotone:
        raised = True
    ok = ok and tripped and raised
    report_line(3, "monotone tail on certified surfaces, cusp trips NotMonotone", ok)


def test_criterion_4_limit_nonnegative(zoo_reports):
    """L >= -error_bound everywhere certified; exact limits reproduced
    within 1e-3."""
    ok = True
    for name in HYPOTHESIS_SURFACES:
        limit = zoo_reports[name].limit
        ok = ok and limit is not None and limit.value >= -limit.error_bound
    exact = {"flat-cylinder": 0.0, "polar-plane": TWO_PI, "capped-cone": math.pi}
    deltas = []
    for name, want in exact.items():
        got = zoo_reports[name].limit.value
        deltas.append(f"{name}: |L-{want:.4g}| = {abs(got - want):.1e}")
        ok = ok and abs(got - want) < 1e-3
    report_line(4, "boundary-turning limit nonnegative; " + "; ".join(deltas), ok)


def test_criterion_5_total_curvature_margins(zoo_reports):
    """2*pi*chi - c_total margins: 0, 2*pi, 0, pi within 1e-3; catenoid
    margin 4*pi observed but not certified."""
    expected = {
        "flat-cylinder": 0.0,
        "polar-plane": TWO_PI,
        "paraboloid": 0.0,
        "capped-cone": math.pi,
    }
    ok = True
    details = []
    for name, want in expected.items():
        report = zoo_reports[name]
        margin = TWO_PI * report.chi - report.c_total
        details.append(f"{name}: {margin:+.2e}")
        ok = ok and abs(margin - want) < 1e-3
        ok = ok and report.verdicts["theorem"].status == "pass"
    catenoid = zoo_reports["catenoid"]
    margin = TWO_PI * catenoid.chi - catenoid.c_total
    ok = ok and abs(margin - 2 * TWO_PI) < 1e-3
    verdict = catenoid.verdicts["theorem"]
    ok = ok and verdict.status == "not-applicable" and "not certified" in verdict.note
    report_line(
        5,
        "curvature-bound margins within 1e-3 (" + ", ".join(details)
        + f"); catenoid margin {margin:.4f} not certified",
        ok,
    )


def test_criterion_6_total_curvature_route_consistency(zoo_reports):
    """Limit route and direct improper integration agree within combined
    error bounds wherever both converge."""
    ok = True
    checked = 0
    for name in zoo_names():
        verdict = zoo_reports[name].verdicts["c-total-consistency"]
        if verdict.status == "not-applicable":
            continue
        checked += 1
        ok = ok and verdict.status == "pass"
    ok = ok and checked >= len(HYPOTHESIS_SURFACES)
    report_line(6, f"both total-curvature routes agree on {checked} surfaces", ok)


def test_criterion_7_positive_curvature_classification(zoo_reports):
    """Nonnegative curvature with a positive sample forces chi >= 1; the
    flat cylinder stays consistent by never sampling K > 0."""
    parab = zoo_reports["paraboloid"]
    ok = parab.verdicts["corollary"].status == "pass" and parab.chi == 1
    for name in HYPOTHESIS_SURFACES:
        report = zoo_reports[name]
        if report.chi <= 0:
            ok = ok and report.kmax_sampled <= 1e-10
            ok = ok and report.verdicts["corollary"].status == "not-applicable"
    report_line(7, "positive-curvature classification consistent across zoo", ok)


def test_criterion_8_dsl_autodiff_and_round_trip():
    """1000 random expression/point pairs match finite differences; 1000
    random trees survive serialize/parse."""
    rng = random.Random(20250810)
    matched = 0
    attempts = 0
    while matched < 1000 and attempts < 100000:
        attempts += 1
        node = random_expression(rng, rng.randint(1, 4))
        if check_against_finite_differences(
            node, rng.uniform(0.1, 2.5), rng.uniform(0.0, TWO_PI)
        ):
            matched += 1
    trips = 0
    for _ in range(1000):
        tree = random_expression(rng, rng.randint(1, 5))
        if parse_metric(serialize(MetricExpr(tree))).root == tree:
            trips += 1
    ok = matched == 1000 and trips == 1000
    report_line(
        8,
        f"autodiff vs finite differences on {matched}/1000 pairs; "
        f"round-trip {trips}/1000 trees",
        ok,
    )


def test_criterion_9_divergent_end_is_reported(tmp_path, capsys):
    """A flaring end reports 'does not converge' toward -inf; exit 0 in
    non-strict mode."""
    end = chart_from_expression("exp(t^2)")
    res = walk_from(lambda t, theta: -end.sqrt_jet(t, theta).d2, 0.0)
    ok = (not res.converged) and res.divergence == "-inf"

    config = tmp_path / "flared.cfg"
    config.write_text(
        "[surface]\nname = flared-end\ngenus = 0\nends = 1\n"
        "core = analytic:6.283185307179586\n\n[end1]\ng = exp(t^2)\nt_min = 0.0\n"
    )
    code = main(
        ["sweep", "--config", str(config), "--h-min", "0.5", "--h-max", "2",
         "--steps", "5", "--format", "json", "--out", "-"]
    )
    data = json.loads(capsys.readouterr().out)
    ok = ok and code == 0
    ok = ok and "does not converge" in data["c_total"] and "-inf" in data["c_total"]
    with capsys.disabled():
        report_line(9, f"divergence handled: c_total = {data['c_total']!r}, exit 0", ok)
