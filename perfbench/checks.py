"""Oracle checks on one sweep's rendered JSON and CSV reports.

Tolerances come from the test suite and are never loosened:

* ``mu``, ``lambda``, ``c_trunc`` within ``max(1e-6, 1e-6*|oracle|)`` at
  every height (tests/test_zoo.py, computed quantities vs oracles);
* truncated Gauss-Bonnet residual below ``1e-6`` (acceptance criterion 1);
* ``L`` and ``c_total`` within ``1e-3`` (acceptance criteria 4 and 5).

Verdicts are checked against what the oracle says is true, in a form
that still holds once unconverged integrals turn verdicts into ``fail``
or ``not-applicable``: a true statement may be ``pass`` or
``not-applicable`` but never ``fail``; a false one may be ``fail`` or
``not-applicable`` but never ``pass``; on a control (curvature negative
far out) the theorem is never certified.
"""

from __future__ import annotations

import csv
import io
import json
import math

from workloads import Expect

TWO_PI = 2.0 * math.pi
VALUE_REL = 1e-6
VALUE_ABS = 1e-6
GB_RESIDUAL = 1e-6
LIMIT_ABS = 1e-3
CSV_HEADER = ["h", "mu", "lambda", "c_trunc", "quad_error", "gb_residual"]
DIVERGENT_TEXT = "does not converge (toward -inf)"


def expect_from_oracle(oracle, name: str) -> Expect:
    """Expectation for a zoo entry from its closed-form oracle."""
    return Expect(
        name=name,
        chi=oracle.chi,
        mu=oracle.mu,
        lam=oracle.lam,
        c_trunc=oracle.c_trunc,
        L=oracle.L,
        c_total=oracle.c_total,
        hypothesis=oracle.hypothesis_holds,
    )


def statement_truths(expect: Expect, schedule) -> dict[str, bool]:
    """Which verdict statements the oracle says hold on this schedule."""
    lams = [expect.lam(h) for h in schedule]
    nonincreasing = all(
        b <= a + 1e-12 * max(1.0, abs(a)) for a, b in zip(lams, lams[1:])
    )
    finite_limit = math.isfinite(expect.L)
    if expect.c_total is None:
        theorem = True  # c_total = -inf
    else:
        theorem = TWO_PI * expect.chi - expect.c_total >= -1e-12
    return {
        "gauss-bonnet-truncated": True,
        "lambda-mu-prime": True,
        "lambda-monotone": nonincreasing,
        "L-nonneg": finite_limit and expect.L >= 0.0,
        "theorem": theorem,
        "corollary": True,
        "c-total-consistency": True,
    }


def _close(got, want: float, rel: float, abs_: float) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= max(abs_, rel * abs(want))


def check_report(expect: Expect, schedule, json_text: str, csv_text: str) -> list[str]:
    """Every way the rendered reports miss their oracle; empty when correct."""
    problems: list[str] = []
    data = json.loads(json_text)
    if data.get("surface") != expect.name:
        problems.append(f"surface {data.get('surface')!r} != {expect.name!r}")
    if data.get("chi") != expect.chi:
        problems.append(f"chi {data.get('chi')!r} != {expect.chi}")

    samples = data.get("samples", [])
    if [s.get("h") for s in samples] != list(schedule):
        problems.append("sample heights differ from the schedule")
    for s in samples:
        h = s["h"]
        for key, oracle in (("mu", expect.mu), ("lambda", expect.lam), ("c_trunc", expect.c_trunc)):
            want = oracle(h)
            if not _close(s.get(key), want, VALUE_REL, VALUE_ABS):
                problems.append(f"{key}({h:g}) = {s.get(key)!r}, oracle {want!r}")
        if not (isinstance(s.get("gb_residual"), float) and s["gb_residual"] < GB_RESIDUAL):
            problems.append(f"gb_residual({h:g}) = {s.get('gb_residual')!r} >= {GB_RESIDUAL}")

    L = data.get("L")
    if L is not None:
        if not math.isfinite(expect.L):
            problems.append(f"L = {L!r} reported for a divergent limit")
        elif not _close(L, expect.L, 0.0, LIMIT_ABS):
            problems.append(f"L = {L!r}, oracle {expect.L!r}")
    c_total = data.get("c_total")
    if expect.c_total is None:
        if c_total != DIVERGENT_TEXT:
            problems.append(f"c_total = {c_total!r}, oracle diverges toward -inf")
    elif not _close(c_total, expect.c_total, 0.0, LIMIT_ABS):
        problems.append(f"c_total = {c_total!r}, oracle {expect.c_total!r}")

    verdicts = data.get("verdicts", {})
    for name, true in statement_truths(expect, schedule).items():
        status = verdicts.get(name, {}).get("status")
        if status not in ("pass", "fail", "not-applicable"):
            problems.append(f"verdict {name}: status {status!r}")
        elif status == ("fail" if true else "pass"):
            problems.append(f"verdict {name} = {status} contradicts the oracle")
    if not expect.hypothesis and verdicts.get("theorem", {}).get("status") == "pass":
        problems.append("theorem certified on a control surface")

    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows or rows[0] != CSV_HEADER:
        problems.append(f"CSV header {rows[:1]!r}")
    elif len(rows) - 1 != len(samples):
        problems.append(f"CSV has {len(rows) - 1} rows for {len(samples)} samples")
    else:
        for row, s in zip(rows[1:], samples):
            if [float(x) for x in row] != [s.get(key) for key in CSV_HEADER]:
                problems.append(f"CSV row at h={s['h']!r} does not round-trip the JSON sample")
                break
    return problems
