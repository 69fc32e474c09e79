import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvlab.cli import main
from cvlab.dsl import (
    MAX_NESTING,
    Binary,
    Const,
    MetricExpr,
    ParseError,
    Unary,
    UnknownIdentifier,
    Var,
    eval_jet,
    parse_metric,
    serialize,
)
from cvlab.jets import DomainError
from cvlab.model import PolarCap, SurfaceModel, chart_from_expression
from cvlab.sweep import run_sweep


class TestParser:
    def test_exp_of_scaled_t(self):
        expr = parse_metric("exp(-2*t)")
        assert expr.root == Unary("exp", Unary("neg", Binary("mul", Const(2.0), Var("t"))))

    def test_power(self):
        assert parse_metric("t^2").root == Binary("pow", Var("t"), Const(2.0))

    def test_power_is_right_associative(self):
        assert parse_metric("t^2^3").root == Binary(
            "pow", Var("t"), Binary("pow", Const(2.0), Const(3.0))
        )

    def test_precedence(self):
        assert parse_metric("1 + 2*t").root == Binary(
            "add", Const(1.0), Binary("mul", Const(2.0), Var("t"))
        )
        # leading minus scopes over the whole product, but not past +/-
        assert parse_metric("1 - -2*t").root == Binary(
            "sub", Const(1.0), Unary("neg", Binary("mul", Const(2.0), Var("t")))
        )
        # exponent binds tighter than the leading minus
        assert parse_metric("-t^2").root == Unary(
            "neg", Binary("pow", Var("t"), Const(2.0))
        )

    def test_scientific_notation(self):
        assert parse_metric("1.5e-3").root == Const(1.5e-3)
        assert parse_metric("2E4").root == Const(2e4)

    def test_malformed_input_reports_offset(self):
        with pytest.raises(ParseError) as err:
            parse_metric("1 + * 2")
        assert err.value.offset == 4

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifier):
            parse_metric("x + 1")
        with pytest.raises(UnknownIdentifier):
            parse_metric("frob(t)")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_metric("1 + 2 )")

    def test_missing_close_paren(self):
        with pytest.raises(ParseError):
            parse_metric("exp(t")


# n levels of each nesting form, all equal to t
NESTED = {
    "parentheses": lambda n: "(" * n + "t" + ")" * n,
    "unary-minus": lambda n: "-" * n + "t",
    "power-chain": lambda n: "t" + "^1" * n,
}


def _polar_cap_report(g):
    model = SurfaceModel(0, (chart_from_expression(g),), PolarCap())
    return run_sweep(model, [1, 2, 4, 8])


class TestNestingCap:
    @pytest.mark.parametrize("form", NESTED)
    def test_deepest_accepted_expression_sweeps(self, form):
        # the wrapping parentheses open one level, the inner form the rest
        deepest = f"({NESTED[form](MAX_NESTING - 1)})^2"
        report = _polar_cap_report(deepest)
        plane = _polar_cap_report("t^2")
        assert report.samples == plane.samples
        assert report.verdicts == plane.verdicts

    @pytest.mark.parametrize("form", NESTED)
    def test_one_level_deeper_is_a_parse_error(self, form, tmp_path, capsys):
        source = f"({NESTED[form](MAX_NESTING)})^2"
        with pytest.raises(ParseError, match=f"deeper than {MAX_NESTING} levels") as err:
            parse_metric(source)
        opener = {"parentheses": "(", "unary-minus": "-", "power-chain": "^"}[form]
        assert source[err.value.offset] == opener
        path = tmp_path / "deep.cfg"
        path.write_text(
            f"[surface]\ngenus = 0\nends = 1\ncore = polar-cap\n\n[end1]\ng = {source}\n"
        )
        assert main(["verify", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"error: config {path}: [end1] g: nesting deeper than")

    @pytest.mark.parametrize(
        "source", ["(" * 3000 + "t" + ")" * 3000, "-" * 3000 + "t", "t" + "^t" * 2000]
    )
    def test_far_too_deep_is_a_parse_error(self, source):
        with pytest.raises(ParseError):
            parse_metric(source)

    def test_function_calls_count(self):
        parse_metric("exp(" * MAX_NESTING + "t" + ")" * MAX_NESTING)
        with pytest.raises(ParseError) as err:
            parse_metric("exp(" * (MAX_NESTING + 1) + "t" + ")" * (MAX_NESTING + 1))
        assert err.value.offset == 4 * MAX_NESTING + 3

    def test_chains_stay_left_associative(self):
        a, b, c = Var("t"), Const(2.0), Var("theta")
        assert parse_metric("t + 2 - theta").root == Binary("sub", Binary("add", a, b), c)
        assert parse_metric("t * 2 / theta").root == Binary("div", Binary("mul", a, b), c)

    # t^2 opens one level for its exponent, and each operator of the
    # chain nests t^2 one level deeper
    @pytest.mark.parametrize("link", ["*1", "/1", "+0", "-0"])
    def test_deepest_accepted_chain_sweeps(self, link):
        report = _polar_cap_report("t^2" + link * (MAX_NESTING - 1))
        plane = _polar_cap_report("t^2")
        assert report.samples == plane.samples
        assert report.verdicts == plane.verdicts

    @pytest.mark.parametrize("link", ["*1", "/1", "+0", "-0"])
    def test_one_operand_more_is_a_parse_error(self, link):
        source = "t^2" + link * MAX_NESTING
        with pytest.raises(ParseError, match=f"deeper than {MAX_NESTING} levels") as err:
            parse_metric(source)
        assert err.value.offset == len(source) - 2

    def test_chains_nested_as_first_operands_count(self):
        # each chain alone is short, but every one of them pushes the
        # chains inside its first operand deeper into the tree
        source = "t"
        for _ in range(60):
            source = "(" + source + "+1" * 130 + ")"
        with pytest.raises(ParseError, match=f"deeper than {MAX_NESTING} levels"):
            parse_metric(source)

    def test_long_chain_config_exits_one(self, tmp_path, capsys):
        # 980 operands used to compile, then overflow the stack in validation
        path = tmp_path / "chain.cfg"
        path.write_text(
            "[surface]\ngenus = 0\nends = 1\ncore = polar-cap\n\n[end1]\n"
            f"g = t^2{'*1' * 980}\n"
        )
        assert main(["verify", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"error: config {path}: [end1] g: nesting deeper than")


class TestSerialize:
    def test_power(self):
        assert serialize(parse_metric("t^2")) == "(t ^ 2)"

    def test_exp_with_negated_product(self):
        assert serialize(parse_metric("exp(-2*t)")) == "exp((-(2 * t)))"

    def test_round_trip_examples(self):
        for source in ("t^2", "exp(-2*t)", "cosh(t)^2", "1 + theta/2", "sqrt(1+t^2)"):
            expr = parse_metric(source)
            again = parse_metric(serialize(expr))
            assert again.root == expr.root


class TestEval:
    def test_exp_jet(self):
        jet = eval_jet(parse_metric("exp(-2*t)"), 0.0, 0.0)
        assert jet.f == pytest.approx(1.0, abs=1e-15)
        assert jet.d1 == pytest.approx(-2.0, abs=1e-14)
        assert jet.d2 == pytest.approx(4.0, abs=1e-14)

    def test_square_jet(self):
        jet = eval_jet(parse_metric("t^2"), 3.0, 0.0)
        assert (jet.f, jet.d1, jet.d2) == (9.0, 6.0, 2.0)

    def test_cosh_square_matches_finite_differences(self):
        expr = parse_metric("cosh(t)^2")
        t0, h = 0.7, 1e-4

        def value(t):
            return math.cosh(t) ** 2

        d1 = (value(t0 + h) - value(t0 - h)) / (2 * h)
        d2 = (value(t0 + h) - 2 * value(t0) + value(t0 - h)) / (h * h)
        jet = eval_jet(expr, t0, 0.0)
        assert jet.d1 == pytest.approx(d1, rel=1e-6)
        assert jet.d2 == pytest.approx(d2, rel=1e-6)

    def test_theta_is_passive(self):
        jet = eval_jet(parse_metric("theta^2 + t"), 2.0, 3.0)
        assert jet.f == pytest.approx(11.0)
        assert jet.d1 == pytest.approx(1.0)
        assert jet.d2 == pytest.approx(0.0)

    def test_domain_error_on_log_of_negative(self):
        with pytest.raises(DomainError):
            eval_jet(parse_metric("log(t - 5)"), 1.0, 0.0)

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            eval_jet(parse_metric("1/(t - 1)"), 1.0, 0.0)

    def test_deterministic(self):
        expr = parse_metric("sin(t)*exp(-t^2/4) + cosh(theta)")
        a = eval_jet(expr, 0.8371, 2.13)
        b = eval_jet(expr, 0.8371, 2.13)
        assert (a.f, a.d1, a.d2) == (b.f, b.d1, b.d2)


# --- property tests ---------------------------------------------------

_leaves = st.one_of(
    st.builds(Const, st.floats(min_value=0.0, max_value=100.0, allow_nan=False)),
    st.sampled_from([Var("t"), Var("theta")]),
)
_unary_ops = st.sampled_from(["neg", "exp", "log", "sqrt", "sin", "cos", "sinh", "cosh", "tanh"])
_binary_ops = st.sampled_from(["add", "sub", "mul", "div", "pow"])


def _extend(children):
    return st.one_of(
        st.builds(Unary, _unary_ops, children),
        st.builds(Binary, _binary_ops, children, children),
    )


_trees = st.recursive(_leaves, _extend, max_leaves=24)


@given(_trees)
@settings(max_examples=300, deadline=None)
def test_serialize_parse_round_trip(tree):
    assert parse_metric(serialize(MetricExpr(tree))).root == tree


@given(st.text(alphabet="abcdefgh_xyz", min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_only_whitelisted_identifiers(name):
    from cvlab.jets import _BARE

    if name in ("t", "theta") or name in _BARE:
        return
    with pytest.raises(UnknownIdentifier):
        parse_metric(name)


# --- finite-difference derivative oracle ------------------------------


def random_expression(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        r = rng.random()
        if r < 0.4:
            return Const(round(rng.uniform(0.0, 3.0), 6))
        if r < 0.8:
            return Var("t")
        return Var("theta")
    r = rng.random()
    if r < 0.45:
        op = rng.choice(["add", "sub", "mul", "div"])
        return Binary(op, random_expression(rng, depth - 1), random_expression(rng, depth - 1))
    if r < 0.55:
        return Binary("pow", random_expression(rng, depth - 1), Const(float(rng.randint(1, 3))))
    if r < 0.65:
        return Unary("neg", random_expression(rng, depth - 1))
    fn = rng.choice(["exp", "log", "sqrt", "sin", "cos", "sinh", "cosh", "tanh"])
    return Unary(fn, random_expression(rng, depth - 1))


def check_against_finite_differences(node, t0, theta0, rel=1e-6):
    """Richardson-refined central differences as the derivative oracle.

    Returns False when the probe point is unusable (domain error or
    wild scale); raises AssertionError on a genuine mismatch.
    """
    h = 1e-4
    expr = MetricExpr(node)
    try:
        jet = eval_jet(expr, t0, theta0)
        values = {dt: eval_jet(expr, t0 + dt, theta0).f
                  for dt in (-h, -h / 2, 0.0, h / 2, h)}
    except DomainError:
        return False
    fmax = max(abs(v) for v in values.values())
    if fmax > 1e2 or abs(jet.d1) > 1e4 or abs(jet.d2) > 1e6:
        return False

    def d1_at(step):
        return (values[step] - values[-step]) / (2 * step)

    def d2_at(step):
        return (values[step] - 2 * values[0.0] + values[-step]) / (step * step)

    d1 = (4 * d1_at(h / 2) - d1_at(h)) / 3
    d2 = (4 * d2_at(h / 2) - d2_at(h)) / 3
    # the oracle's own roundoff floor
    noise1 = 64 * 2.3e-16 * fmax / h
    noise2 = 64 * 2.3e-16 * fmax / (h * h) * 4
    assert abs(jet.d1 - d1) <= max(rel * abs(d1), 1e-9, noise1), (node, t0)
    assert abs(jet.d2 - d2) <= max(rel * abs(d2), 1e-9, noise2), (node, t0)
    return True


def test_jets_match_finite_differences_bulk():
    rng = random.Random(1387)
    checked = 0
    attempts = 0
    while checked < 250 and attempts < 20000:
        attempts += 1
        node = random_expression(rng, rng.randint(1, 4))
        t0 = rng.uniform(0.1, 2.5)
        theta0 = rng.uniform(0.0, 2 * math.pi)
        if check_against_finite_differences(node, t0, theta0):
            checked += 1
    assert checked == 250
