import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvlab.model as model_module
from cvlab.dsl import Binary, Const, Unary, Var, serialize
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
from cvlab.zoo import all_entries
from conftest import first_panel_costs


class TestEulerChar:
    def test_plane(self):
        assert SurfaceModel(genus=0, ends=(flat_chart(),), core=PolarCap()).chi == 1

    def test_cylinder(self):
        # the circle-times-line cylinder has vanishing Euler characteristic
        assert SurfaceModel(genus=0, ends=(flat_chart(),) * 2, core=AnalyticCore(0.0)).chi == 0

    def test_punctured_torus(self):
        assert SurfaceModel(genus=1, ends=(flat_chart(),), core=AnalyticCore(0.0)).chi == -1

    def test_alternating_sum_small_cases(self):
        for genus, ends in itertools.product(range(5), range(1, 5)):
            model = SurfaceModel(genus, (flat_chart(),) * ends, AnalyticCore(0.0))
            assert model.chi == 2 - 2 * genus - ends

    def test_invalid_topologies_rejected(self):
        with pytest.raises(ValueError):
            SurfaceModel(genus=-1, ends=(flat_chart(),), core=AnalyticCore(0.0))
        with pytest.raises(ValueError):
            SurfaceModel(genus=0, ends=(), core=AnalyticCore(0.0))


def flat_chart():
    return EndChart(g_jet=lambda t, theta: Jet2(1.0))


def violation(model):
    """The message of the ModelInvalid that validation raises, or None."""
    try:
        validate_surface(model)
    except ModelInvalid as err:
        return str(err)
    return None


class TestValidateSurface:
    @pytest.mark.parametrize("before", [0, 1])
    def test_repeated_bad_chart_named_at_its_first_position(self, before):
        # a chart listed twice is sampled once, at its first position, and
        # raises the message of two distinct charts around its closure
        bad = EndChart(g_jet=lambda t, theta: Jet2(1.0 - t, -1.0, 0.0))
        head = (flat_chart(),) * before
        shared = SurfaceModel(0, (*head, bad, bad), AnalyticCore(0.0))
        apart = SurfaceModel(0, (*head, bad, dataclasses.replace(bad)), AnalyticCore(0.0))
        assert violation(shared) == violation(apart)
        assert violation(shared).startswith(f"end {before + 1}: G <= 0 at sampled point (t=")

    def test_flat_cylinder_accepted(self):
        model = SurfaceModel(
            genus=0,
            ends=(flat_chart(), flat_chart()),
            core=AnalyticCore(0.0),
            name="flat",
        )
        assert violation(model) is None

    def test_decaying_linear_metric_flagged(self):
        model = SurfaceModel(
            genus=0,
            ends=(chart_from_expression("1 - t"),),
            core=AnalyticCore(0.0),
        )
        assert "G <= 0" in violation(model)

    def test_polar_cap_needs_single_end(self):
        model = SurfaceModel(
            genus=0,
            ends=(flat_chart(), flat_chart()),
            core=PolarCap(),
        )
        assert "single end" in violation(model)

    def test_strict_mode_raises(self):
        model = SurfaceModel(
            genus=0,
            ends=(flat_chart(), flat_chart()),
            core=PolarCap(),
        )
        with pytest.raises(ModelInvalid):
            validate_surface(model)

    def test_aperiodic_theta_dependence_flagged(self):
        model = SurfaceModel(
            genus=0,
            ends=(chart_from_expression("2 + sin(theta/2)"),),
            core=AnalyticCore(0.0),
        )
        assert "periodic" in violation(model)

    def test_periodic_theta_dependence_accepted(self):
        model = SurfaceModel(
            genus=0,
            ends=(chart_from_expression("2 + sin(theta)"),),
            core=AnalyticCore(0.0),
        )
        assert violation(model) is None

    def test_every_zoo_surface_validates_at_64(self, monkeypatch):
        monkeypatch.setattr(model_module, "_SAMPLES_PER_AXIS", 64)
        for entry in all_entries():
            assert violation(entry.model) is None, entry.name

    def test_chi_invariant_under_end_permutation(self):
        entry = next(e for e in all_entries() if len(e.model.ends) == 2)
        model = entry.model
        swapped = SurfaceModel(
            genus=model.genus,
            ends=model.ends[::-1],
            core=model.core,
            name=model.name,
        )
        assert swapped.chi == model.chi
        assert violation(swapped) is None


def recording_model(expr, walk_rows=False):
    """One-end model whose chart logs the shape of every ``t`` it sees.

    With ``walk_rows`` a grid call raises, so validation walks the rows
    as it does for a chart that fails somewhere on the grid.
    """
    chart = chart_from_expression(expr)
    shapes = []

    def g_jet(t, theta):
        shapes.append(np.shape(t))
        if walk_rows and np.ndim(t) == 2:
            raise DomainError("grid refused")
        return chart.g_jet(t, theta)

    model = SurfaceModel(
        genus=0,
        ends=(EndChart(g_jet=g_jet),),
        core=AnalyticCore(0.0),
    )
    return model, shapes


# G vanishes at the interior grid point t = 8*4/15, theta = pi
INTERIOR_ZERO = "1 + cos(theta) + (t - 32/15)^2"
ZERO_MESSAGE = "end 1: G <= 0 at sampled point (t=2.13333, theta=3.14159)"
PERIOD_MESSAGE = (
    "end 1: G is not 2*pi-periodic in theta "
    "(t=0.533333, theta=0.9: 2.5775 vs 1.65665)"
)


class TestValidationGrid:
    """The validation grid, positivity angles then period pairs, is one
    call per end; a grid that raises is called again row by row, and
    either way the violations are the same."""

    @pytest.mark.parametrize(
        "expr,want",
        [
            (INTERIOR_ZERO, ZERO_MESSAGE),
            ("exp(t^2/5)*(2 + sin(theta/2))", PERIOD_MESSAGE),
            ("exp(t^2/5)*(" + INTERIOR_ZERO + ")", ZERO_MESSAGE),
            ("exp(t^2/5)", None),
        ],
        ids=["grid-zero", "overflow-period", "overflow-zero", "overflow-only"],
    )
    def test_violations_equal_row_walk(self, expr, want):
        model, shapes = recording_model(expr)
        walked, _ = recording_model(expr, walk_rows=True)
        assert violation(model) == want
        assert violation(walked) == want
        grid_raises = expr.startswith("exp(t^2/5)")  # overflows at t_min + 64 only
        assert shapes[0] == (19, 1)
        assert any(shape == () for shape in shapes) == grid_raises

    @pytest.mark.parametrize("walk_rows", [False, True])
    def test_nan_grid_point_gets_its_message(self, walk_rows):
        # NaN at the grid point t = 8*5/15, theta = 2*pi*3/16, without
        # raising, on the grid or on the rows of a grid that raised
        def g_jet(t, theta):
            if walk_rows and np.ndim(t) == 2:
                raise DomainError("grid refused")
            hit = (np.abs(t - 8.0 * 5 / 15) < 1e-12) & (np.abs(theta - 2 * math.pi * 3 / 16) < 1e-12)
            return Jet2(np.where(hit, np.nan, 1.0 + 0.0 * t * theta))

        model = SurfaceModel(0, (EndChart(g_jet=g_jet),), AnalyticCore(0.0))
        assert violation(model) == (
            "end 1: G <= 0 at sampled point (t=2.66667, theta=1.1781)"
        )

    def test_period_mismatch_on_a_clean_grid_gets_its_message(self):
        model, shapes = recording_model("2 + sin(theta/2)*t")
        assert violation(model) == (
            "end 1: G is not 2*pi-periodic in theta "
            "(t=0.533333, theta=0.9: 2.23198 vs 1.76802)"
        )
        # one grid holds both checks; the message is read from its masks
        assert shapes == [(19, 1)]

    def test_grid_path_is_one_call_per_grid(self):
        model, shapes = recording_model("2 + sin(theta)")
        assert violation(model) is None
        # the positivity angles and the period pairs as one grid
        assert shapes == [(19, 1)]


def one_end(expr):
    return SurfaceModel(0, (chart_from_expression(expr),), AnalyticCore(0.0))


def test_first_failing_point_names_its_error():
    assert violation(one_end("log(t - 4)")) == (
        "end 1: evaluation failed at (t=0): log of nonpositive value -4.0"
    )


def test_period_pair_with_a_failing_point_is_skipped():
    # log(9 - theta) raises at 4.2 + 2*pi only, which pairs with theta = 4.2
    assert violation(one_end("2 + sin(theta) + 0*log(9 - theta)")) is None


def test_grid_that_raises_calls_points_only_in_the_row_that_raised():
    # exp(t^2/5) overflows at t_min + 64 only: the grid, its 19 rows, then
    # the 16 positivity and 8 period points of the last row
    chart = chart_from_expression("exp(t^2/5)")
    calls = []

    def g_jet(t, theta):
        calls.append((np.ndim(t), np.ndim(theta)))
        return chart.g_jet(t, theta)

    model = SurfaceModel(0, (EndChart(g_jet=g_jet),), AnalyticCore(0.0))
    assert violation(model) is None
    assert calls == [(2, 2)] + [(0, 1)] * 19 + [(0, 0)] * 24


class TestOneClosure:
    """A chart states its metric once; validation reads the ``w`` that
    the sweep integrates through ``G = w*|w|``."""

    @pytest.mark.parametrize("closures", [{}, {"g_jet", "sqrt_g_jet"}], ids=["neither", "both"])
    def test_exactly_one_closure(self, closures):
        unit = lambda t, theta: Jet2(1.0)
        with pytest.raises(ValueError, match="exactly one of g_jet and sqrt_g_jet"):
            EndChart(**{name: unit for name in closures})

    def test_sqrt_chart_that_is_not_periodic_is_rejected(self):
        # w = (1+t)*(2 + sin(theta/2)) has period 4*pi
        def sqrt_g_jet(t, theta):
            s = 2 + np.sin(theta / 2)
            return Jet2((1 + t) * s, s)

        chart = EndChart(sqrt_g_jet=sqrt_g_jet)
        assert violation(SurfaceModel(0, (chart,), AnalyticCore(0.0))) == (
            "end 1: G is not 2*pi-periodic in theta "
            "(t=0.533333, theta=0.9: 13.9399 vs 5.75865)"
        )

    def test_negative_sqrt_chart_is_rejected(self):
        # w = (t - 3)^2 - 1/2 < 0 on (2.29, 3.71), where w^2 would pass
        chart = EndChart(
            sqrt_g_jet=lambda t, theta: Jet2((t - 3) ** 2 - 0.5 + 0.0 * theta, 2 * (t - 3), 2.0)
        )
        assert violation(SurfaceModel(0, (chart,), AnalyticCore(0.0))) == (
            "end 1: G <= 0 at sampled point (t=2.66667, theta=0)"
        )

    def test_g_of_a_sqrt_chart_keeps_the_sign_of_w(self):
        chart = EndChart(sqrt_g_jet=lambda t, theta: Jet2(t, 1.0))
        assert chart.g(np.array([-3.0, 2.0]), 0.0).tolist() == [-9.0, 4.0]
        assert chart.g(1e200, 0.0) == math.inf


def test_chart_sqrt_jet_consistency():
    chart = chart_from_expression("exp(-2*t)")
    direct = chart.sqrt_jet(0.5, 0.0)
    assert direct.f == pytest.approx(pytest.approx(0.6065306597126334))
    assert direct.d1 == pytest.approx(-direct.f, rel=1e-12)
    assert direct.d2 == pytest.approx(direct.f, rel=1e-12)


def contains_theta(node):
    """Whether a DSL tree contains the variable ``theta`` anywhere, even
    under a factor that makes it vanish (``t^2 + 0*theta``)."""
    if isinstance(node, Var):
        return node.name == "theta"
    if isinstance(node, Unary):
        return contains_theta(node.arg)
    if isinstance(node, Binary):
        return contains_theta(node.left) or contains_theta(node.right)
    return False


# trees that never raise and stay finite on the validation grid, whose
# theta enters through cos and sin only, so every G below is periodic
_leaves = st.one_of(
    st.builds(Const, st.floats(0.1, 3.0)),
    st.just(Var("t")),
    st.sampled_from([Unary("cos", Var("theta")), Unary("sin", Var("theta"))]),
)
_trees = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.builds(Unary, st.sampled_from(["neg", "sin", "cos", "tanh"]), children),
        st.builds(Binary, st.sampled_from(["add", "sub", "mul"]), children, children),
    ),
    max_leaves=12,
)


class TestThetaFreeDeclaration:
    """Whether an end depends on theta is read by the quadrature from the
    shape of each answer its chart gives, not declared; validation returns
    nothing."""

    @pytest.mark.parametrize(
        "expr,theta_free",
        [
            ("t^2", True),
            ("cosh(t)^2", True),
            ("t^2*(1+0.1*sin(theta))", False),
            ("t^2+0*theta", False),
        ],
    )
    def test_derived_from_the_tree(self, expr, theta_free):
        chart = chart_from_expression(expr, t_min=1.0)  # G > 0 from t_min on
        model = SurfaceModel(0, (chart,), AnalyticCore(0.0))
        assert validate_surface(model) is None
        assert first_panel_costs(model) == [15 if theta_free else 240]

    def test_zoo_charts_are_measured_theta_free(self):
        for entry in all_entries():
            assert first_panel_costs(entry.model) == [15] * len(entry.model.ends), entry.name

    @settings(max_examples=150, deadline=None)
    @given(_trees)
    def test_measured_flag_is_the_tree_walk(self, tree):
        # G = 2 + sin(tree) lies in [1, 3]: valid whatever the tree
        g = Binary("add", Const(2.0), Unary("sin", tree))
        assert first_panel_costs(one_end(serialize(g))) == [240 if contains_theta(g) else 15]

    def test_repeated_chart_gets_its_flag_at_every_position(self):
        flat, turning = chart_from_expression("1 + t^2"), chart_from_expression("2 + cos(theta)")
        model = SurfaceModel(0, (flat, turning, flat), AnalyticCore(0.0))
        assert first_panel_costs(model) == [15, 240, 15]
