"""Result records are named tuples: their field order is positional API."""

import dataclasses
import inspect

import pytest

import cvlab.cli
import cvlab.dsl
import cvlab.model
import cvlab.quadrature
import cvlab.sweep
import cvlab.zoo
from cvlab.dsl import Binary, Const, Unary, Var
from cvlab.model import AnalyticCore, PolarCap
from cvlab.quadrature import ImproperResult, QuadResult
from cvlab.sweep import SweepReport, TruncationSample, Verdict, _Measured
from cvlab.zoo import Oracle, ZooEntry

QUAD_FIELDS = ("value", "error_estimate", "evaluations", "converged")

RECORD_FIELDS = {
    QuadResult: QUAD_FIELDS,
    ImproperResult: (*QUAD_FIELDS, "divergence", "partial_sums"),
    TruncationSample: ("h", "mu", "lam", "c_trunc", "quad_error", "gb_residual"),
    Verdict: ("status", "residual", "bound", "note"),
    SweepReport: (
        "surface", "chi", "samples", "h1", "limit", "c_total", "divergence",
        "c_total_route", "verdicts", "kmin_sampled", "kmax_sampled",
    ),
    _Measured: (
        "samples", "mu_prime", "h1", "kmin", "kmax", "tail_from", "limit",
        "limit_note", "direct",
    ),
    Const: ("value",),
    Var: ("name",),
    Unary: ("op", "arg"),
    Binary: ("op", "left", "right"),
    PolarCap: (),
    AnalyticCore: ("total_curvature",),
    Oracle: ("gauss_K", "mu", "lam", "c_trunc", "L", "c_total", "chi", "hypothesis_holds"),
    ZooEntry: ("model", "oracle"),
}


@pytest.mark.parametrize("cls", RECORD_FIELDS, ids=lambda cls: cls.__name__)
def test_record_is_a_named_tuple_with_pinned_fields(cls):
    assert issubclass(cls, tuple)
    assert cls._fields == RECORD_FIELDS[cls]


def test_record_defaults():
    assert ImproperResult._field_defaults == {"divergence": None, "partial_sums": ()}
    assert ImproperResult(1.0, 0.0, 15, True)[4:] == (None, ())
    assert Verdict._field_defaults == {"residual": None, "bound": None, "note": ""}
    assert SweepReport._field_defaults == {"kmin_sampled": 0.0, "kmax_sampled": 0.0}


def test_only_validating_types_stay_dataclasses():
    # each of these checks or compiles in __post_init__, which a named
    # tuple cannot run
    found = {
        name
        for module in (cvlab.cli, cvlab.dsl, cvlab.model, cvlab.quadrature, cvlab.sweep, cvlab.zoo)
        for name, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls)
    }
    assert found == {"Tolerance", "EndChart", "SurfaceModel", "MetricExpr", "RunConfig"}
