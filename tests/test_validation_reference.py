"""Validation against the full-grid, loop-built reference.

``validate_surface`` reads a chart value without a theta axis (0-d,
``(1, 1)`` or ``(N, 1)``) as one column and skips the checks that one
column cannot fail.  The reference below is the earlier code, kept
verbatim: every chart value broadcast to the ``19 x 24`` grid and every
mask run over it.  Hypothesis draws the charts (return shape,
nonpositive, NaN, infinite and raising rows, a theta factor that can
break positivity or periodicity); the messages must be equal.
Validation returns nothing: the sweep reads theta dependence from each
answer its quadrature gets.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cvlab.model as model_module
from cvlab.jets import DomainError, Jet2, Overflow
from cvlab.model import (
    AnalyticCore,
    EndChart,
    ModelInvalid,
    SurfaceModel,
    _per_chart,
    _positivity_probes,
    validate_surface,
)

PERIOD_THETAS = model_module._PERIOD_THETAS
PERIOD_PAIRS = model_module._PERIOD_PAIRS


# -- reference: the full-grid validation --------------------------------------


def full_grid_evaluate(end, ts, thetas):
    values = np.full((ts.size, thetas.size), np.nan)
    errors = {}
    try:
        values[:] = end.g(ts[:, None], thetas[None, :])
    except DomainError:
        for i, t in enumerate(ts):
            try:
                values[i] = end.g(t, thetas)
            except DomainError:
                for k, theta in enumerate(thetas):
                    try:
                        values[i, k] = end.g(t, theta)
                    except DomainError as err:
                        errors[i, k] = err
    return values, errors


def full_grid_positivity(j, ts, thetas, values, errors):
    values = values[:, : thetas.size]
    errors = {(i, k): err for (i, k), err in errors.items() if k < thetas.size}
    bad = ~(np.isfinite(values) & (values > 0.0))
    for index, err in errors.items():
        bad[index] = not isinstance(err, Overflow)
    if not bad.any():
        return None
    i, k = np.argwhere(bad)[0]
    t, theta, value = ts[i], thetas[k], values[i, k]
    if (i, k) in errors:
        return f"end {j + 1}: evaluation failed at (t={t:g}): {errors[i, k]}"
    assert not (value > 0.0 and math.isfinite(value))
    return f"end {j + 1}: G <= 0 at sampled point (t={t:g}, theta={theta:g})"


def full_grid_period(j, ts, values):
    n = PERIOD_THETAS.size
    here, shifted = values[:, :n], values[:, n:]
    scale = np.maximum(np.maximum(np.abs(here), np.abs(shifted)), 1e-300)
    bad = np.abs(here - shifted) > 1e-9 * scale
    if not bad.any():
        return None
    i, k = np.argwhere(bad)[0]
    return (
        f"end {j + 1}: G is not 2*pi-periodic in theta "
        f"(t={ts[i]:g}, theta={PERIOD_THETAS[k]:g}: {here[i, k]:g} vs {shifted[i, k]:g})"
    )


def full_grid_violation(model):
    """The first chart-grid violation of an analytic-core model, as the
    full-grid validation reports it, or None."""
    messages = []

    def check(j, end):
        ts, thetas = _positivity_probes(end, False)
        values, errors = full_grid_evaluate(end, ts, np.concatenate([thetas, PERIOD_PAIRS]))
        message = full_grid_positivity(j, ts, thetas, values, errors)
        if message is None:
            rows = slice(1, None, max(1, len(ts) // 4))
            message = full_grid_period(j, ts[rows], values[rows, thetas.size :])
        messages.append(message)

    _per_chart(model.ends, check)
    return next((m for m in messages if m is not None), None)


def violation(model):
    try:
        validate_surface(model)
    except ModelInvalid as err:
        return str(err)
    return None


# -- drawn charts --------------------------------------------------------------

TS, ANGLES = _positivity_probes(EndChart(g_jet=lambda t, theta: Jet2(1.0)), False)
GRID_THETAS = np.concatenate([ANGLES, PERIOD_PAIRS])

ROW_VALUES = {"zero": 0.0, "negative": -1.5, "nan": math.nan, "inf": math.inf}
# a raising kind raises at every point of its row, or at one grid angle
RAISING = {"raise": DomainError, "overflow": Overflow}

row_kind = st.one_of(
    st.floats(0.25, 4.0),
    st.sampled_from(sorted(ROW_VALUES)),
    st.tuples(st.sampled_from(sorted(RAISING)), st.none() | st.integers(0, GRID_THETAS.size - 1)),
)
# theta factors: none, periodic (negative somewhere once a > 1), aperiodic
FACTORS = {
    "flat": lambda theta, a: 1.0,
    "cos": lambda theta, a: 1.0 + a * np.cos(theta),
    "aperiodic": lambda theta, a: 1.0 + 0.1 * a * theta,
}


def drawn_chart(shape, rows, factor, a):
    """``G = base(t)*factor(theta)`` on the validation grid of ``t_min = 0``.

    ``shape`` is what a grid call returns: ``"0-d"`` and ``"(1, 1)"``
    (a chart whose rows are all one kind), ``"(N, 1)"`` (the value
    ignores theta: a row or point call gets a 0-d value) or
    ``"(N, 24)"`` (the broadcast value, which varies in theta by
    ``factor``).
    """
    table = dict(zip(TS.tolist(), rows))

    def base(kind):
        return ROW_VALUES.get(kind, kind) if not isinstance(kind, tuple) else 1.0

    def g_jet(t, theta):
        tb, thb = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(theta, dtype=float))
        for ti, th in zip(tb.flat, thb.flat):
            kind = table[ti]
            if isinstance(kind, tuple) and (kind[1] is None or th == GRID_THETAS[kind[1]]):
                raise RAISING[kind[0]](f"drawn {kind[0]} at (t={ti}, theta={th})")
        if shape in ("0-d", "(1, 1)"):
            value = np.float64(base(rows[0]))
            return Jet2(np.full((1, 1), value) if shape == "(1, 1)" and np.ndim(t) == 2 else value)
        column = np.vectorize(lambda ti: base(table[ti]), otypes=[float])(np.asarray(t, dtype=float))
        if shape == "(N, 1)":
            return Jet2(column)
        with np.errstate(invalid="ignore"):
            return Jet2(column * FACTORS[factor](np.asarray(theta, dtype=float), a))

    return EndChart(g_jet=g_jet)


@st.composite
def charts(draw):
    shape = draw(st.sampled_from(["0-d", "(1, 1)", "(N, 1)", "(N, 24)"]))
    if shape in ("0-d", "(1, 1)"):
        rows = [draw(row_kind)] * TS.size
    else:
        # positive rows, then at most three rows of any kind
        rows = draw(st.lists(st.floats(0.25, 4.0), min_size=TS.size, max_size=TS.size))
        for i, kind in draw(st.lists(st.tuples(st.integers(0, TS.size - 1), row_kind), max_size=3)):
            rows[i] = kind
    factor = draw(st.sampled_from(sorted(FACTORS))) if shape == "(N, 24)" else "flat"
    return drawn_chart(shape, rows, factor, draw(st.floats(0.1, 2.0)))


def one_end(chart):
    return SurfaceModel(0, (chart,), AnalyticCore(0.0))


POSITIVE = [2.0] * TS.size
NAN_ROW = [2.0] * 7 + ["nan"] + [2.0] * 11


@settings(max_examples=200, deadline=None)
@given(st.lists(charts(), min_size=1, max_size=2))
@example([drawn_chart("(N, 1)", NAN_ROW, "flat", 1.0)])
@example([drawn_chart("0-d", ["nan"] * TS.size, "flat", 1.0)])
@example([drawn_chart("(N, 24)", POSITIVE, "cos", 0.5)])
@example([drawn_chart("(N, 24)", POSITIVE, "aperiodic", 1.0)])
@example([drawn_chart("(N, 1)", POSITIVE, "flat", 1.0),
          drawn_chart("(N, 24)", POSITIVE, "cos", 1.5)])
def test_validation_equals_the_full_grid(ends):
    model = SurfaceModel(0, tuple(ends), AnalyticCore(0.0))
    assert violation(model) == full_grid_violation(model)
    if violation(model) is None:
        assert validate_surface(model) is None


def test_theta_free_values_are_read_as_one_column(monkeypatch):
    # each shape without a theta axis reaches the checks as one column; a
    # theta axis, or a grid that raised and was walked row by row, keeps
    # the full grid
    seen = []
    positivity = model_module._positivity_violation

    def recording(j, ts, thetas, values, errors):
        seen.append(values.shape)
        return positivity(j, ts, thetas, values, errors)

    monkeypatch.setattr(model_module, "_positivity_violation", recording)
    overflow_row = POSITIVE[:-1] + [("overflow", None)]
    cases = [
        drawn_chart("0-d", POSITIVE, "flat", 1.0),
        drawn_chart("(1, 1)", POSITIVE, "flat", 1.0),
        drawn_chart("(N, 1)", POSITIVE, "flat", 1.0),
        drawn_chart("(N, 24)", POSITIVE, "cos", 0.5),
        drawn_chart("(N, 1)", overflow_row, "flat", 1.0),
    ]
    for chart in cases:
        assert validate_surface(one_end(chart)) is None
    full = (TS.size, GRID_THETAS.size)
    assert seen == [(1, 1), (1, 1), (TS.size, 1), full, full]
