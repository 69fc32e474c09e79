"""One array call must agree with per-point 0-d calls through the same code."""

import math
import random

import numpy as np
import pytest

from cvlab.dsl import eval_jet
from cvlab.jets import DomainError, Jet2, Overflow, jcosh, jexp, jlog, jpow, jsqrt
from cvlab.quadrature import _XGK
from cvlab.zoo import zoo_entry, zoo_names
from test_dsl import random_expression

REL = 1e-12


def panel_nodes(a, b):
    return 0.5 * (a + b) + 0.5 * (b - a) * _XGK


def assert_jets_close(array_jet, point_jets, shape):
    for slot in ("f", "d1", "d2"):
        got = np.broadcast_to(getattr(array_jet, slot), shape)
        for idx, jet in point_jets.items():
            want = getattr(jet, slot)
            assert abs(got[idx] - want) <= REL * max(abs(want), 1.0), (slot, idx)


def outcome(fn):
    try:
        return fn(), None
    except DomainError as err:
        return None, type(err)


def test_dsl_panel_grid_matches_pointwise_calls():
    rng = random.Random(2207)
    t = panel_nodes(0.05, 6.0)[:, None]
    theta = panel_nodes(0.0, 2.0 * math.pi)[None, :]
    shape = (15, 15)
    agreed = raised = 0
    for _ in range(120):
        node = random_expression(rng, rng.randint(1, 4))
        whole, whole_err = outcome(lambda: eval_jet(node, t, theta))
        points, point_errs = {}, set()
        for i in range(15):
            for j in range(15):
                jet, err = outcome(lambda: eval_jet(node, float(t[i, 0]), float(theta[0, j])))
                if err is None:
                    points[i, j] = jet
                else:
                    point_errs.add(err)
        if whole_err is None:
            assert not point_errs, node
            assert_jets_close(whole, points, shape)
            agreed += 1
        else:
            # the array call stops at the first failing check in walk
            # order; some point must fail that same check
            assert whole_err in point_errs, (node, whole_err, point_errs)
            raised += 1
    assert agreed > 20 and raised > 5


@pytest.mark.parametrize("name", zoo_names())
def test_zoo_chart_array_matches_pointwise_calls(name):
    end = zoo_entry(name).model.ends[0]
    # step 0.25 hits the cone junction t = 10 and the paraboloid's first
    # solved-span edge t = 64 exactly, and crosses into the next span
    t = np.linspace(end.t_min, 80.0, 321)[:, None]
    theta = np.array([0.0, 1.1, 4.0])[None, :]
    assert 10.0 in t and 64.0 in t
    whole = end.sqrt_jet(t, theta)
    points = {
        (i, j): end.sqrt_jet(float(t[i, 0]), float(theta[0, j]))
        for i in range(t.shape[0])
        for j in range(theta.shape[1])
    }
    assert_jets_close(whole, points, (t.shape[0], theta.shape[1]))


def test_single_overflowing_entry_raises_overflow():
    x = Jet2(np.array([0.0, 1.0, 800.0, 2.0]), 1.0, 0.0)
    with pytest.raises(Overflow):
        jexp(x)
    with pytest.raises(Overflow):
        jcosh(x)
    with pytest.raises(Overflow):
        jpow(Jet2(np.array([1.0, 1e200, 2.0]), 1.0, 0.0), 3)


def test_single_out_of_domain_entry_raises_domain_error():
    x = Jet2(np.array([1.0, 0.0, 2.0]), 1.0, 0.0)
    for fn in (jlog, jsqrt, lambda g: Jet2(1.0) / g):
        with pytest.raises(DomainError) as err:
            fn(x)
        assert not isinstance(err.value, Overflow)
