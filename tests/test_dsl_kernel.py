"""The compiled DSL kernel against a plain walk of the tree.

``reference_eval`` is the tree walk that ``eval_jet`` ran before trees
were compiled: every node, ``t``-free or not, becomes a full
:class:`Jet2` and goes through the jet arithmetic of ``cvlab.jets``.
The kernel must give equal slots and raise the same exception with the
same message.  Zeros may differ in sign: ``x + 0.0`` is ``+0.0`` where
the reduced rule keeps ``x = -0.0``.
"""

import math
import random

import numpy as np
import pytest

from cvlab.dsl import Const, MetricExpr, Node, Unary, Var, eval_jet, parse_metric
from cvlab.jets import _BARE, Jet2, _bare_pow, ensure_finite
from test_array_eval import panel_nodes
from test_dsl import random_expression


def _walk(node: Node, t, theta) -> Jet2:
    if isinstance(node, Const):
        return Jet2(node.value)
    if isinstance(node, Var):
        if node.name == "t":
            return Jet2(t, 1.0, 0.0)
        return Jet2(theta, 0.0, 0.0)
    if isinstance(node, Unary):
        arg = _walk(node.arg, t, theta)
        if node.op == "neg":
            return -arg
        return _BARE[node.op](arg)
    left = _walk(node.left, t, theta)
    right = _walk(node.right, t, theta)
    if node.op == "add":
        return left + right
    if node.op == "sub":
        return left - right
    if node.op == "mul":
        return left * right
    if node.op == "div":
        return left / right
    return _bare_pow(left, right)


def reference_eval(node: Node, t, theta) -> Jet2:
    with np.errstate(all="ignore"):
        jet = _walk(node, t, theta)
    return ensure_finite(jet, "metric expression")


def outcome(fn, *args):
    try:
        return fn(*args), None
    except Exception as err:  # the type and message are compared
        return None, (type(err), str(err))


def assert_same(node, t, theta):
    """Both evaluators agree at ``(t, theta)``; returns whether they
    raised."""
    got, got_err = outcome(eval_jet, MetricExpr(node), t, theta)
    want, want_err = outcome(reference_eval, node, t, theta)
    assert got_err == want_err, (node, got_err, want_err)
    if want_err is None:
        for slot in ("f", "d1", "d2"):
            assert np.all(getattr(got, slot) == getattr(want, slot)), (node, slot)
    return want_err is not None


PANEL_T = panel_nodes(0.05, 6.0)[:, None]
PANEL_THETA = panel_nodes(0.0, 2.0 * math.pi)[None, :]

# every (left has t, right has t) pairing of each operator, exponents
# that are not small positive integers, and t-free roots
EXTRA = [
    "t^0.5", "t^-2", "t^0", "t^(1+1)", "t^theta", "theta^t", "2^t", "t^t",
    "(1+theta)^2.5", "theta^-1", "(theta-1)^0.5", "sin(theta)^2", "3",
    "theta", "-theta", "2/t", "t/theta", "theta/(theta-theta)", "t/(theta-theta)",
    "1/(t-t)", "theta/t", "t-theta", "theta-t", "theta+t", "t*sinh(theta)",
    "log(theta-1)*t", "exp(t*800)", "exp(theta*200)*t", "cosh(theta*200)",
    "sinh(-theta*200)", "t^(t*0)", "(t*0)^2", "sqrt(t - 1)", "tanh(theta)*t^3",
    "(t*1e200)^2", "t^2*(1+0.3*sin(2*theta)*t^2*exp(-1.5*t))^2",
]


@pytest.mark.parametrize("source", EXTRA)
def test_kernel_matches_walk_on_chosen_trees(source):
    root = parse_metric(source).root
    assert_same(root, PANEL_T, PANEL_THETA)
    for t, theta in ((0.7, 2.5), (2.0, 0.0), (0.0, 1.0)):
        assert_same(root, t, theta)


def test_kernel_matches_walk_on_random_trees():
    rng = random.Random(2026)
    raised = agreed = 0
    for _ in range(1200):
        node = random_expression(rng, rng.randint(1, 5))
        if assert_same(node, PANEL_T, PANEL_THETA):
            raised += 1
        else:
            agreed += 1
        for _ in range(2):
            assert_same(node, rng.uniform(0.05, 6.0), rng.uniform(0.0, 2.0 * math.pi))
    assert agreed > 600 and raised > 30


def test_expression_is_compiled_once(monkeypatch):
    import cvlab.dsl as dsl

    expr = parse_metric("t^2*(1+0.2*sin(theta)*exp(-t))^2")
    calls = []
    compile_ = dsl._compile
    monkeypatch.setattr(dsl, "_compile", lambda node: calls.append(node) or compile_(node))
    for t in (1.0, PANEL_T):
        eval_jet(expr, t, PANEL_THETA)
    assert calls == []


def test_t_free_subtrees_carry_no_derivative_slots():
    jet = eval_jet(parse_metric("t + sin(theta)"), PANEL_T, PANEL_THETA)
    # the walk would carry 15 x 15 arrays of zero derivatives
    assert jet.d1 == 1.0 and jet.d2 == 0.0
    assert jet.f.shape == (15, 15)
    assert eval_jet(parse_metric("2*theta"), PANEL_T, PANEL_THETA).d1 == 0.0
