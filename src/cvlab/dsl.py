"""Expression DSL for user-supplied metric coefficients G(t, theta).

Grammar (recursive descent)::

    expression ::= term (('+' | '-') term)*
    term       ::= '-' term | factor (('*' | '/') factor)*
    factor     ::= base ('^' factor)?          # '^' is right-associative
    base       ::= NUMBER | 't' | 'theta'
                 | NAME '(' expression ')'
                 | '(' expression ')'
                 | '-' base

A leading minus scopes over the whole product that follows, so
``-2*t`` denotes ``-(2*t)``, and ``-t^2`` denotes ``-(t^2)``.  Numeric
literals may use decimal or scientific notation.  The only variables
are ``t`` and ``theta``; the function set is exp, log, sqrt, sin, cos,
sinh, cosh, tanh.  Parentheses, function calls, each unary minus and
each ``^`` open one nesting level, and each ``+ - * /`` operator nests
everything to its left one level deeper and opens one level for its
right operand, as the left-associative tree does; past
:data:`MAX_NESTING` levels the source is a :class:`ParseError`.

Evaluation returns a :class:`~cvlab.jets.Jet2` carrying the value and
exact first/second t-derivatives; theta is a passive parameter.  Each
tree is compiled once into nested closures (forward-mode activity
analysis, as in Griewank and Walther, *Evaluating Derivatives*, ch. 6):
a subtree without ``t`` yields plain values and no derivative slots,
and :class:`~cvlab.jets.Jet2` takes such a value as a constant, so the
kernel has one jet rule and one value rule per operator.  The kernel
calls the bare jet rules of :mod:`cvlab.jets`, which open no
``np.errstate``; :func:`eval_jet` opens one ``np.errstate(all="ignore")``
around the whole kernel instead of one per function node.
``t`` and ``theta`` may be numpy arrays (broadcast against each other),
so a whole quadrature panel costs one call of the kernel.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Union

import numpy as np

from .jets import DomainError, Jet2, ensure_finite
from .jets import _BARE, _VALUES, _bare_ipow, _bare_pow, _integer_exponent, _nonzero, _value_pow

__all__ = [
    "Binary",
    "Const",
    "MetricExpr",
    "ParseError",
    "Unary",
    "UnknownIdentifier",
    "Var",
    "eval_jet",
    "parse_metric",
    "serialize",
]

VARIABLES = ("t", "theta")

# levels of (), f(), unary minus, '^' and chain operators one expression
# may reach; a level costs the recursive descent up to four Python frames
# and the compiled tree at most one, so a deeper source is a ParseError
# well before Python's recursion limit
MAX_NESTING = 200

BINARY_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "^"}


class ParseError(ValueError):
    """Malformed source.  Carries the byte offset of the offending token
    and the set of token kinds that would have been accepted there."""

    def __init__(self, message: str, offset: int, expected: frozenset = frozenset()):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset
        self.expected = expected


class UnknownIdentifier(ParseError):
    """An identifier other than t, theta, or a known function name."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier {name!r}", offset)
        self.name = name


class Const(NamedTuple):
    value: float


class Var(NamedTuple):
    name: str


class Unary(NamedTuple):
    op: str  # 'neg' or a function name
    arg: "Node"


class Binary(NamedTuple):
    op: str  # add | sub | mul | div | pow
    left: "Node"
    right: "Node"


Node = Union[Const, Var, Unary, Binary]


@dataclass(frozen=True)
class MetricExpr:
    """Parsed expression tree, compiled once into the kernel that
    :func:`eval_jet` runs."""

    root: Node
    _kernel: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_kernel", _kernel(self.root))


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
    """,
    re.VERBOSE,
)


def _byte_offset(source: str, index: int) -> int:
    return len(source[:index].encode("utf-8"))


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(source):
        m = _TOKEN_RE.match(source, i)
        if m is None:
            raise ParseError(
                f"unexpected character {source[i]!r}", _byte_offset(source, i)
            )
        i = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        tokens.append((kind, m.group(), m.start()))
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.depth = 0  # levels open at the next token
        self.peak = 0  # the deepest level reached in the current chain

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, expected: frozenset = frozenset()) -> ParseError:
        _, _, idx = self.peek()
        return ParseError(message, _byte_offset(self.source, idx), expected)

    def too_deep(self) -> ParseError:
        return self.error(f"nesting deeper than {MAX_NESTING} levels")

    def deeper(self) -> None:
        """Open one more nesting level at the next token, which
        :meth:`close` closes.  A :class:`ParseError` discards the parser,
        so no level is closed on the way out."""
        if self.depth == MAX_NESTING:
            raise self.too_deep()
        self.depth += 1
        if self.depth > self.peak:
            self.peak = self.depth

    def close(self, node: Node) -> Node:
        """Close the level :meth:`deeper` opened and return ``node``."""
        self.depth -= 1
        return node

    def expect_op(self, symbol: str) -> None:
        kind, text, _ = self.peek()
        if kind != "op" or text != symbol:
            raise self.error(f"expected {symbol!r}", frozenset({symbol}))
        self.take()

    def parse(self) -> Node:
        node = self.expression()
        kind, text, _ = self.peek()
        if kind != "end":
            raise self.error(f"unexpected trailing input {text!r}")
        return node

    def chain(self) -> tuple[int, int]:
        """Start a left-associative chain ``operand (op operand)*`` at the
        current depth; returns ``(outer, enclosing)`` for :meth:`link` and
        :meth:`unchain`.  Each operator (:meth:`link`) nests everything to
        its left one level deeper, as the tree does, and opens one level
        for its right operand; ``peak`` follows the deepest level."""
        outer, enclosing = self.depth, self.peak
        self.peak = outer
        return outer, enclosing

    def unchain(self, outer: int, enclosing: int, node: Node) -> Node:
        """End the chain that :meth:`chain` started and return ``node``."""
        self.depth, self.peak = outer, max(enclosing, self.peak)
        return node

    def link(self, outer: int) -> None:
        """Take the next operator of the chain at depth ``outer``."""
        if self.peak == MAX_NESTING:
            raise self.too_deep()
        self.take()
        self.depth, self.peak = outer + 1, self.peak + 1

    def expression(self) -> Node:
        outer, enclosing = self.chain()
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind != "op" or text not in "+-":
                return self.unchain(outer, enclosing, node)
            self.link(outer)
            node = Binary("add" if text == "+" else "sub", node, self.term())

    def term(self) -> Node:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.deeper()
            self.take()
            return self.close(Unary("neg", self.term()))
        outer, enclosing = self.chain()
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind != "op" or text not in "*/":
                return self.unchain(outer, enclosing, node)
            self.link(outer)
            node = Binary("mul" if text == "*" else "div", node, self.factor())

    def factor(self) -> Node:
        node = self.base()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.deeper()
            self.take()
            return self.close(Binary("pow", node, self.factor()))
        return node

    def base(self) -> Node:
        kind, text, idx = self.peek()
        if kind == "number":
            self.take()
            return Const(float(text))
        if kind == "name":
            self.take()
            if text in VARIABLES:
                return Var(text)
            if text in _BARE:
                self.deeper()
                self.expect_op("(")
                arg = self.expression()
                self.expect_op(")")
                return self.close(Unary(text, arg))
            raise UnknownIdentifier(text, _byte_offset(self.source, idx))
        if kind == "op" and text == "(":
            self.deeper()
            self.take()
            node = self.expression()
            self.expect_op(")")
            return self.close(node)
        if kind == "op" and text == "-":
            self.deeper()
            self.take()
            return self.close(Unary("neg", self.base()))
        raise self.error(
            f"expected a value, got {text!r}" if text else "unexpected end of input",
            frozenset({"number", "t", "theta", "name(", "(", "-"}),
        )


def parse_metric(source: str) -> MetricExpr:
    """Parse a metric-coefficient expression into a tree."""
    return MetricExpr(_Parser(source).parse())


def _format_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _serialize_node(node: Node) -> str:
    if isinstance(node, Const):
        return _format_number(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Unary):
        inner = _serialize_node(node.arg)
        if node.op == "neg":
            return f"(-{inner})"
        return f"{node.op}({inner})"
    if isinstance(node, Binary):
        left = _serialize_node(node.left)
        right = _serialize_node(node.right)
        return f"({left} {BINARY_SYMBOL[node.op]} {right})"
    raise TypeError(f"not an expression node: {node!r}")


def serialize(expr: MetricExpr | Node) -> str:
    """Emit the canonical fully-parenthesized form.

    ``parse_metric(serialize(e))`` is structurally equal to ``e``.
    """
    node = expr.root if isinstance(expr, MetricExpr) else expr
    return _serialize_node(node)


# op -> (rule when an operand has t, rule when neither does).  A t-free
# operand is a plain value, which Jet2 takes as a constant.
_RULES = {
    "add": (operator.add, operator.add),
    "sub": (operator.sub, operator.sub),
    "mul": (operator.mul, operator.mul),
    "div": (operator.truediv, lambda v, w: v / _nonzero(w)),
    "pow": (_bare_pow, _value_pow),
}


def _compile(node: Node):
    """``(has_t, kernel)``: ``kernel(t, theta)`` returns a :class:`Jet2`
    when the subtree contains ``t``, otherwise its plain value."""
    if isinstance(node, Const):
        value = node.value
        return False, lambda t, theta: value
    if isinstance(node, Var):
        if node.name == "t":
            return True, lambda t, theta: Jet2(t, 1.0, 0.0)
        return False, lambda t, theta: theta
    if isinstance(node, Unary):
        has_t, arg = _compile(node.arg)
        if node.op == "neg":
            return has_t, lambda t, theta: -arg(t, theta)
        fn = (_BARE if has_t else _VALUES)[node.op]
        return has_t, lambda t, theta: fn(arg(t, theta))
    if isinstance(node, Binary):
        left_t, left = _compile(node.left)
        right_t, right = _compile(node.right)
        has_t = left_t or right_t
        jet_rule, value_rule = _RULES[node.op]
        rule = jet_rule if has_t else value_rule
        if left_t and node.op == "pow" and isinstance(node.right, Const):
            if _integer_exponent(node.right.value):  # _bare_pow's test, decided once
                n = int(node.right.value)
                rule = lambda a, _: _bare_ipow(a, n)
        return has_t, lambda t, theta: rule(left(t, theta), right(t, theta))
    raise TypeError(f"not an expression node: {node!r}")


def _kernel(node: Node):
    has_t, kernel = _compile(node)
    return kernel if has_t else lambda t, theta: Jet2(kernel(t, theta))


def eval_jet(expr: MetricExpr, t, theta) -> Jet2:
    """Evaluate the expression and its first two exact t-derivatives at
    scalar or array points ``(t, theta)``, through the kernel compiled
    when ``expr`` was built.

    Raises :class:`DomainError` on out-of-domain intermediates or a
    non-finite result anywhere among the points.
    """
    # the one error state of the kernel, whose jet rules are the bare
    # forms: float semantics, where arithmetic that overflows yields inf
    # or nan, which the explicit checks and the finiteness check below
    # turn into DomainError
    with np.errstate(all="ignore"):
        jet = expr._kernel(t, theta)
    return ensure_finite(jet, "metric expression")


# re-exported so callers of the DSL see one error surface
__all__.append("DomainError")
