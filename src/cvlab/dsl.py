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
sinh, cosh, tanh.

Evaluation returns a :class:`~cvlab.jets.Jet2` carrying the value and
exact first/second t-derivatives; theta is a passive parameter.  ``t``
and ``theta`` may be numpy arrays (broadcast against each other), so a
whole quadrature panel costs one walk of the tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .jets import FUNCTIONS, DomainError, Jet2, ensure_finite, jpow

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


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # 'neg' or a function name
    arg: "Node"


@dataclass(frozen=True)
class Binary:
    op: str  # add | sub | mul | div | pow
    left: "Node"
    right: "Node"


Node = Union[Const, Var, Unary, Binary]


@dataclass(frozen=True)
class MetricExpr:
    """Parsed expression tree plus the original source text."""

    root: Node
    source: str = field(compare=False, default="")


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

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, expected: frozenset = frozenset()) -> ParseError:
        _, _, idx = self.peek()
        return ParseError(message, _byte_offset(self.source, idx), expected)

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

    def expression(self) -> Node:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.take()
                rhs = self.term()
                node = Binary("add" if text == "+" else "sub", node, rhs)
            else:
                return node

    def term(self) -> Node:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.take()
            return Unary("neg", self.term())
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.take()
                rhs = self.factor()
                node = Binary("mul" if text == "*" else "div", node, rhs)
            else:
                return node

    def factor(self) -> Node:
        node = self.base()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.take()
            return Binary("pow", node, self.factor())
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
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expression()
                self.expect_op(")")
                return Unary(text, arg)
            raise UnknownIdentifier(text, _byte_offset(self.source, idx))
        if kind == "op" and text == "(":
            self.take()
            node = self.expression()
            self.expect_op(")")
            return node
        if kind == "op" and text == "-":
            self.take()
            return Unary("neg", self.base())
        raise self.error(
            f"expected a value, got {text!r}" if text else "unexpected end of input",
            frozenset({"number", "t", "theta", "name(", "(", "-"}),
        )


def parse_metric(source: str) -> MetricExpr:
    """Parse a metric-coefficient expression into a tree."""
    root = _Parser(source).parse()
    return MetricExpr(root=root, source=source)


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


def _eval_node(node: Node, t, theta) -> Jet2:
    if isinstance(node, Const):
        return Jet2(node.value)
    if isinstance(node, Var):
        if node.name == "t":
            return Jet2(t, 1.0, 0.0)
        return Jet2(theta, 0.0, 0.0)
    if isinstance(node, Unary):
        arg = _eval_node(node.arg, t, theta)
        if node.op == "neg":
            return -arg
        return FUNCTIONS[node.op](arg)
    if isinstance(node, Binary):
        left = _eval_node(node.left, t, theta)
        right = _eval_node(node.right, t, theta)
        if node.op == "add":
            return left + right
        if node.op == "sub":
            return left - right
        if node.op == "mul":
            return left * right
        if node.op == "div":
            return left / right
        return jpow(left, right)
    raise TypeError(f"not an expression node: {node!r}")


def eval_jet(expr: MetricExpr | Node, t, theta) -> Jet2:
    """Evaluate the expression and its first two exact t-derivatives at
    scalar or array points ``(t, theta)``.

    Raises :class:`DomainError` on out-of-domain intermediates or a
    non-finite result anywhere among the points.
    """
    node = expr.root if isinstance(expr, MetricExpr) else expr
    # float semantics: arithmetic that overflows yields inf or nan, which
    # the finiteness check below turns into DomainError
    with np.errstate(over="ignore", invalid="ignore"):
        jet = _eval_node(node, t, theta)
    return ensure_finite(jet, "metric expression")


# re-exported so callers of the DSL see one error surface
__all__.append("DomainError")
