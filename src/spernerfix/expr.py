"""A small exact expression language for functions of one variable.

Expressions are piecewise-polynomial terms over the rationals with sign
guards: constants, the variable x, the four field operations, and
``ifneg(guard, then, else)``, which evaluates `then` when guard(x) < 0 and
`else` otherwise (including guard(x) = 0). Evaluation is exact; the only
possible runtime failure is division by zero.

Grammar (version 1), with standard precedence and left association::

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := rational-literal | "x" | "(" expr ")"
            | "ifneg" "(" expr "," expr "," expr ")"

A rational literal is an optional sign, a decimal integer, and optionally a
"/" followed by a positive decimal integer, with no interior whitespace.
Maximal munch applies: ``3/7`` is the single constant 3/7, while ``3 / 7``
is a division node. The two evaluate identically.

Continuity is deliberately not checked or inferred; solver guarantees that
depend on it are conditional on caller-declared properties.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

from .rationals import ParseError


@dataclass(frozen=True)
class Const:
    value: Fraction


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Add:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Sub:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Mul:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Div:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class IfNeg:
    guard: "Expr"
    then: "Expr"
    orelse: "Expr"


Expr = Union[Const, Var, Add, Sub, Mul, Div, IfNeg]

_BINARY_TEXT = {Add: "+", Sub: "-", Mul: "*", Div: "/"}


def evaluate(e: Expr, x: Fraction) -> Fraction:
    """Evaluate e at x, exactly. Division by zero raises ZeroDivisionError."""
    match e:
        case Const(value):
            return value
        case Var():
            return x
        case Add(lhs, rhs):
            return evaluate(lhs, x) + evaluate(rhs, x)
        case Sub(lhs, rhs):
            return evaluate(lhs, x) - evaluate(rhs, x)
        case Mul(lhs, rhs):
            return evaluate(lhs, x) * evaluate(rhs, x)
        case Div(lhs, rhs):
            return evaluate(lhs, x) / evaluate(rhs, x)
        case IfNeg(guard, then, orelse):
            return evaluate(then, x) if evaluate(guard, x) < 0 else evaluate(orelse, x)
    raise TypeError(f"not an expression node: {e!r}")


def as_function(f: Expr | Callable[[Fraction], Fraction]) -> Callable[[Fraction], Fraction]:
    """Adapt an Expr (or any rational-to-rational callable) to a callable."""
    if callable(f):
        return f
    return lambda x: evaluate(f, x)


def to_text(e: Expr) -> str:
    """Fully parenthesized canonical text; parse(to_text(e)) == e structurally."""
    match e:
        case Const(value):
            return str(value)
        case Var():
            return "x"
        case Add() | Sub() | Mul() | Div():
            op = _BINARY_TEXT[type(e)]
            return f"({to_text(e.lhs)} {op} {to_text(e.rhs)})"
        case IfNeg(guard, then, orelse):
            return f"ifneg({to_text(guard)}, {to_text(then)}, {to_text(orelse)})"
    raise TypeError(f"not an expression node: {e!r}")


def parse(text: str) -> Expr:
    """Parse expression text; raises ParseError with a position on bad input.

    Input nested deeper than the interpreter's recursion limit allows, such
    as 2000 nested parentheses, raises ParseError("expression nested too
    deeply").
    """
    parser = _Parser(text)
    try:
        e = parser.parse_expr()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
    parser.skip_ws()
    if parser.pos != len(text):
        raise ParseError("unexpected trailing input", parser.pos)
    return e


def _is_digit(c: str) -> bool:
    # ASCII only; str.isdigit admits characters int() rejects
    return "0" <= c <= "9"


class _Parser:
    """Recursive-descent parser over the raw string, tracking offsets."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str | None:
        if self.pos < len(self.text):
            return self.text[self.pos]
        return None

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def parse_expr(self) -> Expr:
        e = self.parse_term()
        while True:
            self.skip_ws()
            c = self.peek()
            if c == "+":
                self.pos += 1
                e = Add(e, self.parse_term())
            elif c == "-":
                self.pos += 1
                e = Sub(e, self.parse_term())
            else:
                return e

    def parse_term(self) -> Expr:
        e = self.parse_factor()
        while True:
            self.skip_ws()
            c = self.peek()
            if c == "*":
                self.pos += 1
                e = Mul(e, self.parse_factor())
            elif c == "/":
                self.pos += 1
                e = Div(e, self.parse_factor())
            else:
                return e

    def parse_factor(self) -> Expr:
        self.skip_ws()
        c = self.peek()
        if c is None:
            raise ParseError("unexpected end of input", self.pos)
        if c == "(":
            self.pos += 1
            e = self.parse_expr()
            self.expect(")")
            return e
        if c in "+-" or _is_digit(c):
            return self.parse_literal()
        if c.isalpha() or c == "_":
            return self.parse_identifier()
        raise ParseError(f"unexpected character {c!r}", self.pos)

    def parse_literal(self) -> Const:
        # Sign and slash bind only when contiguous with digits; "3 / 7" is a
        # division, "3/7" a constant.
        start = self.pos
        sign = 1
        if self.peek() in "+-":
            if self.text[self.pos] == "-":
                sign = -1
            self.pos += 1
        num = self._digits(start)
        if (
            self.pos + 1 < len(self.text)
            and self.text[self.pos] == "/"
            and _is_digit(self.text[self.pos + 1])
        ):
            self.pos += 1
            den = self._digits(start)
            if den == 0:
                raise ParseError("zero denominator in rational literal", start)
            return Const(Fraction(sign * num, den))
        return Const(Fraction(sign * num))

    def _digits(self, literal_start: int) -> int:
        begin = self.pos
        while self.pos < len(self.text) and _is_digit(self.text[self.pos]):
            self.pos += 1
        if self.pos == begin:
            raise ParseError("expected digits in rational literal", literal_start)
        return int(self.text[begin : self.pos])

    def parse_identifier(self) -> Expr:
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        name = self.text[start : self.pos]
        if name == "x":
            return Var()
        if name == "ifneg":
            self.expect("(")
            guard = self.parse_expr()
            self.expect(",")
            then = self.parse_expr()
            self.expect(",")
            orelse = self.parse_expr()
            self.expect(")")
            return IfNeg(guard, then, orelse)
        raise ParseError(f"unknown identifier {name!r}", start)
