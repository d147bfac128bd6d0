"""A small exact expression language for functions of one variable.

Expressions are piecewise-polynomial terms over the rationals with sign
guards: constants, the variable x, the four field operations, and
``ifneg(guard, then, else)``, which evaluates `then` when guard(x) < 0 and
`else` otherwise (including guard(x) = 0). Evaluation is exact; the only
possible runtime failure is division by zero. Each expression is compiled
once, on its first evaluation, to postfix code that `evaluate` runs
iteratively, so evaluation does not recurse however deep the expression.

Grammar (version 1), with standard precedence and left association::

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := rational-literal | "x" | "(" expr ")"
            | "ifneg" "(" expr "," expr "," expr ")"

A rational literal is an optional sign, a decimal integer, and optionally a
"/" followed by a positive decimal integer, with no interior whitespace:
the pattern in `rationals` that `parse_rational` uses, matched at the start
of a factor. Maximal munch applies: ``3/7`` is the single constant 3/7,
while ``3 / 7`` is a division node. The two evaluate identically. A sign
binds only at the start of a factor, so ``1 -2`` is a subtraction.

Continuity is deliberately not checked or inferred; solver guarantees that
depend on it are conditional on caller-declared properties.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Union

from .rationals import _LITERAL_RE, ParseError, _literal_value


class _Node:
    """Base of the expression nodes; holds a node's compiled code once built.

    The code lives in the instance __dict__, outside the dataclass fields,
    so equality, hashing and repr see only the tree.
    """

    @cached_property
    def _code(self) -> tuple:
        return _compile(self)


@dataclass(frozen=True)
class Const(_Node):
    value: Fraction


@dataclass(frozen=True)
class Var(_Node):
    pass


@dataclass(frozen=True)
class Add(_Node):
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Sub(_Node):
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Mul(_Node):
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Div(_Node):
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class IfNeg(_Node):
    guard: "Expr"
    then: "Expr"
    orelse: "Expr"


Expr = Union[Const, Var, Add, Sub, Mul, Div, IfNeg]

_BINARY_TEXT = {Add: "+", Sub: "-", Mul: "*", Div: "/"}

# Instructions of the compiled code, each a triple (opcode, p, q): CONST
# pushes p/q, VAR pushes x, a binary opcode pops its right operand and
# combines it into the one below, JUMP_IF_NONNEG pops a value and jumps to
# instruction p when it is >= 0, JUMP jumps to p.
_CONST, _VAR, _ADD, _SUB, _MUL, _DIV, _JUMP_IF_NONNEG, _JUMP = range(8)
_BINARY_OPCODE = {Add: _ADD, Sub: _SUB, Mul: _MUL, Div: _DIV}
# Work items of the compiler: a node to compile, an instruction to emit, or
# a jump whose target is the next instruction.
_NODE, _EMIT, _LAND = range(3)


def _compile(root: Expr) -> tuple:
    """Postfix code for root, built with an explicit work stack."""
    code = []
    work = [(_NODE, root)]
    while work:
        action, item = work.pop()
        if action == _EMIT:
            code.append(item)
            continue
        if action == _LAND:
            item[1] = len(code)
            continue
        match item:
            case Const(value):
                code.append((_CONST, value.numerator, value.denominator))
            case Var():
                code.append((_VAR, 0, 0))
            case Add() | Sub() | Mul() | Div():
                op = _BINARY_OPCODE[type(item)]
                work += [(_EMIT, (op, 0, 0)), (_NODE, item.rhs), (_NODE, item.lhs)]
            case IfNeg(guard, then, orelse):
                # guard; JUMP_IF_NONNEG to orelse; then; JUMP past orelse; orelse
                to_else, to_end = [_JUMP_IF_NONNEG, 0, 0], [_JUMP, 0, 0]
                work += [
                    (_LAND, to_end),
                    (_NODE, orelse),
                    (_LAND, to_else),
                    (_EMIT, to_end),
                    (_NODE, then),
                    (_EMIT, to_else),
                    (_NODE, guard),
                ]
            case _:
                raise TypeError(f"not an expression node: {item!r}")
    return tuple(map(tuple, code))


def evaluate(e: Expr, x: Fraction) -> Fraction:
    """Evaluate e at x, exactly. Division by zero raises ZeroDivisionError.

    e is compiled once, on its first evaluation, and the code is kept on e.
    The code runs iteratively over unreduced integer pairs (numerator,
    denominator > 0), so an expression of any depth evaluates, and the one
    reduction is the final Fraction. ifneg evaluates only the branch taken.
    """
    if not isinstance(e, _Node):
        raise TypeError(f"not an expression node: {e!r}")
    code = e._code
    xn, xd = x.numerator, x.denominator
    nums, dens = [], []
    pc, end = 0, len(code)
    while pc < end:
        op, p, q = code[pc]
        pc += 1
        if op == _VAR:
            nums.append(xn)
            dens.append(xd)
        elif op == _CONST:
            nums.append(p)
            dens.append(q)
        elif op == _JUMP_IF_NONNEG:
            dens.pop()
            if nums.pop() >= 0:
                pc = p
        elif op == _JUMP:
            pc = p
        else:
            bn, bd = nums.pop(), dens.pop()
            an, ad = nums[-1], dens[-1]
            if op == _MUL:
                nums[-1], dens[-1] = an * bn, ad * bd
            elif op == _DIV:
                if not bn:
                    # The text Fraction division gives: the dividend's sign.
                    raise ZeroDivisionError(f"Fraction({(an > 0) - (an < 0)}, 0)")
                if bn < 0:
                    an, bn = -an, -bn
                nums[-1], dens[-1] = an * bd, ad * bn
            elif ad == bd:
                nums[-1] = an + bn if op == _ADD else an - bn
            else:
                nums[-1] = an * bd + bn * ad if op == _ADD else an * bd - bn * ad
                dens[-1] = ad * bd
    return Fraction(nums[0], dens[0])


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
    if parser.peek():
        raise ParseError("unexpected trailing input", parser.pos)
    return e


class _Parser:
    """Recursive-descent parser over the raw string, tracking offsets. It scans
    with regular expressions: a literal is one match of the pattern in rationals."""

    space = re.compile(r"\s*").match
    word = re.compile(r"\w+").match
    literal = _LITERAL_RE.match
    sums = {"+": Add, "-": Sub}
    products = {"*": Mul, "/": Div}

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        """Skip whitespace (the regex runs only at a space, for speed); the next character or ""."""
        text, pos = self.text, self.pos
        c = text[pos : pos + 1]
        if c.isspace():
            pos = self.pos = self.space(text, pos).end()
            c = text[pos : pos + 1]
        return c

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def parse_expr(self) -> Expr:
        e = self.parse_term()
        while node := self.sums.get(self.peek()):
            self.pos += 1
            e = node(e, self.parse_term())
        return e

    def parse_term(self) -> Expr:
        e = self.parse_factor()
        while node := self.products.get(self.peek()):
            self.pos += 1
            e = node(e, self.parse_factor())
        return e

    def parse_factor(self) -> Expr:
        c, start = self.peek(), self.pos
        if not c:
            raise ParseError("unexpected end of input", start)
        if c == "(":
            self.pos += 1
            e = self.parse_expr()
            self.expect(")")
            return e
        if c in "+-0123456789":
            # "3/7" is a constant, "3 / 7" a division, "1 -2" a subtraction
            match = self.literal(self.text, start)
            if not match:
                raise ParseError("expected digits in rational literal", start)
            self.pos = match.end()
            return Const(_literal_value(match, start))
        if not (c.isalpha() or c == "_"):
            raise ParseError(f"unexpected character {c!r}", start)
        self.pos = self.word(self.text, start).end()
        name = self.text[start : self.pos]
        if name == "x":
            return Var()
        if name != "ifneg":
            raise ParseError(f"unknown identifier {name!r}", start)
        self.expect("(")
        guard = self.parse_expr()
        self.expect(",")
        then = self.parse_expr()
        self.expect(",")
        orelse = self.parse_expr()
        self.expect(")")
        return IfNeg(guard, then, orelse)
