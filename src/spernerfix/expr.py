"""A small exact expression language for functions of one variable.

Expressions are piecewise-polynomial terms over the rationals with sign
guards: constants, the variable x, the four field operations, and
``ifneg(guard, then, else)``, which evaluates `then` when guard(x) < 0 and
`else` otherwise (including guard(x) = 0). Evaluation is exact; the only
possible runtime failure is division by zero. Each expression is compiled
once, on its first evaluation, to postfix code that `evaluate` runs
iteratively. Parsing, `to_text` and compiling also run over explicit
stacks: nothing in this module recurses, so any expression that fits in
memory parses, prints and evaluates. The nodes' ``==``, ``hash`` and
``repr`` are still the dataclass-generated ones, which do recurse.

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

# The parser's binary operators by their text, as (precedence, node), all
# left-associative; and its scanners of whitespace and of names.
_BINARY = {"+": (1, Add), "-": (1, Sub), "*": (2, Mul), "/": (2, Div)}
_BINARY_TEXT = {node: op for op, (_, node) in _BINARY.items()}
_SPACE = re.compile(r"\s*").match
_WORD = re.compile(r"\w+").match

# Instructions of the compiled code, each a triple (opcode, p, q): CONST
# pushes p/q, VAR pushes x, a binary opcode pops its right operand and
# combines it into the one below, JUMP_IF_NONNEG pops a value and jumps to
# instruction p when it is >= 0, JUMP jumps to p.
_CONST, _VAR, _ADD, _SUB, _MUL, _DIV, _JUMP_IF_NONNEG, _JUMP = range(8)
_BINARY_OPCODE = {Add: _ADD, Sub: _SUB, Mul: _MUL, Div: _DIV}
# Work items of the compiler: a node to compile, an instruction to emit, or
# a jump whose target is the next instruction. to_text uses the first two.
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
    """Fully parenthesized canonical text; parse(to_text(e)) == e structurally.

    The text is built with an explicit work stack, so an expression of any
    depth prints.
    """
    parts, work = [], [(_NODE, e)]
    while work:
        action, item = work.pop()
        if action == _EMIT:
            parts.append(item)
            continue
        match item:
            case Const(value):
                parts.append(str(value))
            case Var():
                parts.append("x")
            case Add() | Sub() | Mul() | Div():
                parts.append("(")
                op = _BINARY_TEXT[type(item)]
                work += [(_EMIT, ")"), (_NODE, item.rhs), (_EMIT, f" {op} "), (_NODE, item.lhs)]
            case IfNeg(guard, then, orelse):
                parts.append("ifneg(")
                work += [(_EMIT, ")"), (_NODE, orelse), (_EMIT, ", "), (_NODE, then)]
                work += [(_EMIT, ", "), (_NODE, guard)]
            case _:
                raise TypeError(f"not an expression node: {item!r}")
    return "".join(parts)


def parse(text: str) -> Expr:
    """Parse expression text; raises ParseError with a position on bad input.

    One left-to-right scan with regular expressions (a literal is one match
    of the pattern in rationals) over two explicit stacks: the operands, and
    the pending binary operators and open groups. Any nesting that fits in
    memory parses.
    """
    pos = 0

    def peek() -> str:
        """Skip whitespace (the regex runs only at a space, for speed); the next character or ""."""
        nonlocal pos
        c = text[pos : pos + 1]
        if c.isspace():
            pos = _SPACE(text, pos).end()
            c = text[pos : pos + 1]
        return c

    def expect(ch: str) -> None:
        nonlocal pos
        if peek() != ch:
            raise ParseError(f"expected {ch!r}", pos)
        pos += 1

    operands: list[Expr] = []
    # (precedence, node) for a binary operator; (0, closers still to read,
    # IfNeg or None) for a group opened by "ifneg(" or "(".
    pending: list[tuple] = []
    while True:
        # An operand, or the opening of a group that holds one.
        c, start = peek(), pos
        if c == "(":
            pos += 1
            pending.append((0, ")", None))
            continue
        if not c:
            raise ParseError("unexpected end of input", start)
        if c in "+-0123456789":
            # "3/7" is a constant, "3 / 7" a division, "1 -2" a subtraction
            match = _LITERAL_RE.match(text, start)
            if not match:
                raise ParseError("expected digits in rational literal", start)
            pos = match.end()
            operands.append(Const(_literal_value(match, start)))
        elif not (c.isalpha() or c == "_"):
            raise ParseError(f"unexpected character {c!r}", start)
        else:
            pos = _WORD(text, start).end()
            name = text[start:pos]
            if name == "ifneg":
                expect("(")
                pending.append((0, ",,)", IfNeg))
                continue
            if name != "x":
                raise ParseError(f"unknown identifier {name!r}", start)
            operands.append(Var())
        # Operators and closers after an operand, up to one that needs another.
        while True:
            c = peek()
            prec, node = _BINARY.get(c, (1, None))
            # apply the pending operators that bind at least as tightly
            while pending and pending[-1][0] >= prec:
                rhs = operands.pop()
                operands[-1] = pending.pop()[1](operands[-1], rhs)
            if node:
                pos += 1
                pending.append((prec, node))
                break
            if not pending:
                if c:
                    raise ParseError("unexpected trailing input", pos)
                return operands[0]
            _, closers, build = pending.pop()
            expect(closers[0])
            if closers[1:]:
                pending.append((0, closers[1:], build))
                break
            if build:
                operands[-3:] = [build(*operands[-3:])]
