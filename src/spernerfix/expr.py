"""A small exact expression language for functions of one variable.

Expressions are piecewise-polynomial terms over the rationals with sign
guards: constants, the variable x, the four field operations, and
``ifneg(guard, then, else)``, which evaluates `then` when guard(x) < 0 and
`else` otherwise (including guard(x) = 0). Evaluation is exact; the only
possible runtime failure is division by zero. Each expression is compiled
once, on its first evaluation, to postfix code, which ``==`` and ``hash``
compare, and to a form: each piece without ifneg as a pair of integer
polynomials P/Q with its constants folded, whose Q vanishes exactly where a
divisor inside the piece does, and each ifneg over pieces as a decision on
its guard's pair. `evaluate` runs the form, and the postfix code where there
is none or the Q of a guard, or of the piece taken, is 0; the code is the
reference, and both give the same value and the same error. Parsing, and the
one tree walk that compiling, building forms, `to_text` and ``repr`` read,
run over explicit stacks: nothing in this module recurses, so any expression
that fits in memory parses, prints, compares, hashes and evaluates.

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
from math import gcd
from typing import Callable, NamedTuple, Union

from .rationals import _LITERAL_RE, ParseError, _exact, _literal_value

__all__ = [
    "Add", "Const", "Div", "Expr", "IfNeg", "Mul", "Sub", "Var", "as_function", "evaluate",
    "parse", "to_text",
]


class _Node:
    """Base of the expression nodes; == and hash compare the compiled code, unique to each tree."""

    @cached_property
    def _code(self) -> tuple:
        return _compile(self)

    @cached_property
    def _form(self) -> Fraction | tuple | _Branch | None:
        return _form_of(self)

    def __eq__(self, other: object) -> bool:
        return self._code == other._code if isinstance(other, _Node) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._code)

    def __repr__(self) -> str:
        # a node of a class _REPR lacks (a subclass) shows as an object, not recursively
        other = lambda item: object.__repr__(item) if isinstance(item, _Node) else repr(item)
        return _render(self, _REPR, other)


@dataclass(frozen=True, eq=False, repr=False)
class Const(_Node):
    value: Fraction


@dataclass(frozen=True, eq=False, repr=False)
class Var(_Node):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class Add(_Node):
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True, eq=False, repr=False)
class Sub(_Node):
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True, eq=False, repr=False)
class Mul(_Node):
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True, eq=False, repr=False)
class Div(_Node):
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True, eq=False, repr=False)
class IfNeg(_Node):
    guard: "Expr"
    then: "Expr"
    orelse: "Expr"


Expr = Union[Const, Var, Add, Sub, Mul, Div, IfNeg]

# The parser's binary operators by their text, as (precedence, node), all
# left-associative; and its scanners of whitespace and of names.
_BINARY = {"+": (1, Add), "-": (1, Sub), "*": (2, Mul), "/": (2, Div)}
_SPACE = re.compile(r"\s*").match
_WORD = re.compile(r"\w+").match

# The child fields of each node class with children; how to_text and repr
# spell each class: a leaf's text (a function), or the text around its children.
_CHILDREN = {node: node.__match_args__ for node in (Add, Sub, Mul, Div, IfNeg)}
_ARITY = {node: len(fields) for node, fields in _CHILDREN.items()}
_TEXT = {Const: lambda c: str(c.value), Var: lambda v: "x", IfNeg: ("ifneg(", ", ", ", ", ")")}
_TEXT |= {node: ("(", f" {op} ", ")") for op, (_, node) in _BINARY.items()}
_REPR = {Const: lambda c: f"Const(value={c.value!r})", Var: lambda v: "Var()"}
_REPR |= {
    node: (f"{node.__name__}({first}=", *(f", {field}=" for field in rest), ")")
    for node, (first, *rest) in _CHILDREN.items()
}

# Instructions of the compiled code, each a triple (opcode, p, q): CONST
# pushes p/q, VAR pushes x, a binary opcode pops its right operand and
# combines it into the one below, JUMP_IF_NONNEG pops a value and jumps to
# instruction p when it is >= 0, JUMP jumps to p.
_CONST, _VAR, _ADD, _SUB, _MUL, _DIV, _JUMP_IF_NONNEG, _JUMP = range(8)
_BINARY_OPCODE = {Add: _ADD, Sub: _SUB, Mul: _MUL, Div: _DIV}


def _walk(root: Expr):
    """The steps (node, i) of a depth-first walk over an explicit stack:
    (node, 0) on entering a node, then (node, i) after its i-th child. A
    leaf, or anything that is not a node, is the one step (leaf, 0)."""
    stack = [(root, 0)]
    while stack:
        node, i = stack.pop()
        yield node, i
        fields = _CHILDREN.get(type(node), ())
        if i < len(fields):
            stack += [(node, i + 1), (getattr(node, fields[i]), 0)]


def _render(e: Expr, spelling: dict, other: Callable) -> str:
    """The text of e, spelled by `spelling`; `other` spells what it lacks."""
    parts = []
    for node, i in _walk(e):
        spell = spelling.get(type(node), other)
        parts.append(spell[i] if isinstance(spell, tuple) else spell(node))
    return "".join(parts)


def _compile(root: Expr) -> tuple:
    """Postfix code for root, read off the steps of its walk."""
    code, holes = [], []
    for node, i in _walk(root):
        kind = type(node)
        if kind is Const:
            value = _exact(node.value, "constant")
            code.append((_CONST, value.numerator, value.denominator))
        elif kind is Var:
            code.append((_VAR, 0, 0))
        elif kind in _BINARY_OPCODE:
            if i == 2:
                code.append((_BINARY_OPCODE[kind], 0, 0))
        elif kind is IfNeg:
            # guard; JUMP_IF_NONNEG to orelse; then; JUMP past orelse; orelse:
            # each jump is a hole in the code until its target is known
            if i == 2:
                code[holes.pop()] = (_JUMP_IF_NONNEG, len(code) + 1, 0)
            elif i == 3:
                code[holes.pop()] = (_JUMP, len(code), 0)
            if i in (1, 2):
                holes.append(len(code))
                code.append(None)
        else:
            raise TypeError(f"not an expression node: {node!r}")
    return tuple(code)


def _run(code: tuple, xn: int, xd: int) -> Fraction:
    """Run the postfix code at x = xn/xd over unreduced integer pairs
    (numerator, denominator > 0); the one reduction is the final Fraction."""
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
            else:
                nums[-1] = an * bd + bn * ad if op == _ADD else an * bd - bn * ad
                dens[-1] = ad * bd
    return Fraction(nums[0], dens[0])


# Budgets of the forms. A piece whose polynomials have degrees summing past
# _DEGREE_BUDGET, or a coefficient of more than _BITS_BUDGET bits, has no form,
# and its expression runs on the postfix code: a sum of n terms 1/(x + k) has
# deg P + deg Q = 2n - 1, and unbounded coefficients make compiling cost more than evaluating.
_DEGREE_BUDGET = 64
_BITS_BUDGET = 1024


class _Branch(NamedTuple):
    """The form of an ifneg: its guard's piece, and the forms of its branches."""

    guard: tuple
    then: object
    orelse: object


# Polynomials with integer coefficients are tuples, lowest degree first, with
# no zero leading coefficient; the zero polynomial is (0,).


def _add(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    c = list(a)
    for j, bj in enumerate(b):
        c[j] += bj
    while len(c) > 1 and not c[-1]:
        c.pop()
    return tuple(c)


def _mul(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        k = b[0]
        return tuple([k * c for c in a]) if k else (0,)
    c = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                c[i + j] += ai * bj
    return tuple(c)  # the leading coefficient is a product of two nonzero ones


def _combine(kind: type, a: tuple, b: tuple) -> tuple | None:
    """The piece (P, Q) of `kind` over the pieces a and b; None for a divisor
    that is identically 0, or past the budgets. P/Q is the value, with the
    integer content of P and Q divided out and Q's leading coefficient
    positive. A division by pb/qb with qb not constant multiplies P and Q by
    qb too, and no polynomial factor ever cancels, so Q vanishes exactly
    where some divisor inside the piece does."""
    (pa, qa), (pb, qb) = a, b
    if kind is Mul:
        p, q = _mul(pa, pb), _mul(qa, qb)
    elif kind is Div:
        if pb == (0,):
            return None
        p, q = _mul(pa, qb), _mul(qa, pb)
        if len(qb) > 1:
            p, q = _mul(p, qb), _mul(q, qb)
    else:
        if kind is Sub:
            pb = tuple([-c for c in pb])
        if qa == qb:
            p, q = _add(pa, pb), qa
        else:
            p, q = _add(_mul(pa, qb), _mul(pb, qa)), _mul(qa, qb)
    g = gcd(*p, *q)
    if q[-1] < 0:
        g = -g
    if g != 1:
        p, q = tuple([c // g for c in p]), tuple([c // g for c in q])
    if len(p) + len(q) - 2 > _DEGREE_BUDGET or max(map(int.bit_length, p + q)) > _BITS_BUDGET:
        return None
    return p, q


def _finish(piece: tuple) -> Fraction | tuple:
    """The form of a piece: its Fraction when it is constant, else (P, Q, deg Q - deg P)."""
    p, q = piece
    if len(p) == len(q) == 1:
        return Fraction(p[0], q[0])
    return p, q, len(q) - len(p)


def _form_of(root: Expr) -> Fraction | tuple | _Branch | None:
    """The form of a compiled root, read off the steps of its walk: one
    piece where root has no ifneg, a decision on its guard's piece for an
    ifneg over forms, and None where it has none (arithmetic over an ifneg,
    an ifneg in a guard, a divisor identically 0, a piece past the budgets)."""
    done = []  # the pieces, as (P, Q), and forms of the finished subtrees
    for node, i in _walk(root):
        kind = type(node)
        if i < _ARITY.get(kind, 0):
            continue
        if kind is Const:
            done.append(((node.value.numerator,), (node.value.denominator,)))
        elif kind is Var:
            done.append(((0, 1), (1,)))
        elif kind is IfNeg:
            guard, then, orelse = done[-3:]
            del done[-3:]
            if type(guard) is not tuple:
                return None
            guard = _finish(guard)
            if type(guard) is Fraction:  # a constant guard decides here
                done.append(then if guard < 0 else orelse)
            else:
                then, orelse = (f if type(f) is not tuple else _finish(f) for f in (then, orelse))
                done.append(_Branch(guard, then, orelse))
        else:
            b, a = done.pop(), done.pop()
            if type(a) is not tuple or type(b) is not tuple:
                return None
            done.append(_combine(kind, a, b))
            if done[-1] is None:
                return None
    return done[0] if type(done[0]) is not tuple else _finish(done[0])


def _at(c: tuple, n: int, d: int) -> int:
    """d^deg(c) · c(n/d): one homogeneous Horner pass in integers."""
    acc, dk = c[-1], 1
    for cj in c[-2::-1]:
        dk *= d
        acc = acc * n + cj * dk
    return acc


def _pair(piece: tuple, n: int, d: int) -> tuple[int, int] | None:
    """(P_h, Q_h) of a non-constant piece at n/d; None where Q_h, so a divisor inside, is 0."""
    p, q, _ = piece
    qh = _at(q, n, d)
    return (_at(p, n, d), qh) if qh else None


def evaluate(e: Expr, x: Fraction) -> Fraction:
    """Evaluate e at x, exactly. Division by zero raises ZeroDivisionError.

    e is compiled once, on its first evaluation, to postfix code and, where
    it has one, a form; both are kept on e. On the form, x = n/d costs a
    homogeneous Horner pass in integers for P and for Q of each guard and of
    the piece taken, and one Fraction; a constant piece is its Fraction. A
    piece's Q vanishes exactly where a divisor inside it does. The postfix
    code runs where e has no form (arithmetic over an ifneg, an ifneg in a
    guard, a divisor identically 0, a piece past _DEGREE_BUDGET or
    _BITS_BUDGET) and where the Q of a guard, or of the piece taken, is 0 at
    x, so values and errors are the code's. It runs iteratively over
    unreduced integer pairs, so an expression of any depth evaluates. ifneg
    evaluates only the branch taken. Raises TypeError unless x and the
    constants are exact (the rule in rationals).
    """
    if not isinstance(e, _Node):
        raise TypeError(f"not an expression node: {e!r}")
    code, form = e._code, e._form
    xn, xd = _exact(x, "x").numerator, x.denominator
    while type(form) is _Branch:
        pair = _pair(form.guard, xn, xd)
        if pair is None:
            return _run(code, xn, xd)
        ph, qh = pair
        form = form.then if ph and (ph < 0) != (qh < 0) else form.orelse
    if type(form) is Fraction:
        return form
    pair = None if form is None else _pair(form, xn, xd)
    if pair is None:
        return _run(code, xn, xd)
    ph, qh = pair
    shift = form[2]
    return Fraction(ph * xd**shift, qh) if shift >= 0 else Fraction(ph, qh * xd**-shift)


def as_function(f: Expr | Callable[[Fraction], Fraction]) -> Callable[[Fraction], Fraction]:
    """Adapt an Expr (or any rational-to-rational callable) to a callable."""
    if callable(f):
        return f
    return lambda x: evaluate(f, x)


def to_text(e: Expr) -> str:
    """Fully parenthesized canonical text, at any depth; parse(to_text(e)) == e."""
    # _TEXT spells every node class, and _compile refuses anything else
    return _render(e, _TEXT, _compile)


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
