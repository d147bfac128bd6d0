import random
import re
from fractions import Fraction

import pytest

from conftest import LIPSCHITZ_CORPUS, gen_expr
from spernerfix import expr as expr_module
from spernerfix.expr import (
    Add,
    Const,
    Div,
    Expr,
    IfNeg,
    Mul,
    Sub,
    Var,
    as_function,
    evaluate,
    parse,
    to_text,
)
from spernerfix.rationals import ParseError, parse_rational

ONE = Const(Fraction(1))
TWO = Const(Fraction(2))
EQ2_TEXT = "ifneg(x*x - 2, 2, 1)"
EQ2_AST = IfNeg(Sub(Mul(Var(), Var()), TWO), TWO, ONE)


class TestParse:
    def test_subtraction(self):
        assert parse("1 - x") == Sub(ONE, Var())

    def test_step_function(self):
        assert parse(EQ2_TEXT) == EQ2_AST

    def test_quadratic(self):
        assert parse("(x*x + 2)/4") == Div(Add(Mul(Var(), Var()), TWO), Const(Fraction(4)))

    def test_affine(self):
        assert parse("(x + 1)/2") == Div(Add(Var(), ONE), TWO)
        assert parse("x + 1") == Add(Var(), ONE)

    def test_contiguous_slash_is_a_literal(self):
        assert parse("3/7") == Const(Fraction(3, 7))
        assert parse("-3/7") == Const(Fraction(-3, 7))

    def test_spaced_slash_is_division(self):
        assert parse("3 / 7") == Div(Const(Fraction(3)), Const(Fraction(7)))
        assert parse("3/ 7") == Div(Const(Fraction(3)), Const(Fraction(7)))
        assert parse("3/x") == Div(Const(Fraction(3)), Var())

    def test_left_association(self):
        assert parse("1 - 2 - 3") == Sub(Sub(ONE, TWO), Const(Fraction(3)))
        assert parse("8 / 4 / 2") == Div(
            Div(Const(Fraction(8)), Const(Fraction(4))), TWO
        )

    def test_precedence(self):
        assert parse("1 + 2 * x") == Add(ONE, Mul(TWO, Var()))

    def test_signed_literal_after_operator(self):
        assert parse("1 + -2") == Add(ONE, Const(Fraction(-2)))
        assert parse("2 * -3") == Mul(TWO, Const(Fraction(-3)))

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "1 +",
            "(1",
            "1)",
            "1 2",
            "- x",
            "-x",
            "1 @ 2",
            "ifneg(1, 2)",
            "ifneg(1, 2, 3",
            "ifneg 1, 2, 3)",
            "1/0",
            "2x",
            "²",  # unicode digit-likes are not decimal digits
            "1 + ²",
        ],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(ParseError):
            parse(text)

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier 'foo'"):
            parse("foo + 1")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse("1 + @")
        assert info.value.position == 4

    def test_over_long_literal_is_a_parse_error(self, digit_limit):
        digit_limit(640)
        assert parse("x + -" + "7" * 640) == Add(Var(), Const(Fraction(-int("7" * 640))))
        with pytest.raises(ParseError) as info:
            parse("x + -" + "7" * 641)
        assert str(info.value) == "more than 640 digits in rational literal (at position 4)"
        assert info.value.position == 4

    def test_deep_parentheses_parse(self):
        # The parser keeps its own stacks, so only memory limits nesting.
        e = parse("(" * 100_000 + "x" + ")" * 100_000)
        assert e == Var()
        assert evaluate(e, Fraction(-1, 3)) == Fraction(-1, 3)

    def test_deep_ifneg_parses(self):
        n = 20_000
        text = "ifneg(" * n + "x" + ", -1, 1)" * n
        e = parse(text)
        # every guard is the value of the ifneg it holds, so the sign of x carries out
        assert evaluate(e, Fraction(-1, 3)) == -1
        assert evaluate(e, Fraction(1, 3)) == 1
        # The text is canonical, so this is also to_text(parse(to_text(e))) ==
        # to_text(e), compared as text: the dataclass == recurses at this depth.
        assert to_text(e) == text


# The hand-written scanner that expr used before literals shared the pattern
# in rationals, kept as the reference the current parsers must match.


def reference_parse(text: str) -> Expr:
    parser = _ReferenceParser(text)
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


class _ReferenceParser:
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


_REFERENCE_LITERAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?\Z")


def reference_parse_rational(text: str) -> Fraction:
    if not _REFERENCE_LITERAL_RE.match(text):
        raise ParseError(f"invalid rational literal {text!r}")
    num_text, _, den_text = text.partition("/")
    den = int(den_text or 1)
    if den == 0:
        raise ParseError(f"zero denominator in rational literal {text!r}")
    return Fraction(int(num_text), den)


def parse_outcome(parser, text):
    """The value, or (type, message, position) of the exception raised."""
    try:
        return parser(text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


# Pieces of the differential test's strings: every token class of the
# grammar, literals that end badly, a stray character, ASCII and Unicode
# whitespace, characters that look like digits but are not ASCII digits,
# and a non-ASCII letter.
PIECES = list("0123456789+-*/(),x_") + ["ifneg(", "foo", "1/0", "3/", "@"]
PIECES += [" ", "\t", "\n", "\u00a0", "\u3000", "\u00b2", "\u0663", "\u2167", "\u00e9"]


# Atoms and whitespace of the grammar-generated strings.
ATOMS = ["x", "0", "7", "10", "-3", "+2", "3/7", "-12/5"]
SPACES = ["", "", "", " ", "  ", "\t", "\n", "\u00a0"]


def gen_text(rng: random.Random, depth: int) -> str:
    """Expression text from the grammar with random whitespace, its groups
    nested at most `depth` deep; mostly chains, so the text stays short."""
    r = rng.random()
    if depth <= 0 or r < 0.35:
        text = rng.choice(ATOMS)
    elif r < 0.8:
        text = "(" + gen_text(rng, depth - 1) + ")"
    elif r < 0.9:
        return gen_text(rng, depth - 1) + rng.choice("+-*/") + gen_text(rng, depth - 1)
    else:
        text = "ifneg({},{},{})".format(*(gen_text(rng, depth - 1) for _ in range(3)))
    return rng.choice(SPACES) + text + rng.choice(SPACES)


def edit(rng: random.Random, text: str) -> str:
    """text with one piece inserted, one character deleted, or one replaced."""
    k = rng.randint(0, len(text))
    kind = rng.randrange(3)
    if kind == 0:
        return text[:k] + rng.choice(PIECES) + text[k:]
    return text[:k] + (rng.choice(PIECES) if kind == 2 else "") + text[k + 1 :]


class TestAgainstReferenceParser:
    def test_grammar_generated_strings_match(self):
        # Groups nest at most 12 deep, far below the reference's recursion limit.
        rng = random.Random(20261019)
        parsed = 0
        for _ in range(50_000):
            text = gen_text(rng, rng.randint(0, 12))
            for _ in range(rng.randint(0, 2)):
                text = edit(rng, text)
            expected = parse_outcome(reference_parse, text)
            assert parse_outcome(parse, text) == expected, text
            parsed += not isinstance(expected, tuple)
        assert parsed >= 50_000 // 3

    def test_seeded_strings_match(self):
        # At most 12 pieces, so nesting stays far below the reference's recursion limit.
        rng = random.Random(20261018)
        parsed = rationals = 0
        for _ in range(50_000):
            text = "".join(rng.choices(PIECES, k=rng.randint(1, 12)))
            expected = parse_outcome(reference_parse, text)
            assert parse_outcome(parse, text) == expected, text
            parsed += not isinstance(expected, tuple)
            expected = parse_outcome(reference_parse_rational, text)
            assert parse_outcome(parse_rational, text) == expected, text
            rationals += isinstance(expected, Fraction)
        # both kinds of success occur, not only errors
        assert parsed > 1000 and rationals > 100


class TestEvaluate:
    def test_symmetry_point(self):
        assert evaluate(parse("1 - x"), Fraction(1, 2)) == Fraction(1, 2)

    def test_step_below(self):
        # 49/25 - 2 < 0 by exact comparison
        assert evaluate(parse(EQ2_TEXT), Fraction(7, 5)) == Fraction(2)

    def test_step_above(self):
        # 9/4 - 2 > 0 by exact comparison
        assert evaluate(parse(EQ2_TEXT), Fraction(3, 2)) == Fraction(1)

    def test_guard_zero_takes_else_branch(self):
        e = IfNeg(Var(), ONE, TWO)
        assert evaluate(e, Fraction(0)) == Fraction(2)
        assert evaluate(e, Fraction(-1)) == Fraction(1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            evaluate(parse("1 / x"), Fraction(0))

    def test_exactness(self):
        e = parse("(x*x + 2)/4")
        assert evaluate(e, Fraction(1, 3)) == Fraction(19, 36)

    def test_guard_never_zero_on_step_function(self):
        rng = random.Random(7)
        guard = Sub(Mul(Var(), Var()), TWO)
        for _ in range(500):
            x = Fraction(rng.randint(1, 2 * 10**4), 10**4)
            assert evaluate(guard, x) != 0

    def test_untaken_branch_is_never_evaluated(self):
        # the only zero divisor sits in the branch the guard does not take
        e = parse("ifneg(x, 1/(x - x), 2)")
        assert evaluate(e, Fraction(1)) == Fraction(2)
        with pytest.raises(ZeroDivisionError):
            evaluate(e, Fraction(-1))
        assert evaluate(parse("ifneg(x, 3, 1/(x - x))"), Fraction(-1)) == Fraction(3)

    def test_100000_term_chains(self):
        n = 100_000
        left_sum, right_sum, product = Var(), Var(), Var()
        for _ in range(n - 1):
            left_sum, right_sum = Add(left_sum, Var()), Add(Var(), right_sum)
            product = Mul(product, Var())
        assert evaluate(left_sum, Fraction(1, 3)) == Fraction(n, 3)
        assert evaluate(right_sum, Fraction(-2, 5)) == Fraction(-2 * n, 5)
        assert evaluate(product, Fraction(-1)) == 1

    @pytest.mark.parametrize("e", ["x", Add(Var(), 3), IfNeg(Var(), ONE, None)])
    def test_non_node_is_a_type_error(self, e):
        with pytest.raises(TypeError, match="^not an expression node: "):
            evaluate(e, Fraction(1))

    def test_as_function(self):
        fn = as_function(parse("1 - x"))
        assert fn(Fraction(1, 4)) == Fraction(3, 4)
        same = as_function(fn)
        assert same is fn


def recursive_evaluate(e, x):
    """Reference evaluator: one Fraction operation per node, recursively."""
    match e:
        case Const(value):
            return value
        case Var():
            return x
        case Add(lhs, rhs):
            return recursive_evaluate(lhs, x) + recursive_evaluate(rhs, x)
        case Sub(lhs, rhs):
            return recursive_evaluate(lhs, x) - recursive_evaluate(rhs, x)
        case Mul(lhs, rhs):
            return recursive_evaluate(lhs, x) * recursive_evaluate(rhs, x)
        case Div(lhs, rhs):
            return recursive_evaluate(lhs, x) / recursive_evaluate(rhs, x)
        case IfNeg(guard, then, orelse):
            if recursive_evaluate(guard, x) < 0:
                return recursive_evaluate(then, x)
            return recursive_evaluate(orelse, x)
    raise TypeError(f"not an expression node: {e!r}")


def outcome(evaluator, e, x):
    """The value, or the text of the ZeroDivisionError raised."""
    try:
        return evaluator(e, x)
    except ZeroDivisionError as exc:
        return f"ZeroDivisionError: {exc}"


_rng = random.Random(400)
# 0, negatives, non-dyadic rationals, and dyadics with a 400-bit denominator
POINTS = [Fraction(0), Fraction(-1), Fraction(-7, 3), Fraction(1, 3), Fraction(22, 7)]
POINTS += [Fraction(sign * (_rng.getrandbits(400) | 1), 2**400) for sign in (1, -1, 1)]


class TestAgainstRecursiveReference:
    def test_matches_on_generated_trees_and_corpus(self):
        rng = random.Random(20261018)
        exprs = [gen_expr(rng, rng.randint(0, 6)) for _ in range(2000)]
        exprs += [e for e, *_ in LIPSCHITZ_CORPUS] + [EQ2_AST]
        raised = 0
        for e in exprs:
            for x in POINTS:
                expected = outcome(recursive_evaluate, e, x)
                assert outcome(evaluate, e, x) == expected, (e, x)
                raised += isinstance(expected, str)
        assert raised  # the corpus exercises the ZeroDivisionError path

    def test_no_cache_hashes_the_tree(self, monkeypatch):
        rng = random.Random(3)
        exprs = [parse(EQ2_TEXT)] + [gen_expr(rng, 6) for _ in range(50)]

        def no_hash(node):
            raise AssertionError("an expression node was hashed")

        for cls in (Const, Var, Add, Sub, Mul, Div, IfNeg):
            monkeypatch.setattr(cls, "__hash__", no_hash)
        for e in exprs:
            for _ in range(2):  # compiled on the first call, cached for the second
                assert outcome(evaluate, e, Fraction(1, 3)) == outcome(
                    recursive_evaluate, e, Fraction(1, 3)
                )

    def test_evaluated_expr_equals_a_fresh_parse(self):
        for text in (EQ2_TEXT, "(x*x + 2)/4", "1 - 2 - 3", "ifneg(x, 1/(x - x), 2)"):
            e = parse(text)
            evaluate(e, Fraction(1, 2))
            fresh = parse(text)
            assert "_code" in vars(e) and "_code" not in vars(fresh)
            assert e == fresh and fresh == e
            assert hash(e) == hash(fresh)
            assert repr(e) == repr(fresh)
            assert parse(to_text(e)) == e

    def test_compiled_once_per_expression(self, monkeypatch):
        calls = []
        real_compile = expr_module._compile

        def counting_compile(e):
            calls.append(e)
            return real_compile(e)

        monkeypatch.setattr(expr_module, "_compile", counting_compile)
        e = parse("(x*x + 2)/4")
        fn = as_function(e)
        for x in POINTS:
            assert fn(x) == evaluate(e, x) == recursive_evaluate(e, x)
        assert calls == [e]


class TestToText:
    def test_subtraction(self):
        assert to_text(Sub(ONE, Var())) == "(1 - x)"

    def test_negative_constant(self):
        assert to_text(Const(Fraction(-3, 7))) == "-3/7"

    def test_step_function_round_trip(self):
        assert parse(to_text(EQ2_AST)) == EQ2_AST

    def test_corpus_round_trip(self):
        rng = random.Random(20260809)
        for _ in range(300):
            e = gen_expr(rng, rng.randint(0, 6))
            assert parse(to_text(e)) == e

    def test_deep_sum_round_trip(self):
        # Compared as text: the dataclass == still recurses on trees this deep.
        # TestParse.test_deep_ifneg_parses prints 20000 nested ifneg.
        n = 20_000
        printed = to_text(parse("+".join(["x/3"] * n)))
        assert printed == "(" * (n - 1) + "(x / 3)" + " + (x / 3))" * (n - 1)
        assert to_text(parse(printed)) == printed

    @pytest.mark.parametrize("e", ["x", Add(Var(), 3), IfNeg(Var(), ONE, None)])
    def test_non_node_is_a_type_error(self, e):
        with pytest.raises(TypeError, match="^not an expression node: "):
            to_text(e)
