import importlib.util
import random
import re
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import LIPSCHITZ_CORPUS, gen_expr, run_python_O
from spernerfix import expr as expr_module
from spernerfix.counterexample import counterexample_expr
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
        # the text is canonical, so it prints back as itself and parses to an equal tree
        assert to_text(e) == text
        assert parse(to_text(e)) == e


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


def interpreter(e, x):
    """The postfix interpreter alone, as evaluate runs it when it falls back."""
    x = Fraction(x)
    return expr_module._run(e._code, x.numerator, x.denominator)


def no_interpreter(code, xn, xd):
    raise AssertionError("the interpreter was entered")


def load_inputs():
    """perfbench's seeded map generators (standard library only)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = inputs  # its dataclass looks its module up
    spec.loader.exec_module(inputs)
    return inputs


# Expressions with points where a guard is exactly 0 or a divisor vanishes:
# in a guard, in a piece, nested (the final denominator of 1/(1/(x - 1)) is 1),
# and in a branch not taken.
FORM_CASES = [
    ("ifneg(x - 1/2, x, 1 - x)", ["1/2", "0", "1"]),
    ("ifneg(x*x - 1/4, 1/x, x)", ["1/2", "-1/2", "0"]),
    ("ifneg((3*x - 1)/(x + 2), 2, 1)", ["1/3", "-2", "0", "1"]),
    ("ifneg(x, ifneg(x + 1, 1, 2), ifneg(x - 1, 3, 4))", ["-2", "-1", "0", "1", "2"]),
    ("ifneg(1/(x - 1/3), 1, 2)", ["1/3", "0", "1"]),
    ("1/(1/(x - 1))", ["1", "0", "2"]),
    ("(x*x - 1/4)/(x - 1/2)", ["1/2", "-1/2", "0"]),
    ("ifneg(x - 1/2, 1/(2*x - 1), 0)", ["1/2", "0", "1"]),
    ("-1/(x*(x - 1))", ["0", "1", "1/2"]),
    ("(x - 1)/(x - 1) + x/x", ["1", "0", "3"]),
    ("1/(x - x) + x", ["0", "1"]),
    ("ifneg(x - 1/7, (x*x + 6*x + 8)/26, (x + 2)/20)", ["1/7", "0", "1"]),
    ("ifneg(-1, x/(x - 2), 1/x)", ["2", "0", "1"]),
]


def form_cases():
    """(text, x) pairs: each case's own points and the shared POINTS."""
    return [(text, Fraction(x)) for text, xs in FORM_CASES for x in [*xs, *POINTS]]


DEGREES, BITS = expr_module._DEGREE_BUDGET, expr_module._BITS_BUDGET


def reciprocal_sum(n):
    """1/(x + 1) + ... + 1/(x + n), a piece with deg P + deg Q = 2n - 1."""
    return " + ".join(f"1/(x + {k})" for k in range(1, n + 1))


def value_at(c, x):
    """The polynomial c, lowest degree first, at x."""
    return sum(cj * x**j for j, cj in enumerate(c))


def form_q_vanishes(form, x):
    """Whether the Q of a guard on the path a form takes at x, or of the piece
    it reaches, is 0 there. The path follows the sign of P/Q."""
    while type(form) is expr_module._Branch:
        p, q = form.guard[:2]
        if not value_at(q, x):
            return True
        form = form.then if value_at(p, x) / value_at(q, x) < 0 else form.orelse
    return type(form) is not Fraction and not value_at(form[1], x)


class TestForms:
    def test_cases_match_the_interpreter_and_the_reference(self):
        raised = 0
        for text, x in form_cases():
            e = parse(text)
            expected = outcome(recursive_evaluate, e, x)
            assert outcome(interpreter, e, x) == expected, (text, x)
            for _ in range(2):  # the first call builds the form, the second runs it
                got = outcome(evaluate, e, x)
                assert got == expected and type(got) is type(expected), (text, x)
            raised += isinstance(expected, str)
        assert raised >= 8

    def test_generated_trees_match_the_interpreter(self):
        rng = random.Random(20261023)
        exprs = [gen_expr(rng, rng.randint(0, 7)) for _ in range(1500)]
        points = POINTS + [Fraction(rng.randint(-30, 30), rng.randint(1, 30)) for _ in range(12)]
        formed = raised = 0
        for e in exprs:
            for x in points:
                expected = outcome(interpreter, e, x)
                assert outcome(evaluate, e, x) == expected, (e, x)
                raised += isinstance(expected, str)
            formed += e._form is not None
        # most trees have forms, and some points divide by zero
        assert formed > len(exprs) // 2 and raised > 100

    def test_a_zero_q_is_exactly_where_a_divisor_vanishes(self):
        # the Q of a guard, or of the piece taken, is 0 exactly where the
        # reference divides by zero; 1/(1/(x - 1)) at 1 is the nested case
        rng = random.Random(20261023)
        exprs = [parse(text) for text, _ in FORM_CASES]
        exprs += [gen_expr(rng, rng.randint(0, 7)) for _ in range(1500)]
        points = sorted({Fraction(x) for _, xs in FORM_CASES for x in xs} | set(POINTS))
        points += [Fraction(rng.randint(-30, 30), rng.randint(1, 30)) for _ in range(12)]
        checked = vanished = 0
        for e in exprs:
            if e._form is None:
                continue
            for x in points:
                raised = isinstance(outcome(recursive_evaluate, e, x), str)
                assert form_q_vanishes(e._form, x) is raised, (e, x)
                checked += 1
                vanished += raised
        assert checked > 20_000 and vanished > 100

    def test_cases_under_python_O(self):
        cases = [(t, str(x), outcome(recursive_evaluate, parse(t), x)) for t, x in form_cases()]
        script = textwrap.dedent(
            f"""
            import sys
            from fractions import Fraction
            from spernerfix import expr

            if not sys.flags.optimize:
                sys.exit("not running under python -O")
            for text, x, expected in {cases!r}:
                e, x = expr.parse(text), Fraction(x)
                code = lambda e, x: expr._run(e._code, x.numerator, x.denominator)
                for run in (expr.evaluate, expr.evaluate, code):
                    try:
                        got = run(e, x)
                    except ZeroDivisionError as exc:
                        got = f"ZeroDivisionError: {{exc}}"
                    if got != expected:
                        sys.exit(f"{{text}} at {{x}}: {{got!r}}, not {{expected!r}}")
            print(len({cases!r}))
            """
        )
        done = run_python_O(script)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == str(len(cases))

    @pytest.mark.parametrize(
        "e, x, message",
        [
            (Add(Var(), Const(0.5)), Fraction(1), "constant must be an int or a Fraction, not 0.5"),
            (Add(Var(), Const(0.5)), 0.5, "constant must be an int or a Fraction, not 0.5"),
            (parse("(x*x + 2)/4"), 0.5, "x must be an int or a Fraction, not 0.5"),
            (parse("(x*x + 2)/4"), True, "x must be an int or a Fraction, not True"),
            (parse("ifneg(x, 1, 2) * x"), 0.5, "x must be an int or a Fraction, not 0.5"),
        ],
    )
    def test_inexact_input_is_refused_in_the_same_order(self, e, x, message):
        # the constants are checked first, as the code is compiled, then x
        for _ in range(2):
            with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
                evaluate(e, x)

    def test_solve_deep_kinds_and_the_step_map_run_on_forms(self, monkeypatch):
        inputs = load_inputs()
        exprs = [parse(m.text) for m in inputs.solve_deep_maps(1, 200)]
        exprs += [counterexample_expr(), *(e for e, *_ in LIPSCHITZ_CORPUS)]
        # the maps' domain [0, 1], and the step map's [1, 2]
        points = [x for x in POINTS if 0 <= x <= 1] + [Fraction(k, 7) for k in range(1, 15)]
        expected = [[recursive_evaluate(e, x) for x in points] for e in exprs]
        monkeypatch.setattr(expr_module, "_run", no_interpreter)
        for e, values in zip(exprs, expected):
            assert [evaluate(e, x) for x in points] == values, e

    @pytest.mark.parametrize(
        "text, on_forms",
        [
            pytest.param("*".join(["x"] * DEGREES), True, id="degree-at-budget"),
            pytest.param("*".join(["x"] * (DEGREES + 1)), False, id="degree-over"),
            pytest.param(" + ".join(f"1/(x + {k})" for k in range(1, 40)), False, id="1/(x+k)-sum"),
            pytest.param(reciprocal_sum(DEGREES // 2), True, id="1/(x+k)-sum-at-budget"),
            pytest.param(reciprocal_sum(DEGREES // 2 + 1), False, id="1/(x+k)-sum-over"),
            pytest.param(f"x + 1/{2 ** (BITS - 1)}", True, id="bits-at-budget"),
            pytest.param(f"x + 1/{2 ** BITS}", False, id="bits-over"),
            pytest.param(" + ".join(f"{k}*x/{k + 1}" for k in range(1, 999)), False, id="kx-sum"),
            pytest.param("ifneg(x, 1, 2) + x", False, id="arithmetic-over-ifneg"),
            pytest.param("ifneg(ifneg(x, 1, -1), 1, 2)", False, id="ifneg-in-guard"),
            pytest.param("ifneg(x, 1/(x - x), 2)", False, id="divisor-identically-0"),
        ],
    )
    def test_over_budget_or_formless_input_falls_back(self, monkeypatch, text, on_forms):
        e = parse(text)
        points = [Fraction(1, 3), Fraction(-5, 2), POINTS[-1]]
        expected = [outcome(interpreter, e, x) for x in points]
        calls, real = [], expr_module._run

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(expr_module, "_run", counted)
        assert [outcome(evaluate, e, x) for x in points] == expected
        assert (e._form is not None) is on_forms
        assert len(calls) == (0 if on_forms else len(points))

    def test_a_long_constant_sum_evaluates_on_its_folded_form(self, monkeypatch):
        # 64 000 terms 1/2 and x/2: the postfix code's pairs grow with the
        # program's length, the folded form is 32000 + x/2
        e = parse(" + ".join(["1/2"] * 64_000 + ["x/2"]))
        assert evaluate(e, Fraction(1, 3)) == Fraction(192_001, 6)
        monkeypatch.setattr(expr_module, "_run", no_interpreter)
        assert e._form == ((64_000, 1), (2,), -1)
        assert evaluate(e, POINTS[-1]) == 32_000 + POINTS[-1] / 2


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
        # TestParse.test_deep_ifneg_parses prints 20000 nested ifneg.
        n = 20_000
        e = parse("+".join(["x/3"] * n))
        printed = to_text(e)
        assert printed == "(" * (n - 1) + "(x / 3)" + " + (x / 3))" * (n - 1)
        assert parse(printed) == e
        assert to_text(parse(printed)) == printed

    @pytest.mark.parametrize("e", ["x", Add(Var(), 3), IfNeg(Var(), ONE, None)])
    def test_non_node_is_a_type_error(self, e):
        with pytest.raises(TypeError, match="^not an expression node: "):
            to_text(e)


# The compiler and printer that expr had before one walk served compiling,
# to_text and repr, kept as the references the current ones must match.
_CONST, _VAR = expr_module._CONST, expr_module._VAR
_JUMP_IF_NONNEG, _JUMP = expr_module._JUMP_IF_NONNEG, expr_module._JUMP
_BINARY_OPCODE = expr_module._BINARY_OPCODE
_BINARY_TEXT = {Add: "+", Sub: "-", Mul: "*", Div: "/"}
_NODE, _EMIT, _LAND = range(3)


def reference_compile(root: Expr) -> tuple:
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


def reference_to_text(e: Expr) -> str:
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


NODE_CLASSES = (Const, Var, Add, Sub, Mul, Div, IfNeg)


def reference_eq(a, b) -> bool:
    """The dataclass ==, recursively: same class, and equal fields."""
    if not isinstance(a, NODE_CLASSES):
        return a == b
    return type(a) is type(b) and all(
        reference_eq(getattr(a, f), getattr(b, f)) for f in a.__match_args__
    )


def reference_repr(e) -> str:
    """The dataclass repr, recursively; what is not a node shows its own repr."""
    if not isinstance(e, NODE_CLASSES):
        return repr(e)
    fields = ", ".join(f"{f}={reference_repr(getattr(e, f))}" for f in e.__match_args__)
    return f"{type(e).__name__}({fields})"


def nodes_of(e) -> list:
    """The nodes of e, parent before child."""
    if isinstance(e, (Const, Var)):
        return [e]
    return [e] + [n for f in e.__match_args__ for n in nodes_of(getattr(e, f))]


def replaced(e, old, new):
    """e with the node `old` (by identity) replaced by `new`."""
    if e is old:
        return new
    if isinstance(e, (Const, Var)):
        return e
    return type(e)(*(replaced(getattr(e, f), old, new) for f in e.__match_args__))


def near_miss(rng: random.Random, e: Expr) -> Expr:
    """e with one edit at one of its nodes: a changed constant or variable,
    Add and Sub (or Mul and Div) exchanged, or the children or ifneg
    branches swapped. The result may still equal e."""
    node = rng.choice(nodes_of(e))
    match node:
        case Const(value):
            new = Const(value + rng.choice([1, -1, Fraction(1, 7)]))
        case Var():
            new = Const(Fraction(0))
        case IfNeg(guard, then, orelse):
            new = IfNeg(guard, orelse, then)
        case _ if rng.random() < 0.5:
            new = type(node)(node.rhs, node.lhs)
        case _:
            swap = {Add: Sub, Sub: Add, Mul: Div, Div: Mul}
            new = swap[type(node)](node.lhs, node.rhs)
    return replaced(e, node, new)


def chain(n: int, leaf: Expr) -> Expr:
    """leaf, then n times Add(·, Const(1)) around it: nested n deep."""
    e = leaf
    for _ in range(n):
        e = Add(e, Const(1))
    return e


class TestOneWalk:
    @pytest.fixture(scope="class")
    def trees(self):
        rng = random.Random(20261020)
        trees = [gen_expr(rng, rng.randint(0, 6)) for _ in range(2000)]
        return trees + [e for e, *_ in LIPSCHITZ_CORPUS] + [counterexample_expr(), EQ2_AST]

    def test_code_text_and_repr_match_the_references(self, trees):
        for e in trees:
            assert expr_module._compile(e) == reference_compile(e), e
            assert to_text(e) == reference_to_text(e)
            assert repr(e) == reference_repr(e)

    def test_equality_and_hash_match_the_reference(self, trees):
        rng = random.Random(20261021)
        pairs = [(parse(text), parse(text)) for text in map(to_text, trees)]
        for _ in range(20_000 - len(pairs)):
            a = rng.choice(trees)
            pairs.append((a, near_miss(rng, a) if rng.random() < 0.5 else rng.choice(trees)))
        equal = 0
        for a, b in pairs:
            expected = reference_eq(a, b)
            assert (a == b) is expected and (b == a) is expected, (a, b)
            assert (a != b) is not expected
            if expected:
                assert hash(a) == hash(b)
                equal += 1
        # equal pairs occur beyond the texts parsed twice, and unequal ones often
        assert len(trees) + 100 < equal < 10_000

    def test_equal_values_of_different_types(self):
        assert Const(2) == Const(Fraction(2)) and hash(Const(2)) == hash(Const(Fraction(2)))
        assert repr(Const(2)) == "Const(value=2)"
        assert Var() != ONE and Add(ONE, TWO) != Sub(ONE, TWO)
        assert Var() != "x" and Var() != None  # noqa: E711

    def test_deep_trees_compare_hash_and_print(self):
        n = 100_000
        e, same = chain(n, Var()), chain(n, Var())
        assert e == same and hash(e) == hash(same)
        assert e != Add(same.lhs, Const(2))
        assert repr(e) == "Add(lhs=" * n + "Var()" + ", rhs=Const(value=1))" * n

    @pytest.mark.parametrize(
        "e, shown, item",
        [
            (Add(Var(), 3), "Add(lhs=Var(), rhs=3)", "3"),
            (
                IfNeg(Var(), ONE, None),
                "IfNeg(guard=Var(), then=Const(value=Fraction(1, 1)), orelse=None)",
                "None",
            ),
            (Mul(Var(), [Var()]), "Mul(lhs=Var(), rhs=[Var()])", "[Var()]"),
        ],
    )
    def test_malformed_tree(self, e, shown, item):
        assert repr(e) == shown
        message = f"^not an expression node: {re.escape(item)}$"
        for refused in (lambda: e == Var(), lambda: Var() == e, lambda: hash(e)):
            with pytest.raises(TypeError, match=message):
                refused()
        assert e != 3  # a non-node is never equal, and is not compiled

    def test_node_of_a_subclass_is_not_a_node(self):
        class Plus(Add):
            pass

        e = Add(Plus(Var(), ONE), ONE)
        shown = r"Add\(lhs=<.*\.Plus object at 0x\w+>, rhs=Const\(value=Fraction\(1, 1\)\)\)"
        assert re.fullmatch(shown, repr(e))
        for refused in (lambda: e == e, lambda: hash(e), lambda: to_text(e)):
            with pytest.raises(TypeError, match="^not an expression node: <.*Plus object at"):
                refused()

    @pytest.mark.parametrize(
        "e, shown, text",
        [
            (Const(0.5), "Const(value=0.5)", "0.5"),
            (Add(Var(), Const(0.5)), "Add(lhs=Var(), rhs=Const(value=0.5))", "(x + 0.5)"),
        ],
    )
    def test_constant_that_is_not_rational(self, e, shown, text):
        for refused in (lambda: evaluate(e, Fraction(1)), lambda: e == e, lambda: hash(e)):
            with pytest.raises(TypeError, match=r"^constant must be an int or a Fraction, not 0\.5$"):
                refused()
        assert repr(e) == shown
        assert to_text(e) == text
