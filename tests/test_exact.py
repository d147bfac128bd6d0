"""One exactness rule for every number the library takes.

A number argument is exact when it is an int or a Fraction, a Fraction
subclass included, and not a bool; a count is an int and not a bool; a label
is the int 0 or 1. Each entry point refuses anything else, naming the
argument. The rule is spelled once, in rationals, and the source rule below
keeps it there.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from spernerfix import (
    Add,
    CertifiedBracket,
    Const,
    ExactVertex,
    Grid,
    Labeling,
    SolverConfig,
    Var,
    archimedean_n,
    assert_no_fixed_point,
    decimal_string,
    evaluate,
    is_below_sqrt2,
    parse,
    pl_evaluate,
    pl_from_labeling,
    pl_trace,
    refine_rounds,
    residual,
    residual_bound,
    run_demo,
    solve,
)
from spernerfix.rationals import _exact

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "spernerfix").glob("*.py"))


class Exact(Fraction):
    """A Fraction subclass: exact, and accepted wherever a Fraction is."""


def first_round(f, a, b):
    return next(refine_rounds(f, a, b, SolverConfig()))


PLMAP = pl_from_labeling(Grid((0, 1, 2)), Labeling((0, 1, 1)))
BRACKET = CertifiedBracket(Fraction(0), Fraction(1), Fraction(1), Fraction(-1), rounds_used=0)

# (id, call of one value, the name a refusal gives, a value the call accepts)
EXACT = [
    ("Const", lambda v: evaluate(Add(Var(), Const(v)), Fraction(0)), "constant", 1),
    ("evaluate.x", lambda v: evaluate(parse("x*x"), v), "x", 1),
    ("residual.x", lambda v: residual(lambda x: 3 * x, v), "x", 1),
    ("solve.a", lambda v: solve(lambda x: 1, v, 2), "a", 1),
    ("solve.b", lambda v: solve(lambda x: 1, 0, v), "b", 1),
    ("solve.f", lambda v: solve(lambda x: v, 0, 2), "f(0)", 1),
    ("refine_rounds.a", lambda v: first_round(lambda x: 1, v, 2), "a", 1),
    ("refine_rounds.b", lambda v: first_round(lambda x: 1, 0, v), "b", 1),
    ("refine_rounds.f", lambda v: first_round(lambda x: v, 0, 2), "f(0)", 1),
    ("SolverConfig.epsilon", lambda v: SolverConfig(epsilon=v), "epsilon", 1),
    ("SolverConfig.lipschitz", lambda v: SolverConfig(lipschitz=v), "lipschitz", 1),
    ("archimedean_n.delta", lambda v: archimedean_n(v, 0, 2), "delta", 1),
    ("archimedean_n.a", lambda v: archimedean_n(1, v, 2), "a", 1),
    ("archimedean_n.b", lambda v: archimedean_n(1, 0, v), "b", 1),
    ("residual_bound", lambda v: residual_bound(BRACKET, v), "lipschitz", 1),
    ("Grid", lambda v: Grid((0, v, 2)), "grid vertex 1", 1),
    ("pl_evaluate", lambda v: pl_evaluate(PLMAP, v), "x", 1),
    ("is_below_sqrt2", is_below_sqrt2, "x", 1),
    ("decimal_string", decimal_string, "q", 1),
    ("assert_no_fixed_point", assert_no_fixed_point, "x", 1),
    ("CertifiedBracket.lo", lambda v: CertifiedBracket(v, 2, 1, -1, 0), "lo", 1),
    ("CertifiedBracket.hi", lambda v: CertifiedBracket(0, v, 1, -1, 0), "hi", 1),
    ("CertifiedBracket.g_lo", lambda v: CertifiedBracket(0, 1, v, -1, 0), "g_lo", 1),
    ("CertifiedBracket.g_hi", lambda v: CertifiedBracket(0, 1, 1, v, 0), "g_hi", -1),
    ("ExactVertex", ExactVertex, "x", 1),
]
COUNTS = [
    ("SolverConfig.branching", lambda v: SolverConfig(branching=v), "branching", 2),
    ("SolverConfig.max_rounds", lambda v: SolverConfig(max_rounds=v), "max_rounds", 2),
    ("pl_trace", lambda v: pl_trace(PLMAP, v), "samples_per_edge", 2),
    ("run_demo", run_demo, "depth", 2),
]
INEXACT = [0.5, True, "1"]


def table(rows):
    return pytest.mark.parametrize(
        "call, name, ok", [pytest.param(*row[1:], id=row[0]) for row in rows]
    )


@table(EXACT)
@pytest.mark.parametrize("value", INEXACT, ids=repr)
def test_number_refuses_an_inexact_value(call, name, ok, value):
    with pytest.raises(TypeError) as exc:
        call(value)
    assert str(exc.value) == f"{name} must be an int or a Fraction, not {value!r}"


@table(EXACT)
@pytest.mark.parametrize("kind", [Fraction, Exact])
def test_number_accepts_a_fraction_as_its_int(call, name, ok, kind):
    assert call(kind(ok)) == call(ok)


@table(COUNTS)
@pytest.mark.parametrize("value", INEXACT + [Fraction(2), Exact(2)], ids=repr)
def test_count_refuses_all_but_an_int(call, name, ok, value):
    with pytest.raises(TypeError) as exc:
        call(value)
    assert str(exc.value) == f"{name} must be an int, not {value!r}"


@table(COUNTS)
def test_count_accepts_an_int(call, name, ok):
    call(ok)


@pytest.mark.parametrize("label", INEXACT + [1.0, Fraction(1), Exact(1)], ids=repr)
def test_label_is_the_int_0_or_1(label):
    with pytest.raises(ValueError) as exc:
        Labeling((0, label, 1))
    assert str(exc.value) == "labels must be 0 or 1"


def test_name_is_formatted_only_on_refusal():
    class Unformattable:
        def __format__(self, spec):
            raise AssertionError("the name was formatted")

    assert _exact(Fraction(1, 3), "f({})", Unformattable()) == Fraction(1, 3)
    with pytest.raises(TypeError) as exc:
        _exact(0.5, "f({})", "1/3")
    assert str(exc.value) == "f(1/3) must be an int or a Fraction, not 0.5"


def is_int_and_fraction(node):
    names = {e.id for e in getattr(node, "elts", ()) if isinstance(e, ast.Name)}
    return isinstance(node, ast.Tuple) and {"int", "Fraction"} <= names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_exactness_rule_is_spelled_only_in_rationals(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    nodes = list(ast.walk(tree))
    spelled = [node.lineno for node in nodes if is_int_and_fraction(node)]
    assert path.name == "rationals.py" or spelled == [], f"{path.name} lines {spelled}"
    # the checks name their argument with a literal format, built only on refusal
    checks = [
        node for node in nodes
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("_exact", "_count")
    ]
    assert all(isinstance(c.args[1], ast.Constant) for c in checks), path.name
