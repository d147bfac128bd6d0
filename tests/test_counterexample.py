import random
import textwrap
from fractions import Fraction

import pytest

from conftest import run_python_O
from spernerfix import expr
from spernerfix.counterexample import (
    RESIDUAL_FLOOR,
    CounterexampleReport,
    assert_no_fixed_point,
    counterexample_expr,
    run_demo,
)
from spernerfix.expr import evaluate, parse
from spernerfix.rationals import CertificateError, is_below_sqrt2
from spernerfix.solver import (
    CertifiedBracket,
    SolverConfig,
    refine_rounds,
    residual,
)
from spernerfix.sperner import Labeling, find_transition_scan, label_by_sign, make_uniform_grid


class TestCounterexampleExpr:
    def test_matches_parsed_form(self):
        assert counterexample_expr() == parse("ifneg(x*x - 2, 2, 1)")

    def test_endpoint_values(self):
        f = counterexample_expr()
        assert evaluate(f, Fraction(1)) == Fraction(2)
        assert evaluate(f, Fraction(2)) == Fraction(1)

    def test_below_sqrt2(self):
        assert evaluate(counterexample_expr(), Fraction(7, 5)) == Fraction(2)

    def test_above_sqrt2(self):
        assert evaluate(counterexample_expr(), Fraction(3, 2)) == Fraction(1)


class TestNoFixedPoint:
    def test_endpoints(self):
        assert assert_no_fixed_point(Fraction(1)) is True
        assert assert_no_fixed_point(Fraction(2)) is True

    def test_interior(self):
        assert assert_no_fixed_point(Fraction(3, 2)) is True

    def test_out_of_domain(self):
        with pytest.raises(ValueError):
            assert_no_fixed_point(Fraction(1, 2))
        with pytest.raises(ValueError):
            assert_no_fixed_point(Fraction(5, 2))

    def test_seeded_corpus(self):
        rng = random.Random(17)
        for _ in range(1000):
            den = rng.randint(1, 10**6)
            num = rng.randint(den, 2 * den)
            assert assert_no_fixed_point(Fraction(num, den)) is True


class TestResidualFloor:
    def test_floor_is_certified_below_sqrt2_minus_1(self):
        # 2/5 < sqrt(2) - 1 because (2/5 + 1)^2 = 49/25 < 2
        assert RESIDUAL_FLOOR == Fraction(2, 5)
        assert (RESIDUAL_FLOOR + 1) ** 2 < 2


class TestRunDemo:
    def test_first_round_bracket(self):
        (report,) = run_demo(1)
        assert (report.bracket.lo, report.bracket.hi) == (Fraction(1), Fraction(3, 2))
        assert report.bracket.lo ** 2 < 2 < report.bracket.hi ** 2

    def test_halving_law(self):
        reports = run_demo(12)
        for report in reports:
            assert report.bracket.width == Fraction(1, 2**report.depth)

    def test_rounds_are_nested(self):
        reports = run_demo(10)
        for prev, cur in zip(reports, reports[1:]):
            assert prev.bracket.lo <= cur.bracket.lo
            assert cur.bracket.hi <= prev.bracket.hi

    def test_residual_floor_every_round(self):
        for report in run_demo(12):
            assert report.residual_floor_check is True
            assert abs(report.midpoint_residual) >= RESIDUAL_FLOOR

    def test_sqrt2_containment_every_round(self):
        for report in run_demo(12):
            assert report.contains_sqrt2 is True
            assert report.bracket.lo ** 2 < 2 < report.bracket.hi ** 2

    def test_residual_values_are_step_heights(self):
        # f only takes values 1 and 2, so g(m) is 2 - m or 1 - m
        for report in run_demo(12):
            m = report.midpoint
            assert report.midpoint_residual in (2 - m, 1 - m)

    def test_never_converges(self):
        for report in run_demo(8):
            assert report.bracket.converged is False
            assert report.bracket.rounds_used == report.depth

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            run_demo(0)


def reference_run_demo(depth):
    """run_demo as it was when it rebuilt each round's grid by hand.

    Labels the previous bracket's grid [lo, m, hi] with label_by_sign and
    takes its first transition edge; evaluates f at all three vertices again.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    f = counterexample_expr()
    config = SolverConfig(
        epsilon=Fraction(1, 2 ** (depth + 1)),
        lipschitz=None,
        branching=2,
        max_rounds=depth,
        mode="refine",
    )
    rounds = refine_rounds(f, Fraction(1), Fraction(2), config)
    next(rounds)
    reports = []
    prev_lo, prev_hi = Fraction(1), Fraction(2)
    for d, bracket in enumerate(rounds, 1):
        if not isinstance(bracket, CertifiedBracket):
            raise CertificateError("exact vertex fixed point cannot occur: f has none")
        grid = make_uniform_grid(prev_lo, prev_hi, 2)
        labeled = label_by_sign(grid, f)
        if not isinstance(labeled, Labeling):
            raise CertificateError(f"round {d}: a vertex of {grid.vertices} is exactly fixed")
        edge = find_transition_scan(labeled)
        if (grid.vertices[edge - 1], grid.vertices[edge]) != (bracket.lo, bracket.hi):
            raise CertificateError(f"round {d}: the solver left the transition edge")
        contains = is_below_sqrt2(bracket.lo) and not is_below_sqrt2(bracket.hi)
        midpoint = bracket.midpoint
        g_mid = residual(f, midpoint)
        floor_ok = abs(g_mid) >= RESIDUAL_FLOOR
        if not contains:
            raise CertificateError(f"round {d}: bracket stopped straddling sqrt(2)")
        if not floor_ok:
            raise CertificateError(f"round {d}: midpoint residual fell below the exact floor")
        reports.append(
            CounterexampleReport(
                depth=d,
                bracket=bracket,
                midpoint=midpoint,
                midpoint_residual=g_mid,
                residual_floor_check=floor_ok,
                contains_sqrt2=contains,
            )
        )
        prev_lo, prev_hi = bracket.lo, bracket.hi
    if len(reports) != depth:
        raise CertificateError(f"{len(reports)} rounds for depth {depth}")
    return reports


class TestRunDemoAgainstReference:
    @pytest.mark.parametrize("depth", [*range(1, 61), 100])
    def test_reports_equal(self, depth):
        assert run_demo(depth) == reference_run_demo(depth)


def count_evaluations(monkeypatch):
    """Count every f-evaluation: as_function looks expr.evaluate up per call."""
    calls = []
    real = expr.evaluate

    def counting(e, x):
        calls.append(x)
        return real(e, x)

    monkeypatch.setattr(expr, "evaluate", counting)
    return calls


class TestEvaluationCount:
    @pytest.mark.parametrize("depth", [1, 2, 10, 100])
    def test_two_per_round_plus_five(self, monkeypatch, depth):
        calls = count_evaluations(monkeypatch)
        run_demo(depth)
        assert len(calls) == 2 * depth + 5

    def test_reference_costs_five_per_round(self, monkeypatch):
        # The same counter sees the hand-rebuilt grid's evaluations.
        calls = count_evaluations(monkeypatch)
        reference_run_demo(100)
        assert len(calls) == 502

    def test_the_step_map_is_compiled_once(self, monkeypatch):
        calls, real = [], expr._compile

        def counting(e):
            calls.append(e)
            return real(e)

        monkeypatch.setattr(expr, "_compile", counting)
        counterexample_expr.cache_clear()  # a fresh map, whatever ran before
        run_demo(5)
        for k in range(100):
            assert assert_no_fixed_point(1 + Fraction(k, 99))
        assert calls == [counterexample_expr()]


_LYING_ORACLE = textwrap.dedent(
    """
    import sys
    from spernerfix import CertificateError, counterexample

    if not sys.flags.optimize:
        sys.exit("not running under python -O")
    real = counterexample.is_below_sqrt2
    counterexample.is_below_sqrt2 = lambda q: not real(q)
    try:
        counterexample.run_demo(3)
    except CertificateError as exc:
        print(exc)
        sys.exit(0)
    sys.exit(1)
    """
)


def test_checks_survive_python_O():
    # With asserts stripped, a lying sqrt(2) oracle must still be caught.
    done = run_python_O(_LYING_ORACLE)
    assert done.returncode == 0, done.stderr
    assert "straddling sqrt(2)" in done.stdout


_LYING_STREAMS = textwrap.dedent(
    """
    import sys
    from dataclasses import replace
    from spernerfix import CertificateError, ExactVertex, counterexample

    if not sys.flags.optimize:
        sys.exit("not running under python -O")
    real = counterexample.refine_rounds

    def wrong_half(*args):
        prev = None
        for item in real(*args):
            if prev is None:
                yield item
            elif item.lo == prev.lo:
                yield replace(item, lo=item.hi, hi=prev.hi)
            else:
                yield replace(item, lo=prev.lo, hi=item.lo)
            prev = item

    def wrong_residual(*args):
        # g_lo + 1 keeps the sign, so CertifiedBracket accepts it.
        for item in real(*args):
            yield replace(item, g_lo=item.g_lo + 1)

    def exact_vertex(*args):
        for item in real(*args):
            if item.rounds_used == 2:
                yield ExactVertex(item.midpoint)
                return
            yield item

    for fake in (wrong_half, wrong_residual, exact_vertex):
        counterexample.refine_rounds = fake
        try:
            counterexample.run_demo(3)
        except CertificateError as exc:
            print(f"{fake.__name__}: {exc}")
        else:
            sys.exit(f"{fake.__name__} was not caught")
    """
)


def test_lying_streams_are_caught_under_python_O():
    # The stream is checked against run_demo's own residuals, not itself.
    done = run_python_O(_LYING_STREAMS)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "wrong_half: round 1: the solver left the transition edge",
        "wrong_residual: round 1: the solver left the transition edge",
        "exact_vertex: exact vertex fixed point cannot occur: f has none",
    ]
