import random
import textwrap
from fractions import Fraction

import pytest

from conftest import run_python_O
from spernerfix.counterexample import (
    RESIDUAL_FLOOR,
    assert_no_fixed_point,
    counterexample_expr,
    run_demo,
)
from spernerfix.expr import evaluate, parse


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
