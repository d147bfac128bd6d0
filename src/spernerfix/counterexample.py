"""Why exactness matters: a fixed-point-free self-map of [1, 2] over Q.

The function ``f(x) = 2 when x < sqrt(2), 1 when x > sqrt(2)`` is a
well-defined map on the rational interval: no rational squares to 2, so the
guard always decides. On the rationals it is even continuous (every rational
is bounded away from sqrt(2), so f is locally constant), yet it has no fixed
point: its only values are 1 and 2, and f(1) = 2, f(2) = 1.

Sperner's lemma does not care: every rational grid over [1, 2] still has a
transition edge, and bisection happily shrinks brackets forever. What fails
is the conclusion that the residual shrinks too. This module runs that
demonstration: bracket width halves every round while the midpoint residual
stays at least 2/5, all checked in exact arithmetic with zero tolerance.

The floor 2/5 is used instead of the true bound sqrt(2) - 1 so every
assertion is a rational comparison; 2/5 < sqrt(2) - 1 is itself certified by
one exact squaring, (7/5)^2 = 49/25 < 2. No Lipschitz constant is declared
because none exists: rationals on either side of sqrt(2) can be arbitrarily
close while their images differ by 1. That missing declaration is the
lesson, not an omission.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .expr import Const, Expr, IfNeg, Mul, Sub, Var, evaluate
from .rationals import is_below_sqrt2
from .sperner import Labeling, find_transition_scan, label_by_sign, make_uniform_grid
from .solver import (
    CertificateError,
    CertifiedBracket,
    SolverConfig,
    refine_rounds,
    residual,
)

# Exact lower bound for every midpoint residual; 2/5 < sqrt(2) - 1.
RESIDUAL_FLOOR = Fraction(2, 5)

_ONE = Fraction(1)
_TWO = Fraction(2)


def counterexample_expr() -> Expr:
    """The step map on [1, 2]: 2 below sqrt(2), 1 above, as ifneg(x*x - 2, 2, 1)."""
    return IfNeg(Sub(Mul(Var(), Var()), Const(_TWO)), Const(_TWO), Const(_ONE))


def assert_no_fixed_point(x: Fraction) -> bool:
    """Verify f(x) != x exactly for rational x in [1, 2].

    f only takes the values 1 and 2; x = 2 maps to 1 and x = 1 maps to 2,
    so no input is fixed. Returns the (always true) verdict; raises
    ValueError outside the domain.
    """
    if not _ONE <= x <= _TWO:
        raise ValueError(f"{x} outside the domain [1, 2]")
    return evaluate(counterexample_expr(), x) != x


@dataclass(frozen=True)
class CounterexampleReport:
    """One bisection round: the bracket and its exactly checked facts."""

    depth: int
    bracket: CertifiedBracket
    midpoint: Fraction
    midpoint_residual: Fraction
    residual_floor_check: bool  # |midpoint_residual| >= 2/5, exactly
    contains_sqrt2: bool  # lo^2 < 2 < hi^2, exactly


def run_demo(depth: int) -> list[CounterexampleReport]:
    """Bisect the counterexample for `depth` rounds and certify each one.

    Drains one refine-mode stream of the solver (branching 2, no Lipschitz
    declaration), so each report comes from the public solver surface and
    the cost is linear in depth. Per round, checks in exact arithmetic that
    the bracket straddles sqrt(2), that the midpoint residual stays at or
    above 2/5, that no grid vertex is ever exactly fixed, and that the grid
    the solver refined still satisfies the Sperner lemma. Any failure raises
    CertificateError: it would be an implementation bug.
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
    rounds = refine_rounds(f, _ONE, _TWO, config)
    next(rounds)  # round 0 is [1, 2] itself
    reports: list[CounterexampleReport] = []
    prev_lo, prev_hi = _ONE, _TWO
    for d, bracket in enumerate(rounds, 1):
        if not isinstance(bracket, CertifiedBracket):
            raise CertificateError("exact vertex fixed point cannot occur: f has none")

        # The grid refined this round, rebuilt by hand: Sperner still holds
        # over Q, and the transition edge is the bracket the solver returned.
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
