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

from .expr import Const, Expr, IfNeg, Mul, Sub, Var
from .rationals import CertificateError, is_below_sqrt2
from .solver import CertifiedBracket, SolverConfig, refine_rounds, residual

__all__ = [
    "RESIDUAL_FLOOR", "CounterexampleReport", "assert_no_fixed_point", "counterexample_expr",
    "run_demo",
]

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
    return residual(counterexample_expr(), x) != 0


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
    declaration) and checks it against residuals evaluated here: g(1), g(2)
    and g(3/2) once, then each round's reported midpoint residual g(m).
    Round d must yield the first transition edge of [lo, m, hi] with its
    residuals, exactly: [m, hi] with (g(m), g(hi)) if g(m) > 0, else [lo, m]
    with (g(lo), g(m)). Each bracket must straddle sqrt(2) and each |g(m)|
    stay at or above 2/5, so no vertex is fixed. Costs 2*depth + 5
    evaluations of f. Any failure raises CertificateError: it would be an
    implementation bug.
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
    lo, hi, midpoint = _ONE, _TWO, Fraction(3, 2)
    g_lo, g_hi, g_mid = (residual(f, x) for x in (lo, hi, midpoint))
    for d, bracket in enumerate(rounds, 1):
        if not isinstance(bracket, CertifiedBracket):
            raise CertificateError("exact vertex fixed point cannot occur: f has none")
        # The first transition edge of the labeled grid [lo, midpoint, hi].
        expected = (midpoint, hi, g_mid, g_hi) if g_mid > 0 else (lo, midpoint, g_lo, g_mid)
        lo, hi, g_lo, g_hi = bracket.lo, bracket.hi, bracket.g_lo, bracket.g_hi
        if (lo, hi, g_lo, g_hi) != expected:
            raise CertificateError(f"round {d}: the solver left the transition edge")

        contains = is_below_sqrt2(lo) and not is_below_sqrt2(hi)
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
    if len(reports) != depth:
        raise CertificateError(f"{len(reports)} rounds for depth {depth}")
    return reports
