"""Certified fixed-point localization by Sperner-labeled bracketing.

The solver looks for a fixed point of f on [a, b] by labeling grid vertices
with the sign of the residual g(x) = f(x) - x and narrowing to a transition
edge. It returns either an exact vertex fixed point or a certified bracket:
an interval [lo, hi] together with the exactly computed residuals g(lo) > 0
and g(hi) < 0. The sign evidence is unconditional. The further claim that
the midpoint residual is at most (L+1)(hi-lo)/2 is conditional on f really
being L-Lipschitz on the interval, which the caller declares and the solver
cannot check; see the counterexample module for what goes wrong when no such
bound exists.

Two modes:

* ``refine`` (default): repeatedly split the current bracket into
  `branching` equal parts and bisect the part indices, evaluating only the
  vertices the bisection queries, down to a 0-to-1 edge. Stops when
  (L+1) * width / 2 <= epsilon (with a declared Lipschitz bound L), when
  width <= epsilon (without one), or at max_rounds, in which case the best
  bracket so far is returned marked unconverged. The residuals of the
  bracket ends are carried from round to round, so a round costs
  ceil(log2(branching)) evaluations and no point is evaluated twice.
  ExactVertex is returned when some *queried* vertex is exactly fixed; at
  branching 2 that is every vertex of the sub-grid, at larger branching
  the unqueried vertices are never evaluated.
* ``single_grid``: build one uniform grid fine enough that the spacing is
  below delta = min(epsilon/L, epsilon * (1 - 1/branching)) and return the
  first transition edge. Requires a declared Lipschitz bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Literal, Union

from .expr import Expr, as_function
from .sperner import (
    ExactVertex,
    Labeling,
    NonSelfMapError,
    find_transition_scan,
    label_by_sign,
    make_uniform_grid,
)

Mode = Literal["refine", "single_grid"]

Function = Union[Expr, Callable[[Fraction], Fraction]]


class CertificateError(AssertionError):
    """An exactly decided claim of a certificate came out false.

    That is an implementation bug, never bad input. The checks that raise it
    are plain `if` tests, so unlike `assert` they also run under python -O.
    """


@dataclass(frozen=True)
class SolverConfig:
    """Solver parameters.

    epsilon is the target residual bound. lipschitz, when given, declares
    |f(x) - f(x')| <= lipschitz * |x - x'| on the interval; the solver uses
    it to derive grid spacing and stopping criteria but cannot verify it.
    branching is the number of subintervals per refinement round.
    """

    epsilon: Fraction = Fraction(1, 10**6)
    lipschitz: Fraction | None = None
    branching: int = 2
    max_rounds: int = 64
    mode: Mode = "refine"

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.lipschitz is not None and self.lipschitz <= 0:
            raise ValueError("lipschitz bound must be positive")
        if self.branching < 2:
            raise ValueError("branching must be at least 2")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")
        if self.mode not in ("refine", "single_grid"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class CertifiedBracket:
    """Interval with exact opposite-sign residual evidence at its endpoints.

    g_lo and g_hi are the exactly computed values of f(lo) - lo and
    f(hi) - hi. Exact vertex fixed points are reported as ExactVertex,
    never as brackets, so both inequalities are strict.
    """

    lo: Fraction
    hi: Fraction
    g_lo: Fraction
    g_hi: Fraction
    rounds_used: int
    converged: bool = True

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("bracket requires lo < hi")
        if not self.g_lo > 0:
            raise ValueError("bracket requires g(lo) > 0")
        if not self.g_hi < 0:
            raise ValueError("bracket requires g(hi) < 0")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


FixPointResult = Union[ExactVertex, CertifiedBracket]


def residual(f: Function, x: Fraction) -> Fraction:
    """Exact residual g(x) = f(x) - x; zero exactly at fixed points."""
    return as_function(f)(x) - x


def archimedean_n(delta: Fraction, a: Fraction, b: Fraction) -> int:
    """Smallest positive integer n with (b - a) < n * delta, exactly."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    if not a < b:
        raise ValueError("requires a < b")
    return (b - a) // delta + 1


def residual_bound(bracket: CertifiedBracket, lipschitz: Fraction) -> Fraction:
    """Midpoint residual bound (L+1) * width / 2.

    g inherits Lipschitz constant L+1 from f, so |g(midpoint)| is at most
    this value provided f genuinely satisfies the declared bound over the
    real interval. A false declaration voids the claim (the sign evidence
    in the bracket itself remains exact either way).
    """
    if lipschitz <= 0:
        raise ValueError("lipschitz bound must be positive")
    return (lipschitz + 1) * bracket.width / 2


def solve(
    f: Function, a: Fraction, b: Fraction, config: SolverConfig = SolverConfig()
) -> FixPointResult:
    """Locate a fixed point of f on [a, b] with exact evidence.

    Returns ExactVertex when some examined grid vertex is exactly fixed,
    otherwise a CertifiedBracket. Raises NonSelfMapError when the endpoint
    residuals show f escaping the interval. Refine mode returns the last
    result of refine_rounds; single_grid mode only takes its endpoint checks.
    """
    rounds = refine_rounds(f, a, b, config)
    result = next(rounds)
    if config.mode == "single_grid" and isinstance(result, CertifiedBracket):
        return _solve_single_grid(as_function(f), a, b, config)
    for result in rounds:
        pass
    return result


def _met(width: Fraction, config: SolverConfig) -> bool:
    if config.lipschitz is not None:
        return (config.lipschitz + 1) * width / 2 <= config.epsilon
    return width <= config.epsilon


def refine_rounds(
    f: Function, a: Fraction, b: Fraction, config: SolverConfig
) -> Iterator[FixPointResult]:
    """The refine mode as a stream: one result per round, the last is final.

    First yields [a, b] itself as the round-0 bracket, then the bracket
    after each refinement round, with rounds_used set to the round and
    converged to whether the width target is met. An exactly fixed endpoint
    or queried vertex is yielded as ExactVertex and ends the stream.
    config.mode is not consulted. Raises ValueError unless a < b and
    NonSelfMapError when the endpoint residuals show f escaping [a, b],
    both on the first next().
    """
    if not a < b:
        raise ValueError("requires a < b")
    fn = as_function(f)
    g_lo = fn(a) - a
    g_hi = fn(b) - b
    # Endpoints in scan order, matching label_by_sign on the same grid.
    if g_lo == 0:
        yield ExactVertex(a)
        return
    if g_lo < 0:
        raise NonSelfMapError(f"f({a}) < {a}: map does not self-map the interval")
    if g_hi == 0:
        yield ExactVertex(b)
        return
    if g_hi > 0:
        raise NonSelfMapError(f"f({b}) > {b}: map does not self-map the interval")
    k = config.branching
    lo, hi = a, b
    rounds = 0
    while True:
        if not g_lo > 0 > g_hi:
            raise CertificateError(f"round {rounds}: residual signs lost at [{lo}, {hi}]")
        met = _met(hi - lo, config)
        yield CertifiedBracket(lo, hi, g_lo, g_hi, rounds_used=rounds, converged=met)
        if met or rounds == config.max_rounds:
            return
        # Bisect the vertex indices 0..k of make_uniform_grid(lo, hi, k),
        # keeping label 0 (g > 0) at i and label 1 (g < 0) at j.
        step = Fraction(hi - lo, k)
        i, j = 0, k
        while j - i > 1:
            m = (i + j) // 2
            x = lo + m * step
            g = fn(x) - x
            if g == 0:
                yield ExactVertex(x)
                return
            if g > 0:
                i, g_lo = m, g
            else:
                j, g_hi = m, g
        lo, hi = lo + i * step, lo + j * step
        rounds += 1


def _solve_single_grid(
    fn: Callable[[Fraction], Fraction],
    a: Fraction,
    b: Fraction,
    config: SolverConfig,
) -> FixPointResult:
    if config.lipschitz is None:
        raise ValueError("single_grid mode requires a declared Lipschitz bound")
    # Grid spacing below delta, with delta capped strictly below epsilon.
    cap = config.epsilon * (1 - Fraction(1, config.branching))
    delta = min(config.epsilon / config.lipschitz, cap)
    n = archimedean_n(delta, a, b)
    grid = make_uniform_grid(a, b, n)
    labeled = label_by_sign(grid, fn)
    if isinstance(labeled, ExactVertex):
        return labeled
    assert isinstance(labeled, Labeling)
    i = find_transition_scan(labeled)
    lo, hi = grid.vertices[i - 1], grid.vertices[i]
    return CertifiedBracket(
        lo, hi, fn(lo) - lo, fn(hi) - hi, rounds_used=1, converged=True
    )
