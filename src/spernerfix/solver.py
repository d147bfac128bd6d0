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

Two modes share one round loop, `_rounds`; they differ in the grid
of a round and in the order its vertices are probed:

* ``refine`` (default): repeatedly split the current bracket into
  `branching` equal parts and bisect the part indices, evaluating only the
  vertices the bisection queries, down to a 0-to-1 edge. Stops when
  (L+1) * width / 2 <= epsilon (with a declared Lipschitz bound L), when
  width <= epsilon (without one), or at max_rounds, in which case the best
  bracket so far is returned marked unconverged. Signs are decided on integer
  cross-products of f(x) and x, residuals are built only for a bracket the
  caller receives, and a round costs ceil(log2(branching)) new evaluations.
  The bracket is kept in integers: after r rounds it is
  [a + i*w/K, a + (i+1)*w/K] with w = b - a and K = branching**r, so each
  queried vertex is one Fraction built from integers fixed at round 0, and
  the stopping test is one integer comparison.
  ExactVertex is returned when some *queried* vertex is exactly fixed; at
  branching 2 that is every vertex of the sub-grid, at larger branching
  the unqueried vertices are never evaluated.
* ``single_grid``: one round of the same search over one uniform grid fine
  enough that the spacing is below
  delta = min(epsilon/L, epsilon * (1 - 1/branching)), probed from the left,
  so each vertex is evaluated once up to the first transition edge.
  Requires a declared Lipschitz bound. ExactVertex is returned when a
  vertex up to the first transition is exactly fixed; the vertices after
  it are never evaluated, so a fixed point or a division by zero there goes
  unseen. A grid of more than SINGLE_GRID_BUDGET edges is refused with
  ValueError before any vertex past the endpoints is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Literal, Union, get_args

from .expr import Expr, as_function
from .rationals import _count, _exact
from .sperner import ExactVertex, NonSelfMapError

__all__ = [
    "CertifiedBracket", "FixPointResult", "SolverConfig", "archimedean_n", "refine_rounds",
    "residual", "residual_bound", "solve",
]

Mode = Literal["refine", "single_grid"]

Function = Union[Expr, Callable[[Fraction], Fraction]]

# The most edges a single_grid scan may have; a finer grid is refused with
# ValueError.
SINGLE_GRID_BUDGET = 10**6


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
        if _exact(self.epsilon, "epsilon") <= 0:
            raise ValueError("epsilon must be positive")
        if self.lipschitz is not None and _exact(self.lipschitz, "lipschitz") <= 0:
            raise ValueError("lipschitz bound must be positive")
        if _count(self.branching, "branching") < 2:
            raise ValueError("branching must be at least 2")
        if _count(self.max_rounds, "max_rounds") < 1:
            raise ValueError("max_rounds must be at least 1")
        if self.mode not in get_args(Mode):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "single_grid" and self.lipschitz is None:
            raise ValueError("single_grid mode requires a declared Lipschitz bound")


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
        _exact(self.lo, "lo")
        _exact(self.hi, "hi")
        _exact(self.g_lo, "g_lo")
        _exact(self.g_hi, "g_hi")
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
        return Fraction(self.lo + self.hi, 2)


FixPointResult = Union[ExactVertex, CertifiedBracket]


def residual(f: Function, x: Fraction) -> Fraction:
    """Exact residual g(x) = f(x) - x, zero exactly at fixed points; x must be exact."""
    return as_function(f)(_exact(x, "x")) - x


def archimedean_n(delta: Fraction, a: Fraction, b: Fraction) -> int:
    """Smallest positive integer n with (b - a) < n * delta, exactly.

    Raises TypeError unless delta, a and b are exact (the rule in rationals).
    """
    if _exact(delta, "delta") <= 0:
        raise ValueError("delta must be positive")
    if not _exact(a, "a") < _exact(b, "b"):
        raise ValueError("requires a < b")
    return (b - a) // delta + 1


def residual_bound(bracket: CertifiedBracket, lipschitz: Fraction) -> Fraction:
    """Midpoint residual bound (L+1) * width / 2.

    g inherits Lipschitz constant L+1 from f, so |g(midpoint)| is at most
    this value provided f genuinely satisfies the declared bound over the
    real interval. A false declaration voids the claim (the sign evidence
    in the bracket itself remains exact either way). Raises TypeError unless
    lipschitz is exact (the rule in rationals).
    """
    if _exact(lipschitz, "lipschitz") <= 0:
        raise ValueError("lipschitz bound must be positive")
    return Fraction((lipschitz + 1) * bracket.width, 2)


def solve(
    f: Function, a: Fraction, b: Fraction, config: SolverConfig = SolverConfig()
) -> FixPointResult:
    """Locate a fixed point of f on [a, b] with exact evidence.

    Returns ExactVertex when some examined grid vertex is exactly fixed,
    otherwise a CertifiedBracket: the last result of refine_rounds and the
    only bracket the solve builds. Raises as refine_rounds does.
    """
    for item in _rounds(f, a, b, config):
        pass
    return _result(item)


def refine_rounds(
    f: Function, a: Fraction, b: Fraction, config: SolverConfig
) -> Iterator[FixPointResult]:
    """A solve in either mode as a stream: one result per round, the last is final.

    First yields [a, b] itself as the round-0 bracket, then the bracket
    after each round, with rounds_used set to the round and converged to
    whether the width target is met; a single_grid solve has one round, so
    it yields round 0 and its final result. An exactly fixed endpoint or
    queried vertex is yielded as ExactVertex and ends the stream. Raises
    TypeError when a value of f is not exact (the rule in rationals); on the
    first next(), also when a or b is not (before f is evaluated), ValueError
    unless a < b or when a single_grid grid exceeds SINGLE_GRID_BUDGET, and
    NonSelfMapError when the endpoint residuals show f escaping [a, b].
    """
    result = None
    for item in _rounds(f, a, b, config):
        yield (result := _result(item, result))


def _result(item, last: CertifiedBracket | None = None) -> FixPointResult:
    """The result an item of _rounds stands for, reusing last's residuals at kept ends."""
    if isinstance(item, ExactVertex):
        return item
    lo, hi, f_lo, f_hi, rounds, converged = item
    g_lo = last.g_lo if last is not None and last.lo is lo else f_lo - lo
    g_hi = last.g_hi if last is not None and last.hi is hi else f_hi - hi
    return CertifiedBracket(lo, hi, g_lo, g_hi, rounds_used=rounds, converged=converged)


def _sign(x, y) -> int:
    """The sign of y - x as an integer; y = f(x) must be exact."""
    return _exact(y, "f({})", x).numerator * x.denominator - x.numerator * y.denominator


def _rounds(f: Function, a: Fraction, b: Fraction, config: SolverConfig):
    """The one probe loop: refine_rounds with each bracket a tuple (lo, hi,
    f(lo), f(hi), round, converged), in which a kept end is the same object."""
    if not _exact(a, "a") < _exact(b, "b"):
        raise ValueError("requires a < b")
    fn = as_function(f)
    f_lo, f_hi = fn(a), fn(b)
    s_lo, s_hi = _sign(a, f_lo), _sign(b, f_hi)
    # Endpoints in scan order, matching label_by_sign on the same grid.
    if s_lo == 0:
        yield ExactVertex(a)
        return
    if s_lo < 0:
        raise NonSelfMapError(f"f({a}) < {a}: map does not self-map the interval")
    if s_hi == 0:
        yield ExactVertex(b)
        return
    if s_hi > 0:
        raise NonSelfMapError(f"f({b}) > {b}: map does not self-map the interval")
    scan = config.mode == "single_grid"
    k = config.branching
    if scan:
        # One round of k parts, with spacing below delta and delta capped
        # strictly below epsilon.
        cap = config.epsilon * (1 - Fraction(1, k))
        k = archimedean_n(min(Fraction(config.epsilon, config.lipschitz), cap), a, b)
        if k > SINGLE_GRID_BUDGET:
            raise ValueError(
                f"a single_grid scan of {k} edges exceeds the budget of {SINGLE_GRID_BUDGET} edges"
            )
    width = b - a
    # Vertex i of make_uniform_grid(a, b, parts) is one Fraction
    # (base * parts + i * scale) / (den * parts) from integers fixed here.
    base = a.numerator * width.denominator
    scale = width.numerator * a.denominator
    den = a.denominator * width.denominator
    # After r rounds the bracket is [vertex index, vertex index + 1] of
    # parts = k**r, and it is converged when width / parts <= t.
    t = config.epsilon
    if config.lipschitz is not None:
        t = Fraction(2 * t, config.lipschitz + 1)
    width_t = width.numerator * t.denominator
    t_width = t.numerator * width.denominator
    lo, hi = a, b
    index, parts, rounds = 0, 1, 0
    while True:
        # single_grid ends after its one round, which meets the width test:
        # its spacing is below delta <= 2 * epsilon / (L+1) = t (epsilon/L <= t
        # when L >= 1; epsilon * (1 - 1/branching) < epsilon < t when L < 1).
        met = rounds > 0 if scan else width_t <= t_width * parts
        yield lo, hi, f_lo, f_hi, rounds, met
        if met or rounds == config.max_rounds:
            return
        # Search the vertex indices 0..k of make_uniform_grid(lo, hi, k),
        # keeping label 0 (g > 0) at left and label 1 (g < 0) at right; refine
        # bisects, single_grid probes from the left up to the first g <= 0.
        index, parts = index * k, parts * k
        left, right = 0, k
        while right - left > 1:
            m = left + 1 if scan else (left + right) // 2
            x = Fraction(base * parts + (index + m) * scale, den * parts)
            s = _sign(x, y := fn(x))
            if s == 0:
                yield ExactVertex(x)
                return
            if s > 0:
                left, lo, f_lo = m, x, y
            else:
                right, hi, f_hi = m, x, y
        index += left
        rounds += 1
