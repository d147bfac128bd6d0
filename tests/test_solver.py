import random
from fractions import Fraction

import pytest

from conftest import gen_expr
from spernerfix.expr import Add, Const, Mul, Sub, Var, evaluate, parse
from spernerfix.solver import (
    CertifiedBracket,
    SolverConfig,
    archimedean_n,
    refine_rounds,
    residual,
    residual_bound,
    solve,
)
from spernerfix.sperner import (
    ExactVertex,
    NonSelfMapError,
    find_transition_bisect,
    label_by_sign,
    make_uniform_grid,
)

EQ2 = parse("ifneg(x*x - 2, 2, 1)")

# Self-maps with a unique fixed point and a hand-derived Lipschitz bound:
# (expression, a, b, L, exact fixed point or None when irrational)
LIPSCHITZ_CORPUS = [
    (parse("(x + 1)/2"), Fraction(0), Fraction(2), Fraction(1, 2), Fraction(1)),
    (parse("1 - x/3"), Fraction(0), Fraction(1), Fraction(1, 3), Fraction(3, 4)),
    (parse("(x*x + 2)/4"), Fraction(0), Fraction(1), Fraction(1, 2), None),
]


def contains_fixed_point(bracket, expr, exact):
    """Exact containment check; the quadratic's fixed point 2 - sqrt(2) is
    checked by squaring."""
    if exact is not None:
        return bracket.lo < exact < bracket.hi
    assert expr is LIPSCHITZ_CORPUS[2][0]
    return (2 - bracket.lo) ** 2 > 2 > (2 - bracket.hi) ** 2


class TestResidual:
    def test_at_left_endpoint(self):
        assert residual(parse("1 - x"), Fraction(0)) == Fraction(1)

    def test_at_fixed_point(self):
        assert residual(parse("1 - x"), Fraction(1, 2)) == Fraction(0)

    def test_step_function(self):
        assert residual(EQ2, Fraction(3, 2)) == Fraction(-1, 2)


class TestArchimedean:
    def test_examples(self):
        assert archimedean_n(Fraction(1, 3), Fraction(0), Fraction(1)) == 4
        assert archimedean_n(Fraction(2), Fraction(0), Fraction(1)) == 1
        assert archimedean_n(Fraction(1, 10), Fraction(1), Fraction(2)) == 11

    def test_exact_multiple(self):
        # (b - a) = 3 * delta exactly requires n = 4 for strict inequality
        assert archimedean_n(Fraction(1, 2), Fraction(0), Fraction(3, 2)) == 4

    def test_minimality_property(self):
        rng = random.Random(11)
        for _ in range(300):
            delta = Fraction(rng.randint(1, 40), rng.randint(1, 40))
            a = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
            b = a + Fraction(rng.randint(1, 80), rng.randint(1, 12))
            n = archimedean_n(delta, a, b)
            assert b - a < n * delta
            assert b - a >= (n - 1) * delta

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            archimedean_n(Fraction(0), Fraction(0), Fraction(1))
        with pytest.raises(ValueError):
            archimedean_n(Fraction(1), Fraction(1), Fraction(1))


class TestConfigAndBracketInvariants:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(epsilon=Fraction(0))
        with pytest.raises(ValueError):
            SolverConfig(lipschitz=Fraction(-1))
        with pytest.raises(ValueError):
            SolverConfig(branching=1)
        with pytest.raises(ValueError):
            SolverConfig(max_rounds=0)
        with pytest.raises(ValueError):
            SolverConfig(mode="newton")

    def test_bracket_validation(self):
        with pytest.raises(ValueError):
            CertifiedBracket(Fraction(1), Fraction(0), Fraction(1), Fraction(-1), 0)
        with pytest.raises(ValueError):
            CertifiedBracket(Fraction(0), Fraction(1), Fraction(0), Fraction(-1), 0)
        with pytest.raises(ValueError):
            CertifiedBracket(Fraction(0), Fraction(1), Fraction(1), Fraction(0), 0)

    def test_bracket_properties(self):
        bracket = CertifiedBracket(
            Fraction(0), Fraction(1, 2), Fraction(1), Fraction(-1), 3
        )
        assert bracket.width == Fraction(1, 2)
        assert bracket.midpoint == Fraction(1, 4)


class TestSolveRefine:
    def test_symmetry_exact_vertex(self):
        result = solve(parse("1 - x"), Fraction(0), Fraction(1))
        assert result == ExactVertex(Fraction(1, 2))

    def test_affine_exact_vertex_on_midpoint_grid(self):
        # branching 2 puts a grid vertex exactly on the fixed point 1
        config = SolverConfig(epsilon=Fraction(1, 1000), lipschitz=Fraction(1, 2))
        result = solve(parse("(x + 1)/2"), Fraction(0), Fraction(2), config)
        assert result == ExactVertex(Fraction(1))

    def test_affine_bracket_with_branching_3(self):
        # vertices 2m/3^r never hit 1, so this always brackets
        config = SolverConfig(
            epsilon=Fraction(1, 1000), lipschitz=Fraction(1, 2), branching=3
        )
        result = solve(parse("(x + 1)/2"), Fraction(0), Fraction(2), config)
        assert isinstance(result, CertifiedBracket)
        assert result.converged
        assert result.lo < 1 < result.hi
        assert residual_bound(result, Fraction(1, 2)) <= Fraction(1, 1000)

    def test_quadratic_bracket(self):
        f = parse("(x*x + 2)/4")
        config = SolverConfig(epsilon=Fraction(1, 10**6), lipschitz=Fraction(1, 2))
        result = solve(f, Fraction(0), Fraction(1), config)
        assert isinstance(result, CertifiedBracket)
        assert result.converged
        # 2 - sqrt(2) inside, verified by exact squaring
        assert (2 - result.lo) ** 2 > 2 > (2 - result.hi) ** 2
        assert (Fraction(1, 2) + 1) * result.width / 2 <= Fraction(1, 10**6)

    def test_identity_endpoint_exact(self):
        result = solve(parse("x"), Fraction(0), Fraction(1))
        assert result == ExactVertex(Fraction(0))

    def test_non_self_map(self):
        with pytest.raises(NonSelfMapError):
            solve(parse("x + 1"), Fraction(0), Fraction(1))
        with pytest.raises(NonSelfMapError):
            solve(parse("x - 1"), Fraction(0), Fraction(1))

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            solve(parse("x"), Fraction(1), Fraction(0))

    def test_unconverged_tagged_not_raised(self):
        config = SolverConfig(epsilon=Fraction(1, 10**9), max_rounds=3)
        result = solve(EQ2, Fraction(1), Fraction(2), config)
        assert isinstance(result, CertifiedBracket)
        assert not result.converged
        assert result.rounds_used == 3
        assert result.width == Fraction(1, 8)

    def test_bracket_soundness_recomputed(self):
        for f, a, b, lips, _ in LIPSCHITZ_CORPUS:
            config = SolverConfig(
                epsilon=Fraction(1, 10**6), lipschitz=lips, branching=3
            )
            result = solve(f, a, b, config)
            if isinstance(result, ExactVertex):
                assert residual(f, result.x) == 0
                continue
            assert residual(f, result.lo) == result.g_lo > 0
            assert residual(f, result.hi) == result.g_hi < 0

    def test_monotone_shrinkage(self):
        f = parse("(x*x + 2)/4")
        for branching in (2, 3, 5):
            config = SolverConfig(
                epsilon=Fraction(1, 10**4), lipschitz=Fraction(1, 2), branching=branching
            )
            result = solve(f, Fraction(0), Fraction(1), config)
            assert isinstance(result, CertifiedBracket)
            assert result.width == Fraction(1, branching**result.rounds_used)

    def test_width_already_small_returns_immediately(self):
        config = SolverConfig(epsilon=Fraction(2))
        result = solve(EQ2, Fraction(1), Fraction(2), config)
        assert isinstance(result, CertifiedBracket)
        assert result.rounds_used == 0
        assert (result.lo, result.hi) == (Fraction(1), Fraction(2))

    def test_refine_rounds_stream(self):
        f = parse("(x*x + 2)/4")
        config = SolverConfig(
            epsilon=Fraction(1, 10**4), lipschitz=Fraction(1, 2), branching=3
        )
        stream = list(refine_rounds(f, Fraction(0), Fraction(1), config))
        assert (stream[0].lo, stream[0].hi, stream[0].rounds_used) == (0, 1, 0)
        for depth, (prev, cur) in enumerate(zip(stream, stream[1:]), 1):
            assert cur.rounds_used == depth
            assert prev.lo <= cur.lo < cur.hi <= prev.hi
            assert cur.width == prev.width / 3
            assert cur.converged == (cur is stream[-1])
        assert stream[-1] == solve(f, Fraction(0), Fraction(1), config)

    def test_conditional_residual_claim(self):
        for f, a, b, lips, _ in LIPSCHITZ_CORPUS:
            config = SolverConfig(
                epsilon=Fraction(1, 10**5), lipschitz=lips, branching=3
            )
            result = solve(f, a, b, config)
            if isinstance(result, ExactVertex):
                continue
            assert abs(residual(f, result.midpoint)) <= residual_bound(result, lips)


class TestSolveSingleGrid:
    def test_requires_lipschitz(self):
        with pytest.raises(ValueError):
            solve(
                parse("1 - x"),
                Fraction(0),
                Fraction(1),
                SolverConfig(mode="single_grid"),
            )

    def test_grid_spacing_below_delta(self):
        f, a, b, lips, _ = LIPSCHITZ_CORPUS[2]
        epsilon = Fraction(1, 100)
        config = SolverConfig(epsilon=epsilon, lipschitz=lips, mode="single_grid")
        result = solve(f, a, b, config)
        assert isinstance(result, CertifiedBracket)
        delta = min(epsilon / lips, epsilon * Fraction(1, 2))
        assert result.width < delta < epsilon

    def test_agreement_with_refine(self):
        epsilon = Fraction(1, 100)
        for f, a, b, lips, exact in LIPSCHITZ_CORPUS:
            single = solve(
                f, a, b, SolverConfig(epsilon=epsilon, lipschitz=lips, mode="single_grid")
            )
            refined = solve(f, a, b, SolverConfig(epsilon=epsilon, lipschitz=lips))
            if isinstance(single, ExactVertex):
                single_interval = (single.x, single.x)
            else:
                single_interval = (single.lo, single.hi)
                assert contains_fixed_point(single, f, exact)
            if isinstance(refined, ExactVertex):
                assert single_interval[0] <= refined.x <= single_interval[1]
            else:
                assert contains_fixed_point(refined, f, exact)
                # interiors intersect around the unique fixed point
                assert max(single_interval[0], refined.lo) < min(
                    single_interval[1], refined.hi
                )


class TestResidualBound:
    def test_examples(self):
        b1 = CertifiedBracket(Fraction(0), Fraction(1, 100), Fraction(1), Fraction(-1), 1)
        assert residual_bound(b1, Fraction(1)) == Fraction(1, 100)
        b2 = CertifiedBracket(Fraction(0), Fraction(1, 8), Fraction(1), Fraction(-1), 1)
        assert residual_bound(b2, Fraction(3)) == Fraction(1, 4)

    def test_rejects_bad_lipschitz(self):
        b = CertifiedBracket(Fraction(0), Fraction(1), Fraction(1), Fraction(-1), 1)
        with pytest.raises(ValueError):
            residual_bound(b, Fraction(0))


class Counted:
    """f as a callable that records every point it is evaluated at."""

    def __init__(self, expr):
        self.expr = expr
        self.points = []

    def __call__(self, x):
        self.points.append(x)
        return evaluate(self.expr, x)


def ceil_log2(k):
    return (k - 1).bit_length()


def eager_solve(f, a, b, config):
    """Reference refine mode: label every vertex of each round's sub-grid."""
    g_a, g_b = residual(f, a), residual(f, b)
    if g_a == 0:
        return ExactVertex(a)
    if g_a < 0:
        raise NonSelfMapError("left endpoint escapes")
    if g_b == 0:
        return ExactVertex(b)
    if g_b > 0:
        raise NonSelfMapError("right endpoint escapes")
    lo, hi, g_lo, g_hi = a, b, g_a, g_b

    def met(width):
        if config.lipschitz is not None:
            return (config.lipschitz + 1) * width / 2 <= config.epsilon
        return width <= config.epsilon

    rounds = 0
    while not met(hi - lo) and rounds < config.max_rounds:
        grid = make_uniform_grid(lo, hi, config.branching)
        labeled = label_by_sign(grid, f)
        if isinstance(labeled, ExactVertex):
            return labeled
        i = find_transition_bisect(labeled)
        lo, hi = grid.vertices[i - 1], grid.vertices[i]
        g_lo, g_hi = residual(f, lo), residual(f, hi)
        rounds += 1
    return CertifiedBracket(lo, hi, g_lo, g_hi, rounds_used=rounds, converged=met(hi - lo))


def outcome(call):
    """A call's result, or the type of the exception it raised."""
    try:
        return call()
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


def seeded_self_maps(seed, count):
    """x + (1/2 - x) + h(x) * x * (1 - x) for random h: g(0) = 1/2 and
    g(1) = -1/2 unless h divides by zero there, with arbitrary sign
    changes and division by zero inside."""
    rng = random.Random(seed)
    half, one = Const(Fraction(1, 2)), Const(Fraction(1))
    for _ in range(count):
        bump = Mul(gen_expr(rng, 4), Mul(Var(), Sub(one, Var())))
        yield Add(Var(), Add(Sub(half, Var()), bump))


def assert_valid(f, a, b, result):
    if isinstance(result, ExactVertex):
        assert a <= result.x <= b
        assert residual(f, result.x) == 0
    else:
        assert isinstance(result, CertifiedBracket)
        assert a <= result.lo < result.hi <= b
        assert residual(f, result.lo) == result.g_lo > 0
        assert residual(f, result.hi) == result.g_hi < 0


class TestExactVertexContract:
    """Refine mode evaluates only the vertices its bisection queries, so at
    branching > 2 ExactVertex means some *queried* vertex is exactly fixed."""

    def test_queried_vertex_wins_over_unqueried(self):
        # fixed points 1/4 and 5/8; 1/4 is a vertex of the first 4-grid but
        # the bisection never queries it
        f = parse("x + (x - 1/4)*(x - 1/4)*(5/8 - x)")
        config = SolverConfig(branching=4)
        assert eager_solve(f, Fraction(0), Fraction(1), config) == ExactVertex(Fraction(1, 4))
        assert solve(f, Fraction(0), Fraction(1), config) == ExactVertex(Fraction(5, 8))

    def test_unqueried_vertex_is_never_evaluated(self):
        # division by zero at 1/4 only, fixed point 1/2
        f = parse("x + 1/(4*x - 1)*0 + (1/2 - x)")
        config = SolverConfig(branching=4)
        with pytest.raises(ZeroDivisionError):
            eager_solve(f, Fraction(0), Fraction(1), config)
        assert solve(f, Fraction(0), Fraction(1), config) == ExactVertex(Fraction(1, 2))


class TestEvaluationBudget:
    def test_readme_example_costs_22(self):
        for branching in (2, 16):
            f = Counted(parse("(x*x + 2)/4"))
            config = SolverConfig(
                epsilon=Fraction(1, 10**6), lipschitz=Fraction(1, 2), branching=branching
            )
            result = solve(f, Fraction(0), Fraction(1), config)
            assert isinstance(result, CertifiedBracket)
            assert len(f.points) == 22

    def test_ceil_log2_k_per_round_and_no_point_twice(self):
        cases = [(f, a, b) for f, a, b, _, _ in LIPSCHITZ_CORPUS] + [
            (EQ2, Fraction(1), Fraction(2))
        ]
        cases += [(f, Fraction(0), Fraction(1)) for f in seeded_self_maps(5, 40)]
        for expr, a, b in cases:
            for k in (2, 3, 5, 16):
                f = Counted(expr)
                config = SolverConfig(epsilon=Fraction(1, 2**30), branching=k)
                # evaluations made before each item of the stream, and at its end
                marks = []
                try:
                    for _ in refine_rounds(f, a, b, config):
                        marks.append(len(f.points))
                except (ZeroDivisionError, NonSelfMapError):
                    pass
                marks.append(len(f.points))
                assert marks[0] <= 2
                for before, after in zip(marks, marks[1:]):
                    assert after - before <= ceil_log2(k)
                assert len(set(f.points)) == len(f.points)

                f = Counted(expr)
                result = outcome(lambda: solve(f, a, b, config))
                if isinstance(result, CertifiedBracket):
                    budget = 2 + result.rounds_used * ceil_log2(k)
                    assert len(f.points) <= budget
                    if k in (2, 16):  # powers of two: every round costs exactly log2 k
                        assert len(f.points) == budget


class TestEquivalenceWithEagerReference:
    def cases(self):
        for f, a, b, lips, _ in LIPSCHITZ_CORPUS:
            yield f, a, b, lips
        yield EQ2, Fraction(1), Fraction(2), None
        # three fixed points, so a sub-grid can hold several transition
        # edges and the choice of edge depends on the bisection order
        yield parse("x + (2/7 - x)*(4/7 - x)*(5/7 - x)"), Fraction(0), Fraction(1), None
        for f in seeded_self_maps(29, 150):
            yield f, Fraction(0), Fraction(1), None
        rng = random.Random(31)
        for _ in range(50):
            yield gen_expr(rng, 4), Fraction(0), Fraction(1), None

    def test_identical_at_branching_2(self):
        for f, a, b, lips in self.cases():
            config = SolverConfig(epsilon=Fraction(1, 2**24), lipschitz=lips)
            expected = outcome(lambda: eager_solve(f, a, b, config))
            assert outcome(lambda: solve(f, a, b, config)) == expected

    def test_same_bracket_or_valid_result_above_branching_2(self):
        for f, a, b, lips in self.cases():
            for k in (3, 4, 5, 16):
                config = SolverConfig(epsilon=Fraction(1, 2**24), lipschitz=lips, branching=k)
                expected = outcome(lambda: eager_solve(f, a, b, config))
                got = outcome(lambda: solve(f, a, b, config))
                if isinstance(expected, CertifiedBracket) or expected is NonSelfMapError:
                    assert got == expected
                elif got is not ZeroDivisionError:
                    assert_valid(f, a, b, got)
