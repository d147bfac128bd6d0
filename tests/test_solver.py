import random
from fractions import Fraction

import pytest

from conftest import LIPSCHITZ_CORPUS, gen_expr
from spernerfix import solver as solver_module
from spernerfix.expr import Add, Const, Mul, Sub, Var, evaluate, parse
from spernerfix.solver import (
    SINGLE_GRID_BUDGET,
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
    find_transition_scan,
    label_by_sign,
    make_uniform_grid,
)

EQ2 = parse("ifneg(x*x - 2, 2, 1)")



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

    @pytest.mark.parametrize(
        "args, name",
        [((0.1, 0, 1), "delta"), ((Fraction(1, 10), 0.0, 1), "a"), ((Fraction(1, 10), 0, 1.0), "b")],
    )
    def test_refuses_inexact_arguments(self, args, name):
        with pytest.raises(TypeError) as exc:
            archimedean_n(*args)
        assert str(exc.value).startswith(f"{name} must be an int or a Fraction, not ")

    def test_int_endpoints(self):
        assert archimedean_n(Fraction(1, 10), 0, 1) == 11


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

    @pytest.mark.parametrize(
        "field,value",
        [
            ("epsilon", 0.001),
            ("epsilon", True),
            ("lipschitz", 0.5),
            ("lipschitz", True),
            ("branching", 2.5),
            ("branching", True),
            ("branching", Fraction(2)),
            ("max_rounds", 2.5),
            ("max_rounds", True),
        ],
    )
    def test_config_field_types(self, field, value):
        # a float epsilon or lipschitz failed mid-solve, and max_rounds=2.5
        # never ended a solve
        with pytest.raises(TypeError, match=f"^{field} must be "):
            SolverConfig(**{field: value})

    def test_config_accepts_int_rationals(self):
        config = SolverConfig(epsilon=1, lipschitz=3, mode="single_grid")
        as_fractions = SolverConfig(
            epsilon=Fraction(1), lipschitz=Fraction(3), mode="single_grid"
        )
        # delta = 1/3 exactly, not the float 1/3: the grid is i/4
        f = parse("(1 - x)/2")
        result = solve(f, Fraction(0), Fraction(1), config)
        assert result == CertifiedBracket(
            Fraction(1, 4), Fraction(1, 2), Fraction(1, 8), Fraction(-1, 4), rounds_used=1
        )
        assert result == solve(f, Fraction(0), Fraction(1), as_fractions)

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

    def test_int_bracket_midpoint_and_bound_are_fractions(self):
        # the round-0 bracket of int endpoints has int ends and width
        bracket = next(refine_rounds(parse("1 - x/3"), 0, 1, SolverConfig()))
        assert (bracket.lo, bracket.hi) == (0, 1)
        midpoint, bound = bracket.midpoint, residual_bound(bracket, 2)
        assert type(midpoint) is Fraction and midpoint == Fraction(1, 2)
        assert type(bound) is Fraction and bound == Fraction(3, 2)


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
        # single_grid is one round of the same stream (refine yields 11 items here)
        config = SolverConfig(
            epsilon=Fraction(1, 1000), lipschitz=Fraction(1, 2), mode="single_grid"
        )
        stream = list(refine_rounds(f, Fraction(0), Fraction(1), config))
        assert stream == [
            CertifiedBracket(
                Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1, 4),
                rounds_used=0, converged=False,
            ),
            solve(f, Fraction(0), Fraction(1), config),
        ]
        assert stream[-1].rounds_used == 1 and stream[-1].converged

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


    def single_grid_cases(self):
        for f, a, b, lips, _ in LIPSCHITZ_CORPUS:
            for epsilon in (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000)):
                for k in (2, 3):
                    config = SolverConfig(
                        epsilon=epsilon, lipschitz=lips, branching=k, mode="single_grid"
                    )
                    yield f, a, b, config

    def test_matches_eager_reference(self):
        for f, a, b, config in self.single_grid_cases():
            assert solve(f, a, b, config) == eager_single_grid(f, a, b, config)

    def test_readme_map_costs_1175_evaluations(self):
        f = Counted(parse("(x*x + 2)/4"))
        config = SolverConfig(
            epsilon=Fraction(1, 1000), lipschitz=Fraction(1, 2), mode="single_grid"
        )
        result = solve(f, Fraction(0), Fraction(1), config)
        assert result == CertifiedBracket(
            Fraction(1172, 2001),
            Fraction(17, 29),
            Fraction(449, 8008002),
            Fraction(-1, 3364),
            rounds_used=1,
        )
        # both endpoints, then vertices 1..1173 of the 2001-edge grid
        assert len(f.points) == len(set(f.points)) == 1175

    def test_scan_stops_at_first_transition(self):
        # epsilon 4/39 and L = 1 give the grid i/20. The first transition is
        # [3/10, 7/20] around 1/3; the vertex 1/2 after it is exactly fixed,
        # and 3/4 divides by zero. Neither is evaluated.
        config = SolverConfig(
            epsilon=Fraction(4, 39), lipschitz=Fraction(1), mode="single_grid"
        )
        a, b = Fraction(0), Fraction(1)
        bracket = (Fraction(3, 10), Fraction(7, 20))
        fixed_later = parse("x + (1/3 - x)*(1/2 - x)*(3/4 - x)")
        assert eager_single_grid(fixed_later, a, b, config) == ExactVertex(Fraction(1, 2))
        result = solve(fixed_later, a, b, config)
        assert (result.lo, result.hi) == bracket
        undefined_later = parse("x + (1/3 - x) + 0/(4*x - 3)")
        with pytest.raises(ZeroDivisionError):
            eager_single_grid(undefined_later, a, b, config)
        result = solve(undefined_later, a, b, config)
        assert (result.lo, result.hi) == bracket

    def test_budget_boundary(self, monkeypatch):
        # The README map at epsilon 1/1000, L = 1/2 needs 2001 edges.
        config = SolverConfig(
            epsilon=Fraction(1, 1000), lipschitz=Fraction(1, 2), mode="single_grid"
        )
        f, a, b = parse("(x*x + 2)/4"), Fraction(0), Fraction(1)
        monkeypatch.setattr(solver_module, "SINGLE_GRID_BUDGET", 2001)
        assert isinstance(solve(f, a, b, config), CertifiedBracket)
        monkeypatch.setattr(solver_module, "SINGLE_GRID_BUDGET", 2000)
        with pytest.raises(ValueError, match="2001 edges exceeds the budget of 2000 edges"):
            solve(f, a, b, config)

    def test_rejects_over_budget_before_scanning(self):
        # 2*10**12 + 1 edges; only the endpoints may be evaluated.
        def endpoints_only(x):
            if x not in (0, 1):
                raise AssertionError(f"evaluated the interior vertex {x}")
            return (x * x + 2) / 4

        config = SolverConfig(
            epsilon=Fraction(1, 10**12), lipschitz=Fraction(1), mode="single_grid"
        )
        assert SINGLE_GRID_BUDGET == 10**6
        with pytest.raises(ValueError, match="2000000000001 edges exceeds the budget"):
            solve(endpoints_only, Fraction(0), Fraction(1), config)


class TestSingleGridRound:
    """single_grid as one round of refine_rounds over its grid, probed from
    the left."""

    def test_requires_lipschitz_before_any_evaluation(self):
        def never(x):
            raise RuntimeError(f"evaluated f at {x}")

        with pytest.raises(ValueError, match="single_grid mode requires a declared Lipschitz"):
            solve(never, Fraction(0), Fraction(1), SolverConfig(mode="single_grid"))

    def test_one_edge_grid(self):
        # epsilon 4 and L = 1 give delta = 2 and n = 1: no interior vertex
        config = SolverConfig(epsilon=Fraction(4), lipschitz=Fraction(1), mode="single_grid")
        f = Counted(parse("1 - x"))
        assert solve(f, Fraction(0), Fraction(1), config) == CertifiedBracket(
            Fraction(0), Fraction(1), Fraction(1), Fraction(-1), rounds_used=1, converged=True
        )
        assert f.points == [0, 1]

    def test_scans_where_refine_is_met_at_round_0(self):
        # epsilon 1 and L = 1: [0, 1] already meets refine's width target, but
        # single_grid still scans its grid i/3 (delta = 1/2)
        f, a, b = parse("1 - x"), Fraction(0), Fraction(1)
        config = SolverConfig(epsilon=Fraction(1), lipschitz=Fraction(1), mode="single_grid")
        result = solve(f, a, b, config)
        assert (result.lo, result.hi, result.rounds_used, result.converged) == (
            Fraction(1, 3), Fraction(2, 3), 1, True
        )
        refined = solve(f, a, b, SolverConfig(epsilon=Fraction(1), lipschitz=Fraction(1)))
        assert (refined.lo, refined.hi, refined.rounds_used) == (a, b, 0)


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

    def test_refuses_a_float_lipschitz(self):
        # the bound was the float 0.75; it is exact or refused
        b = CertifiedBracket(Fraction(0), Fraction(1), Fraction(1), Fraction(-1), 1)
        with pytest.raises(TypeError) as exc:
            residual_bound(b, 0.5)
        assert str(exc.value) == "lipschitz must be an int or a Fraction, not 0.5"


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


def eager_single_grid(f, a, b, config):
    """Reference single_grid mode: label every vertex of the grid, then scan."""
    cap = config.epsilon * (1 - Fraction(1, config.branching))
    n = archimedean_n(min(config.epsilon / config.lipschitz, cap), a, b)
    grid = make_uniform_grid(a, b, n)
    labeled = label_by_sign(grid, f)
    if isinstance(labeled, ExactVertex):
        return labeled
    i = find_transition_scan(labeled)
    lo, hi = grid.vertices[i - 1], grid.vertices[i]
    return CertifiedBracket(lo, hi, residual(f, lo), residual(f, hi), rounds_used=1)


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


def fraction_step_rounds(f, a, b, config):
    """Reference refine stream with the bracket kept as Fractions: each round
    queries lo + m * step with step = (hi - lo) / k."""
    if not a < b:
        raise ValueError("requires a < b")
    g_lo, g_hi = residual(f, a), residual(f, b)
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

    def met(width):
        if config.lipschitz is not None:
            return (config.lipschitz + 1) * width / 2 <= config.epsilon
        return width <= config.epsilon

    k = config.branching
    lo, hi = a, b
    rounds = 0
    while True:
        yield CertifiedBracket(lo, hi, g_lo, g_hi, rounds_used=rounds, converged=met(hi - lo))
        if met(hi - lo) or rounds == config.max_rounds:
            return
        step = Fraction(hi - lo, k)
        i, j = 0, k
        while j - i > 1:
            m = (i + j) // 2
            x = lo + m * step
            g = residual(f, x)
            if g == 0:
                yield ExactVertex(x)
                return
            if g > 0:
                i, g_lo = m, g
            else:
                j, g_hi = m, g
        lo, hi = lo + i * step, lo + j * step
        rounds += 1


def drain(stream):
    """Every item of a stream, and the exception that ended it, as text."""
    items = []
    try:
        for item in stream:
            items.append(item)
    except (ArithmeticError, ValueError) as exc:
        return items, f"{type(exc).__name__}: {exc}"
    return items, None


def seeded_interval_maps(seed, count, a, b):
    """x + (c - x) + h(x) * (x - a) * (b - x) with c a third of the way into
    [a, b] and random h: g(a) = c - a > 0 and g(b) = c - b < 0 unless h
    divides by zero there."""
    rng = random.Random(seed)
    c = Const((2 * a + b) / 3)
    for _ in range(count):
        bump = Mul(gen_expr(rng, 4), Mul(Sub(Var(), Const(a)), Sub(Const(b), Var())))
        yield Add(Var(), Add(Sub(c, Var()), bump))


# 1/3 - x^2 as the residual: one irrational fixed point, 1/sqrt(3)
IRRATIONAL_ROOT = parse("x + 1/3 - x*x")
NON_DYADIC = (Fraction(-1, 3), Fraction(5, 7))


class TestRefineStreamAgainstFractionSteps:
    def cases(self):
        yield IRRATIONAL_ROOT, *NON_DYADIC
        yield EQ2, Fraction(1), Fraction(2)
        # fixed at 4/3, and a zero divisor at 3/2
        yield parse("x + (4/3 - x) + 1/(2*x - 3)*0"), Fraction(1), Fraction(2)
        yield parse("x + 5"), *NON_DYADIC  # not a self-map
        for seed, (a, b) in enumerate((NON_DYADIC, (Fraction(1), Fraction(2)))):
            for f in seeded_interval_maps(seed, 25, a, b):
                yield f, a, b

    def test_identical_streams(self):
        for f, a, b in self.cases():
            for k in (2, 3, 5, 16):
                for lips in (None, Fraction(1, 2), Fraction(3)):
                    config = SolverConfig(
                        epsilon=Fraction(1, 2**20), lipschitz=lips, branching=k, max_rounds=12
                    )
                    expected = drain(fraction_step_rounds(f, a, b, config))
                    assert drain(refine_rounds(f, a, b, config)) == expected

    def test_width_exactly_on_target_converges(self):
        a, b = NON_DYADIC
        for k in (2, 3, 5, 16):
            target = (b - a) / k**4  # the width after round 4
            for lips in (None, Fraction(1, 2), Fraction(3)):
                epsilon = target if lips is None else (lips + 1) * target / 2
                config = SolverConfig(epsilon=epsilon, lipschitz=lips, branching=k)
                items, error = drain(refine_rounds(IRRATIONAL_ROOT, a, b, config))
                assert (items, error) == drain(fraction_step_rounds(IRRATIONAL_ROOT, a, b, config))
                assert error is None
                assert [item.converged for item in items] == [False] * 4 + [True]
                assert items[-1].width == target


def never_called(x):
    raise AssertionError(f"f was evaluated at {x}")


def turns_float_inside(x):
    """(1 - x)/3 as a Fraction at 0 and 1, and as a float at every other x."""
    y = (1 - x) / 3
    return y if x in (0, 1) else float(y)


class TestRationalValuesOnly:
    @pytest.mark.parametrize(
        "a, b, message",
        [
            (0.0, 1.0, "a must be an int or a Fraction, not 0.0"),
            (Fraction(0), 1.0, "b must be an int or a Fraction, not 1.0"),
            (0.0, Fraction(1), "a must be an int or a Fraction, not 0.0"),
            (False, True, "a must be an int or a Fraction, not False"),
            ("0", "1", "a must be an int or a Fraction, not '0'"),
        ],
        ids=repr,
    )
    def test_endpoints_refused_before_any_evaluation(self, a, b, message):
        # a is named first, then b
        with pytest.raises(TypeError) as exc:
            solve(never_called, a, b)
        assert str(exc.value) == message
        with pytest.raises(TypeError) as exc:
            next(refine_rounds(never_called, a, b, SolverConfig()))
        assert str(exc.value) == message

    def test_float_endpoints_of_an_expression(self):
        with pytest.raises(TypeError) as exc:
            solve(parse("(1-x)/3"), 0.0, 1.0)
        assert str(exc.value) == "a must be an int or a Fraction, not 0.0"

    def test_int_endpoints_and_values_are_rational(self):
        f = parse("(1-x)/3")
        assert solve(f, 0, 1) == solve(f, Fraction(0), Fraction(1))
        assert solve(lambda x: 1, Fraction(0), Fraction(2)) == ExactVertex(Fraction(1))
        bracket = solve(lambda x: 1, Fraction(0), Fraction(3))
        assert isinstance(bracket, CertifiedBracket)
        assert bracket.g_lo == 1 - bracket.lo and bracket.g_hi == 1 - bracket.hi

    def test_float_value_at_an_endpoint(self):
        with pytest.raises(TypeError, match=r"f\(0\) must be an int or a Fraction, not 0\.333"):
            solve(lambda x: float(x * x + 1) / 3, Fraction(0), Fraction(1))
        with pytest.raises(TypeError, match=r"f\(1\) must be an int or a Fraction, not 0\.0"):
            solve(lambda x: (1 - x) / 3 if x == 0 else float(x - x), Fraction(0), Fraction(1))

    def test_float_value_at_an_interior_probe(self):
        message = r"f\(1/2\) must be an int or a Fraction, not 0\.1666"
        with pytest.raises(TypeError, match=message):
            solve(turns_float_inside, Fraction(0), Fraction(1))
        stream = refine_rounds(turns_float_inside, Fraction(0), Fraction(1), SolverConfig())
        assert next(stream) == CertifiedBracket(
            Fraction(0), Fraction(1), Fraction(1, 3), Fraction(-1), rounds_used=0, converged=False
        )
        with pytest.raises(TypeError, match=message):
            next(stream)

    def test_float_value_in_single_grid(self):
        config = SolverConfig(epsilon=Fraction(1, 10), lipschitz=Fraction(1, 3), mode="single_grid")
        with pytest.raises(TypeError, match=r"f\(1/21\) must be an int or a Fraction"):
            solve(turns_float_inside, Fraction(0), Fraction(1), config)


class CountingFraction(Fraction):
    """A Fraction that counts the subtractions it starts."""

    subtractions = 0

    def __sub__(self, other):
        CountingFraction.subtractions += 1
        return super().__sub__(other)


def counting(expr):
    """expr as a callable whose values count the subtractions they start."""
    return lambda x: CountingFraction(evaluate(expr, x))


class TestCostModel:
    """Signs are decided without residuals; a bracket is built, and its
    residuals subtracted, only when the caller receives it."""

    def cases(self):
        for k in (2, 3, 16):
            for f, a, b, lips, _ in LIPSCHITZ_CORPUS:
                yield f, a, b, SolverConfig(epsilon=Fraction(1, 2**24), lipschitz=lips, branching=k)
            for f in seeded_self_maps(k, 25):
                yield f, Fraction(0), Fraction(1), SolverConfig(epsilon=Fraction(1, 2**24), branching=k)

    def test_solve_builds_one_bracket(self, monkeypatch):
        class Counting(CertifiedBracket):
            built = 0

            def __post_init__(self):
                Counting.built += 1
                super().__post_init__()

        monkeypatch.setattr(solver_module, "CertifiedBracket", Counting)
        brackets = 0
        for f, a, b, config in self.cases():
            Counting.built = 0
            result = outcome(lambda: solve(f, a, b, config))
            if isinstance(result, CertifiedBracket):
                brackets += 1
                assert result.rounds_used > 0
                assert Counting.built == 1
            else:
                assert Counting.built == 0
        assert brackets > 50

    def test_subtractions_only_for_new_ends(self):
        streams = 0
        for f, a, b, config in self.cases():
            counted = counting(f)
            CountingFraction.subtractions = 0
            result = outcome(lambda: solve(counted, a, b, config))
            if not isinstance(result, CertifiedBracket):
                continue
            assert CountingFraction.subtractions == 2
            CountingFraction.subtractions = 0
            items = list(refine_rounds(counted, a, b, config))
            new_ends = sum(
                (now.lo != before.lo) + (now.hi != before.hi)
                for before, now in zip(items, items[1:])
            )
            assert CountingFraction.subtractions == 2 + new_ends
            if config.branching == 2:
                assert new_ends == items[-1].rounds_used
            streams += 1
        assert streams > 50

    def test_every_yielded_residual_recomputed(self):
        brackets = 0
        for f, a, b, config in self.cases():
            items, _ = drain(refine_rounds(f, a, b, config))
            for item in items:
                if isinstance(item, CertifiedBracket):
                    assert item.g_lo == residual(f, item.lo) > 0
                    assert item.g_hi == residual(f, item.hi) < 0
                    brackets += 1
        assert brackets > 500
