import random
import textwrap
from fractions import Fraction
from functools import partial
from itertools import product

import pytest

from conftest import run_python_O
from spernerfix.plmap import (
    DiscreteMap,
    FixedPointWitness,
    PLMap,
    discrete_from_labeling,
    pl_evaluate,
    pl_fixed_points,
    pl_from_discrete,
    pl_from_labeling,
    pl_trace,
    theorem_roundtrip,
)
from spernerfix.solver import CertifiedBracket, SolverConfig, solve
from spernerfix.sperner import ExactVertex, Grid, Labeling

UNIT_GRID_3 = Grid((Fraction(0), Fraction(1), Fraction(2)))


def boundary_respecting_labelings(n):
    for interior in product((0, 1), repeat=n - 1):
        yield Labeling((0, *interior, 1))


def integer_grid(n):
    return Grid(tuple(Fraction(i) for i in range(n + 1)))


def random_grid(rng, n):
    """Strictly increasing rational vertices with assorted denominators."""
    x = Fraction(rng.randint(-20, 20), rng.randint(1, 10))
    vertices = [x]
    for _ in range(n):
        x += Fraction(rng.randint(1, 30), rng.randint(1, 10))
        vertices.append(x)
    return Grid(tuple(vertices))


class TestDiscreteMap:
    def test_shift_rule(self):
        dmap = discrete_from_labeling(UNIT_GRID_3, Labeling((0, 0, 1)))
        assert dmap.target_index == (1, 2, 1)

    def test_minimal_swap(self):
        grid = Grid((Fraction(0), Fraction(1)))
        dmap = discrete_from_labeling(grid, Labeling((0, 1)))
        assert dmap.target_index == (1, 0)

    def test_alternating(self):
        grid = integer_grid(3)
        dmap = discrete_from_labeling(grid, Labeling((0, 1, 0, 1)))
        assert dmap.target_index == (1, 0, 3, 2)

    def test_closure_exhaustive(self):
        for n in range(1, 9):
            grid = integer_grid(n)
            for labeling in boundary_respecting_labelings(n):
                dmap = discrete_from_labeling(grid, labeling)
                assert all(0 <= t <= n for t in dmap.target_index)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            discrete_from_labeling(UNIT_GRID_3, Labeling((0, 1)))

    def test_rejects_non_adjacent_target(self):
        with pytest.raises(ValueError):
            DiscreteMap(UNIT_GRID_3, (2, 2, 1))

    def test_rejects_escaping_target(self):
        with pytest.raises(ValueError):
            DiscreteMap(UNIT_GRID_3, (-1, 0, 1))


class TestPLEvaluate:
    def test_interpolation(self):
        plmap = pl_from_discrete(DiscreteMap(UNIT_GRID_3, (1, 2, 1)))
        assert pl_evaluate(plmap, Fraction(1, 2)) == Fraction(3, 2)

    def test_vertex_hit_returns_vertex_value(self):
        plmap = pl_from_discrete(DiscreteMap(UNIT_GRID_3, (1, 2, 1)))
        for j, v in enumerate(UNIT_GRID_3.vertices):
            assert pl_evaluate(plmap, v) == plmap.value_at_vertex[j]

    def test_swap_map(self):
        grid = Grid((Fraction(0), Fraction(1)))
        plmap = pl_from_labeling(grid, Labeling((0, 1)))
        assert pl_evaluate(plmap, Fraction(1, 4)) == Fraction(3, 4)

    def test_out_of_domain(self):
        plmap = pl_from_discrete(DiscreteMap(UNIT_GRID_3, (1, 2, 1)))
        with pytest.raises(ValueError):
            pl_evaluate(plmap, Fraction(-1))
        with pytest.raises(ValueError):
            pl_evaluate(plmap, Fraction(5, 2))

    def test_range_stays_in_domain(self):
        rng = random.Random(3)
        for _ in range(50):
            grid = random_grid(rng, rng.randint(1, 8))
            labeling = Labeling(
                (0, *(rng.randint(0, 1) for _ in range(grid.n - 1)), 1)
            )
            plmap = pl_from_labeling(grid, labeling)
            lo, hi = grid.vertices[0], grid.vertices[-1]
            span = hi - lo
            for _ in range(20):
                x = lo + span * Fraction(rng.randint(0, 64), 64)
                assert lo <= pl_evaluate(plmap, x) <= hi

    def test_plmap_value_validation(self):
        with pytest.raises(ValueError):
            PLMap(UNIT_GRID_3, (Fraction(1), Fraction(1, 2), Fraction(1)))
        with pytest.raises(ValueError):
            PLMap(UNIT_GRID_3, (Fraction(1), Fraction(2)))


class TestPLFixedPoints:
    def test_example(self):
        plmap = pl_from_labeling(UNIT_GRID_3, Labeling((0, 0, 1)))
        assert pl_fixed_points(plmap) == [Fraction(3, 2)]

    def test_swap_midpoint(self):
        grid = Grid((Fraction(0), Fraction(1)))
        plmap = pl_from_labeling(grid, Labeling((0, 1)))
        assert pl_fixed_points(plmap) == [Fraction(1, 2)]

    def test_alternating_midpoints(self):
        plmap = pl_from_labeling(integer_grid(3), Labeling((0, 1, 0, 1)))
        assert pl_fixed_points(plmap) == [
            Fraction(1, 2),
            Fraction(3, 2),
            Fraction(5, 2),
        ]

    def test_fixed_points_verified_by_evaluation(self):
        rng = random.Random(5)
        for _ in range(50):
            grid = random_grid(rng, rng.randint(1, 8))
            labeling = Labeling(
                (0, *(rng.randint(0, 1) for _ in range(grid.n - 1)), 1)
            )
            plmap = pl_from_labeling(grid, labeling)
            points = pl_fixed_points(plmap)
            assert points
            for p in points:
                assert pl_evaluate(plmap, p) == p


class TestEdgeResidualSigns:
    def test_monochromatic_repulsion_and_hetero_attraction(self):
        # A linear function with like signs at both endpoints keeps that sign
        # on the whole edge; opposite strict signs force one interior root.
        for n in range(1, 9):
            grid = integer_grid(n)
            for labeling in boundary_respecting_labelings(n):
                plmap = pl_from_labeling(grid, labeling)
                labels = labeling.labels
                for k in range(1, n + 1):
                    r_left = plmap.value_at_vertex[k - 1] - grid.vertices[k - 1]
                    r_right = plmap.value_at_vertex[k] - grid.vertices[k]
                    if labels[k - 1] == labels[k] == 0:
                        assert r_left > 0 and r_right > 0
                    elif labels[k - 1] == labels[k] == 1:
                        assert r_left < 0 and r_right < 0
                    elif (labels[k - 1], labels[k]) == (0, 1):
                        edge = grid.vertices[k] - grid.vertices[k - 1]
                        assert (r_left, r_right) == (edge, -edge)
                    else:
                        assert r_left < 0 < r_right


class TestTheoremRoundtrip:
    def test_example_witness(self):
        witnesses = theorem_roundtrip(UNIT_GRID_3, Labeling((0, 0, 1)))
        assert witnesses == [
            FixedPointWitness(Fraction(3, 2), 2, (0, 1))
        ]

    def test_exhaustive_uniform(self):
        for n in range(1, 9):
            grid = integer_grid(n)
            for labeling in boundary_respecting_labelings(n):
                witnesses = theorem_roundtrip(grid, labeling)
                hetero = sum(
                    1
                    for k in range(1, n + 1)
                    if labeling.labels[k - 1] != labeling.labels[k]
                )
                assert len(witnesses) == hetero
                for w in witnesses:
                    assert w.edge_labels in ((0, 1), (1, 0))

    def test_random_non_uniform_grids(self):
        rng = random.Random(12)
        for _ in range(60):
            n = rng.randint(1, 10)
            grid = random_grid(rng, n)
            labeling = Labeling((0, *(rng.randint(0, 1) for _ in range(n - 1)), 1))
            theorem_roundtrip(grid, labeling)

    def test_uniform_grid_midpoint_law(self):
        rng = random.Random(9)
        for _ in range(40):
            n = rng.randint(1, 10)
            a = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
            b = a + Fraction(rng.randint(1, 24), rng.randint(1, 6))
            step = (b - a) / n
            grid = Grid(tuple(a + i * step for i in range(n + 1)))
            labeling = Labeling((0, *(rng.randint(0, 1) for _ in range(n - 1)), 1))
            for w in theorem_roundtrip(grid, labeling):
                midpoint = (grid.vertices[w.edge - 1] + grid.vertices[w.edge]) / 2
                assert w.fixed_point == midpoint


_LYING_FIXED_POINTS = textwrap.dedent(
    """
    import sys
    from fractions import Fraction
    from spernerfix import CertificateError, plmap
    from spernerfix.sperner import Grid, Labeling

    if not sys.flags.optimize:
        sys.exit("not running under python -O")
    grid = Grid(tuple(Fraction(i) for i in range(4)))
    labeling = Labeling((0, 1, 1, 1))  # one hetero edge, 1, holding 1/2
    real = plmap.pl_fixed_points
    fakes = [
        lambda pl: [],  # no fixed point at all
        lambda pl: [Fraction(1)],  # a vertex, not interior to its edge
        lambda pl: [Fraction(5, 2)],  # inside the monochromatic edge 3
        lambda pl: real(pl) * 2,  # edge 1 twice
    ]
    for fake in fakes:
        plmap.pl_fixed_points = fake
        try:
            plmap.theorem_roundtrip(grid, labeling)
        except CertificateError as exc:
            print(exc)
    plmap.pl_fixed_points = real
    try:  # vertex 1 is its own image
        real(plmap.PLMap(grid, tuple(Fraction(v) for v in (1, 1, 1, 2))))
    except CertificateError as exc:
        print(exc)
    """
)


def test_checks_survive_python_O():
    # With asserts stripped, every check of theorem_roundtrip and
    # pl_fixed_points must still catch a lying fixed-point list.
    done = run_python_O(_LYING_FIXED_POINTS)
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == 5, done.stdout


class TestSolverCrossCheck:
    def test_solver_bracket_contains_a_pl_fixed_point(self):
        rng = random.Random(21)
        for _ in range(25):
            n = rng.randint(1, 8)
            grid = random_grid(rng, n)
            labeling = Labeling((0, *(rng.randint(0, 1) for _ in range(n - 1)), 1))
            plmap = pl_from_labeling(grid, labeling)
            points = pl_fixed_points(plmap)
            result = solve(
                partial(pl_evaluate, plmap),
                grid.vertices[0],
                grid.vertices[-1],
                SolverConfig(epsilon=Fraction(1, 10**4)),
            )
            if isinstance(result, ExactVertex):
                assert result.x in points
            else:
                assert isinstance(result, CertifiedBracket)
                assert any(result.lo < p < result.hi for p in points)


class TestTrace:
    def test_includes_all_vertices_and_matches_evaluation(self):
        plmap = pl_from_labeling(integer_grid(3), Labeling((0, 1, 0, 1)))
        rows = pl_trace(plmap, samples_per_edge=4)
        xs = [x for x, _ in rows]
        assert xs == sorted(xs)
        for v in plmap.grid.vertices:
            assert v in xs
        assert xs[0] == plmap.grid.vertices[0]
        assert xs[-1] == plmap.grid.vertices[-1]
        for x, y in rows:
            assert pl_evaluate(plmap, x) == y

    def test_row_count(self):
        plmap = pl_from_labeling(integer_grid(2), Labeling((0, 0, 1)))
        assert len(pl_trace(plmap, samples_per_edge=5)) == 2 * 5 + 1

    def test_rejects_zero_resolution(self):
        plmap = pl_from_labeling(integer_grid(2), Labeling((0, 0, 1)))
        with pytest.raises(ValueError):
            pl_trace(plmap, samples_per_edge=0)
