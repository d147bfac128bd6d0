import random
import textwrap
from bisect import bisect_left
from fractions import Fraction
from functools import partial
from itertools import product

import pytest

from conftest import run_python_O
from spernerfix import plmap as plmap_module
from spernerfix.plmap import (
    TRACE_ROW_BUDGET,
    FixedPointWitness,
    PLMap,
    pl_evaluate,
    pl_fixed_points,
    pl_from_labeling,
    pl_trace,
    theorem_roundtrip,
)
from spernerfix.rationals import CertificateError
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


def seeded_plmaps(seed, count):
    """PLMaps on non-uniform grids: half from labelings, half sending each
    vertex to any grid vertex, not only a neighbour (self-images included)."""
    rng = random.Random(seed)
    for i in range(count):
        grid = random_grid(rng, rng.randint(1, 12))
        if i % 2:
            yield PLMap(grid, tuple(rng.randrange(len(grid.vertices)) for _ in grid.vertices))
        else:
            labeling = Labeling((0, *(rng.randint(0, 1) for _ in range(len(grid.vertices) - 2)), 1))
            yield pl_from_labeling(grid, labeling)


def reference_trace(plmap, samples_per_edge):
    """Every sample located by search and evaluated as a convex combination."""
    vertices = plmap.grid.vertices
    rows = []
    for k in range(1, len(vertices)):
        span = vertices[k] - vertices[k - 1]
        for t in range(samples_per_edge):
            x = vertices[k - 1] + span * Fraction(t, samples_per_edge)
            rows.append((x, pl_evaluate(plmap, x)))
    rows.append((vertices[-1], vertices[plmap.target_index[-1]]))
    return rows


def reference_fixed_points(plmap):
    """Both residuals of every edge subtracted, then the sign test."""
    vertices = plmap.grid.vertices
    values = [vertices[t] for t in plmap.target_index]
    points = []
    for k in range(1, len(vertices)):
        r_left = values[k - 1] - vertices[k - 1]
        r_right = values[k] - vertices[k]
        if r_left == 0 or r_right == 0:
            raise CertificateError(f"a vertex of edge {k} is its own image")
        if (r_left > 0) != (r_right > 0):
            points.append(
                vertices[k - 1] + r_left * (vertices[k] - vertices[k - 1]) / (r_left - r_right)
            )
    return points


def reference_roundtrip(grid, labeling):
    """Each fixed point's edge located by bisection and checked there, then
    the located edges compared with the hetero-labeled ones."""
    points = reference_fixed_points(pl_from_labeling(grid, labeling))
    if not points:
        raise CertificateError("no fixed point, though the boundary condition guarantees one")
    labels, vertices = labeling.labels, grid.vertices
    witnesses = []
    for x in points:
        k = max(bisect_left(vertices, x), 1)
        pair = (labels[k - 1], labels[k])
        if not vertices[k - 1] < x < vertices[k]:
            raise CertificateError(f"fixed point {x} is not interior to edge {k}")
        if pair[0] == pair[1]:
            raise CertificateError(f"fixed point {x} lies on the monochromatic edge {k}")
        witnesses.append(FixedPointWitness(x, k, pair))
    hetero_edges = {k for k in range(1, len(labels)) if labels[k - 1] != labels[k]}
    if sorted(w.edge for w in witnesses) != sorted(hetero_edges):
        raise CertificateError("hetero-labeled edges and fixed points do not correspond one-to-one")
    return witnesses


def outcome(fn, *args):
    """A function's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (CertificateError, ValueError) as exc:
        return type(exc), str(exc)


class TestPLFromLabeling:
    def test_shift_rule(self):
        plmap = pl_from_labeling(UNIT_GRID_3, Labeling((0, 0, 1)))
        assert plmap.target_index == (1, 2, 1)
        images = [pl_evaluate(plmap, v) for v in UNIT_GRID_3.vertices]
        assert images == [Fraction(1), Fraction(2), Fraction(1)]

    def test_minimal_swap(self):
        grid = Grid((Fraction(0), Fraction(1)))
        plmap = pl_from_labeling(grid, Labeling((0, 1)))
        assert plmap.target_index == (1, 0)

    def test_alternating(self):
        grid = integer_grid(3)
        plmap = pl_from_labeling(grid, Labeling((0, 1, 0, 1)))
        assert plmap.target_index == (1, 0, 3, 2)

    def test_closure_exhaustive(self):
        for n in range(1, 9):
            grid = integer_grid(n)
            for labeling in boundary_respecting_labelings(n):
                plmap = pl_from_labeling(grid, labeling)
                assert all(0 <= t <= n for t in plmap.target_index)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            pl_from_labeling(UNIT_GRID_3, Labeling((0, 1)))

    def test_hashes_no_vertex(self, monkeypatch):
        # Targets are indices, so no Fraction is hashed to check an image.
        rng = random.Random(7)
        grid = random_grid(rng, 50)
        labeling = Labeling((0, *(rng.randint(0, 1) for _ in range(49)), 1))

        def no_hash(self):
            raise AssertionError("a Fraction was hashed")

        monkeypatch.setattr(Fraction, "__hash__", no_hash)
        plmap = pl_from_labeling(grid, labeling)
        assert plmap.target_index == tuple(
            j + 1 if lab == 0 else j - 1 for j, lab in enumerate(labeling.labels)
        )


class TestPLEvaluate:
    def test_interpolation(self):
        plmap = PLMap(UNIT_GRID_3, (1, 2, 1))
        assert pl_evaluate(plmap, Fraction(1, 2)) == Fraction(3, 2)

    def test_vertex_hit_returns_vertex_value(self):
        plmap = PLMap(UNIT_GRID_3, (1, 2, 1))
        for j, v in enumerate(UNIT_GRID_3.vertices):
            assert pl_evaluate(plmap, v) == UNIT_GRID_3.vertices[plmap.target_index[j]]

    def test_swap_map(self):
        grid = Grid((Fraction(0), Fraction(1)))
        plmap = pl_from_labeling(grid, Labeling((0, 1)))
        assert pl_evaluate(plmap, Fraction(1, 4)) == Fraction(3, 4)

    def test_out_of_domain(self):
        plmap = PLMap(UNIT_GRID_3, (1, 2, 1))
        with pytest.raises(ValueError):
            pl_evaluate(plmap, Fraction(-1))
        with pytest.raises(ValueError):
            pl_evaluate(plmap, Fraction(5, 2))

    def test_refuses_a_float(self):
        plmap = pl_from_labeling(Grid((0, 1)), Labeling((0, 1)))
        with pytest.raises(TypeError) as exc:
            pl_evaluate(plmap, 0.25)
        assert str(exc.value) == "x must be an int or a Fraction, not 0.25"

    def test_int_grid_and_point_give_a_fraction(self):
        plmap = pl_from_labeling(Grid((0, 1, 2)), Labeling((0, 0, 1)))
        value = pl_evaluate(plmap, 0)
        assert type(value) is Fraction and value == 1

    def test_range_stays_in_domain(self):
        rng = random.Random(3)
        for _ in range(50):
            grid = random_grid(rng, rng.randint(1, 8))
            labeling = Labeling(
                (0, *(rng.randint(0, 1) for _ in range(len(grid.vertices) - 2)), 1)
            )
            plmap = pl_from_labeling(grid, labeling)
            lo, hi = grid.vertices[0], grid.vertices[-1]
            span = hi - lo
            for _ in range(20):
                x = lo + span * Fraction(rng.randint(0, 64), 64)
                assert lo <= pl_evaluate(plmap, x) <= hi

    @pytest.mark.parametrize(
        "targets",
        [(-1, 0, 1), (1, 3, 1), (1, 2.0, 1), (1, Fraction(2), 1), (1, True, 1), (1, 2)],
        ids=["negative", "out of range", "float", "Fraction", "bool", "wrong length"],
    )
    def test_target_validation(self, targets):
        with pytest.raises(ValueError):
            PLMap(UNIT_GRID_3, targets)

    def test_any_grid_vertex_is_a_target(self):
        plmap = PLMap(UNIT_GRID_3, [2, 2, 0])
        assert plmap.target_index == (2, 2, 0)
        images = [pl_evaluate(plmap, v) for v in UNIT_GRID_3.vertices]
        assert images == [Fraction(2), Fraction(2), Fraction(0)]
        assert plmap == PLMap(UNIT_GRID_3, (2, 2, 0))


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
                (0, *(rng.randint(0, 1) for _ in range(len(grid.vertices) - 2)), 1)
            )
            plmap = pl_from_labeling(grid, labeling)
            points = pl_fixed_points(plmap)
            assert points
            for p in points:
                assert pl_evaluate(plmap, p) == p

    def test_matches_reference(self):
        checked = 0
        for plmap in seeded_plmaps(31, 120):
            expected = outcome(reference_fixed_points, plmap)
            assert outcome(pl_fixed_points, plmap) == expected
            checked += isinstance(expected, list)
        assert checked > 60  # the self-image branch alone would prove little

    def test_compares_no_rational(self, monkeypatch):
        # Signs come from the target indices, so once the grid is validated
        # no vertex is compared, not even on the self-image path.
        class Watched(Fraction):
            pass

        def no_comparison(*args):
            raise AssertionError("a rational was compared")

        plmaps = [
            PLMap(Grid(tuple(Watched(v) for v in p.grid.vertices)), p.target_index)
            for p in seeded_plmaps(32, 60)
        ]
        expected = [outcome(reference_fixed_points, p) for p in plmaps]
        for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
            monkeypatch.setattr(Watched, name, no_comparison)
        assert [outcome(pl_fixed_points, p) for p in plmaps] == expected

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_self_image_names_the_reference_edge(self, n):
        # Vertex 0 is reported on edge 1, vertex j on edge j (its left edge),
        # and the last vertex n on edge n.
        grid = integer_grid(n)
        base = pl_from_labeling(grid, Labeling((0,) * n + (1,))).target_index
        for j in range(n + 1):
            targets = list(base)
            targets[j] = j
            plmap = PLMap(grid, targets)
            message = f"a vertex of edge {max(j, 1)} is its own image"
            with pytest.raises(CertificateError) as exc:
                pl_fixed_points(plmap)
            assert str(exc.value) == message
            assert outcome(reference_fixed_points, plmap) == (CertificateError, message)


class TestEdgeResidualSigns:
    def test_monochromatic_repulsion_and_hetero_attraction(self):
        # A linear function with like signs at both endpoints keeps that sign
        # on the whole edge; opposite strict signs force one interior root.
        for n in range(1, 9):
            grid = integer_grid(n)
            for labeling in boundary_respecting_labelings(n):
                plmap = pl_from_labeling(grid, labeling)
                labels = labeling.labels
                images = [grid.vertices[t] for t in plmap.target_index]
                for k in range(1, n + 1):
                    r_left = images[k - 1] - grid.vertices[k - 1]
                    r_right = images[k] - grid.vertices[k]
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

    def test_int_grid_gives_a_fraction_witness(self):
        (witness,) = theorem_roundtrip(Grid((0, 1, 2)), Labeling((0, 0, 1)))
        assert type(witness.fixed_point) is Fraction and witness.fixed_point == Fraction(3, 2)

    def test_exhaustive_uniform(self):
        for n in range(1, 9):
            grid = integer_grid(n)
            for labeling in boundary_respecting_labelings(n):
                witnesses = theorem_roundtrip(grid, labeling)
                assert witnesses == reference_roundtrip(grid, labeling)
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
            assert theorem_roundtrip(grid, labeling) == reference_roundtrip(grid, labeling)

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
    one_edge = Labeling((0, 1, 1, 1))  # one hetero edge, 1, holding 1/2
    three_edges = Labeling((0, 1, 0, 1))  # hetero edges 1, 2 and 3
    real = plmap.pl_fixed_points
    fakes = [
        (one_edge, lambda pl: []),  # no fixed point at all
        (one_edge, lambda pl: [Fraction(1)]),  # a vertex, not interior to its edge
        (one_edge, lambda pl: [Fraction(5, 2)]),  # inside the monochromatic edge 3
        (one_edge, lambda pl: real(pl) * 2),  # edge 1 twice
        (one_edge, lambda pl: [Fraction(-1)]),  # left of the grid
        (three_edges, lambda pl: real(pl)[::-1]),  # every point, in reverse order
    ]
    for labeling, fake in fakes:
        plmap.pl_fixed_points = fake
        try:
            plmap.theorem_roundtrip(grid, labeling)
        except CertificateError as exc:
            print(exc)
    plmap.pl_fixed_points = real
    try:  # vertex 1 is its own image
        real(plmap.PLMap(grid, (1, 1, 1, 2)))
    except CertificateError as exc:
        print(exc)
    """
)


def test_checks_survive_python_O():
    # With asserts stripped, every check of theorem_roundtrip and
    # pl_fixed_points must still catch a lying fixed-point list.
    done = run_python_O(_LYING_FIXED_POINTS)
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == 7, done.stdout


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

    @pytest.mark.parametrize("samples_per_edge", range(1, 10))
    def test_matches_reference(self, samples_per_edge):
        for plmap in seeded_plmaps(40 + samples_per_edge, 30):
            rows = pl_trace(plmap, samples_per_edge)
            assert rows == reference_trace(plmap, samples_per_edge)
            assert all(type(x) is type(y) is Fraction for x, y in rows)

    def test_no_per_sample_search(self, monkeypatch):
        # pl_trace, pl_fixed_points and theorem_roundtrip locate no point by
        # search: only pl_evaluate searches for its edge.
        def no_search(*args):
            raise AssertionError("a point was located by search")

        plmap = next(seeded_plmaps(50, 1))  # built from a labeling
        grid = plmap.grid
        labeling = Labeling(tuple(int(t < j) for j, t in enumerate(plmap.target_index)))
        expected = (
            reference_trace(plmap, 5),
            reference_fixed_points(plmap),
            reference_roundtrip(grid, labeling),
        )
        monkeypatch.setattr(plmap_module, "bisect_left", no_search)
        monkeypatch.setattr(plmap_module, "pl_evaluate", no_search)
        assert pl_trace(plmap, 5) == expected[0]
        assert pl_fixed_points(plmap) == expected[1]
        assert theorem_roundtrip(grid, labeling) == expected[2]

    def test_row_budget_boundary(self, monkeypatch):
        # samples_per_edge * edges + 1 rows: 3 * 2 + 1 = 7 fit a budget of 7.
        plmap = pl_from_labeling(integer_grid(2), Labeling((0, 0, 1)))
        monkeypatch.setattr(plmap_module, "TRACE_ROW_BUDGET", 7)
        assert len(pl_trace(plmap, 3)) == 7
        with pytest.raises(ValueError, match="9 rows exceeds the budget of 7"):
            pl_trace(plmap, 4)

    def test_rejects_over_budget_before_building_rows(self, monkeypatch):
        def no_rows(*args):
            raise RuntimeError("a trace row was built")

        plmap = pl_from_labeling(integer_grid(1), Labeling((0, 1)))
        monkeypatch.setattr(plmap_module, "Fraction", no_rows)
        assert TRACE_ROW_BUDGET == 10**6
        with pytest.raises(ValueError, match="exceeds the budget"):
            pl_trace(plmap, TRACE_ROW_BUDGET)
        with pytest.raises(ValueError, match="exceeds the budget"):
            pl_trace(plmap, 10**18)
