from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spernerfix.expr import parse
from spernerfix.rationals import ParseError
from spernerfix.sperner import (
    BoundaryConditionError,
    ExactVertex,
    Grid,
    Labeling,
    NonSelfMapError,
    find_transition_bisect,
    find_transition_bisect_counted,
    find_transition_scan,
    label_by_sign,
    make_uniform_grid,
    parse_labels,
    parse_vertices,
)


def boundary_respecting_vectors(n):
    """All 2^(n-1) label vectors of length n+1 with fixed boundary."""
    for interior in product((0, 1), repeat=n - 1):
        yield (0, *interior, 1)


def differing_edges(labels):
    return [i for i in range(1, len(labels)) if labels[i - 1] != labels[i]]


def oriented_edges(labels):
    return [i for i in range(1, len(labels)) if (labels[i - 1], labels[i]) == (0, 1)]


def log2_ceil(n):
    return (n - 1).bit_length()


labelings = st.lists(st.sampled_from([0, 1]), max_size=14).map(
    lambda mid: Labeling((0, *mid, 1))
)


class TestGrid:
    def test_halving(self):
        grid = make_uniform_grid(Fraction(0), Fraction(1), 2)
        assert grid.vertices == (Fraction(0), Fraction(1, 2), Fraction(1))

    def test_formula(self):
        grid = make_uniform_grid(Fraction(1), Fraction(2), 4)
        assert grid.vertices == (
            Fraction(1),
            Fraction(5, 4),
            Fraction(3, 2),
            Fraction(7, 4),
            Fraction(2),
        )

    def test_minimal(self):
        assert make_uniform_grid(Fraction(0), Fraction(1), 1).vertices == (
            Fraction(0),
            Fraction(1),
        )

    def test_exact_spacing(self):
        grid = make_uniform_grid(Fraction(1, 3), Fraction(5, 7), 6)
        step = (Fraction(5, 7) - Fraction(1, 3)) / 6
        for left, right in zip(grid.vertices, grid.vertices[1:]):
            assert right - left == step
        assert grid.vertices[-1] == Fraction(5, 7)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            make_uniform_grid(Fraction(1), Fraction(1), 2)
        with pytest.raises(ValueError):
            make_uniform_grid(Fraction(2), Fraction(1), 2)
        with pytest.raises(ValueError):
            make_uniform_grid(Fraction(0), Fraction(1), 0)
        with pytest.raises(ValueError):
            Grid((Fraction(0), Fraction(0)))
        with pytest.raises(ValueError):
            Grid((Fraction(0),))

    @pytest.mark.parametrize(
        "vertices, message",
        [
            ((0, 0.1, 0.3), "grid vertex 1 must be an int or a Fraction, not 0.1"),
            ((0.5, 1), "grid vertex 0 must be an int or a Fraction, not 0.5"),
            ((Fraction(0), "1"), "grid vertex 1 must be an int or a Fraction, not '1'"),
        ],
    )
    def test_refuses_inexact_vertices(self, vertices, message):
        with pytest.raises(TypeError) as exc:
            Grid(vertices)
        assert str(exc.value) == message


class TestLabeling:
    def test_boundary_enforced(self):
        with pytest.raises(BoundaryConditionError):
            Labeling((1, 0))
        with pytest.raises(BoundaryConditionError):
            Labeling((0, 0))

    def test_values_checked(self):
        with pytest.raises(ValueError):
            Labeling((0, 2, 1))

    def test_minimum_length(self):
        with pytest.raises(ValueError):
            Labeling((0,))


class TestLabelBySign:
    def test_exact_vertex_short_circuits(self):
        grid = Grid((Fraction(0), Fraction(1, 2), Fraction(1)))
        result = label_by_sign(grid, parse("1 - x"))
        assert result == ExactVertex(Fraction(1, 2))

    def test_sign_labels(self):
        grid = Grid((Fraction(0), Fraction(1, 4), Fraction(3, 4), Fraction(1)))
        result = label_by_sign(grid, parse("1 - x"))
        assert isinstance(result, Labeling)
        assert result.labels == (0, 0, 1, 1)

    def test_step_function_labels(self):
        grid = Grid((Fraction(1), Fraction(3, 2), Fraction(2)))
        result = label_by_sign(grid, parse("ifneg(x*x - 2, 2, 1)"))
        assert isinstance(result, Labeling)
        assert result.labels == (0, 1, 1)

    def test_non_self_map_right(self):
        grid = make_uniform_grid(Fraction(0), Fraction(1), 2)
        with pytest.raises(NonSelfMapError):
            label_by_sign(grid, parse("x + 1"))

    def test_non_self_map_left(self):
        grid = make_uniform_grid(Fraction(0), Fraction(1), 2)
        with pytest.raises(NonSelfMapError):
            label_by_sign(grid, parse("x - 1"))

    def test_callable_accepted(self):
        grid = make_uniform_grid(Fraction(0), Fraction(1), 4)
        result = label_by_sign(grid, lambda x: Fraction(2, 3))
        assert isinstance(result, Labeling)
        assert result.labels == (0, 0, 0, 1, 1)

    def test_self_map_yields_valid_labeling(self):
        # maps [0, 1] into itself with no fixed vertex on this grid
        grid = Grid((Fraction(0), Fraction(1, 2), Fraction(1)))
        result = label_by_sign(grid, parse("(x + 2)/4"))
        assert isinstance(result, Labeling)


class TestTransitionScan:
    def test_single_edge(self):
        assert find_transition_scan(Labeling((0, 1))) == 1

    def test_first_edge(self):
        assert find_transition_scan(Labeling((0, 0, 1, 1))) == 2

    def test_smallest_index_tie_rule(self):
        assert find_transition_scan(Labeling((0, 1, 0, 1, 1))) == 1

    def test_matches_min_oracle_exhaustively(self):
        for n in range(1, 9):
            for labels in boundary_respecting_vectors(n):
                assert find_transition_scan(Labeling(labels)) == min(
                    differing_edges(labels)
                )

    @given(labelings)
    def test_edge_carries_different_labels(self, labeling):
        edge = find_transition_scan(labeling)
        assert labeling.labels[edge - 1] != labeling.labels[edge]


class TestTransitionBisect:
    def test_single_edge(self):
        assert find_transition_bisect(Labeling((0, 1))) == 1

    def test_unique_oriented_edge(self):
        assert find_transition_bisect(Labeling((0, 0, 1, 1))) == 2

    def test_any_oriented_edge(self):
        labels = (0, 1, 0, 1, 1)
        edge = find_transition_bisect(Labeling(labels))
        assert edge in oriented_edges(labels)
        assert edge in {1, 3}

    def test_exhaustive_postcondition_and_budget(self):
        for n in range(1, 9):
            budget = log2_ceil(n) + 1
            for labels in boundary_respecting_vectors(n):
                edge, queries = find_transition_bisect_counted(Labeling(labels))
                assert (labels[edge - 1], labels[edge]) == (0, 1)
                assert queries <= budget

    @given(labelings)
    def test_oriented_postcondition(self, labeling):
        edge = find_transition_bisect(labeling)
        assert labeling.labels[edge - 1] == 0
        assert labeling.labels[edge] == 1


class TestTextForms:
    def test_labels_round_trip(self):
        assert parse_labels("0,0,1,1") == (0, 0, 1, 1)

    @pytest.mark.parametrize("text", ["", "0,2", "01", "0, 1", "0;1"])
    def test_labels_rejects(self, text):
        with pytest.raises(ParseError):
            parse_labels(text)

    def test_vertices_round_trip(self):
        vertices = (Fraction(0), Fraction(1, 2), Fraction(1))
        assert parse_vertices("0,1/2,1") == vertices

    def test_vertices_rejects(self):
        with pytest.raises(ParseError):
            parse_vertices("0,0.5,1")
