"""Vertex maps of a grid and their piecewise-linear extensions.

A PLMap is a grid plus one target vertex index per vertex. From a labeled
grid, pl_from_labeling builds the map sending a 0-labeled vertex one step
right and a 1-labeled vertex one step left. The boundary condition keeps
every target on the grid, so no sentinel vertices are needed. The map
extends to the whole interval by linear interpolation along each edge, and
its fixed points can be computed exactly edge by edge: a hetero-labeled edge
contains exactly one, strictly interior, while a monochromatic edge pushes
every point the same way and contains none. `theorem_roundtrip` checks that
correspondence as an executable invariant.

The per-edge linear solve here is deliberately independent of the solver
module, so the two can be cross-checked against each other.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction

from .rationals import CertificateError
from .sperner import Grid, Labeling

# The most rows pl_trace returns; a larger trace is refused with ValueError.
TRACE_ROW_BUDGET = 10**6


@dataclass(frozen=True)
class PLMap:
    """A vertex map of a grid and its piecewise-linear interpolant.

    Vertex j maps to vertex target_index[j] of the same grid, so every
    image is a grid vertex by construction. value_at_vertex holds those
    images and is what the interpolant reads.
    """

    grid: Grid
    target_index: tuple[int, ...]
    value_at_vertex: tuple[Fraction, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        targets = tuple(self.target_index)
        vertices = self.grid.vertices
        if len(targets) != len(vertices):
            raise ValueError("one target per grid vertex required")
        for j, t in enumerate(targets):
            if type(t) is not int or not 0 <= t < len(vertices):
                raise ValueError(
                    f"target of vertex {j} must be a vertex index in 0..{len(vertices) - 1}"
                )
        object.__setattr__(self, "target_index", targets)
        object.__setattr__(self, "value_at_vertex", tuple(vertices[t] for t in targets))


def pl_from_labeling(grid: Grid, labeling: Labeling) -> PLMap:
    """Label 0 sends a vertex one step right, label 1 one step left."""
    if len(labeling.labels) != len(grid.vertices):
        raise ValueError("labeling and grid sizes differ")
    targets = tuple(j + 1 if lab == 0 else j - 1 for j, lab in enumerate(labeling.labels))
    return PLMap(grid, targets)


def _edge_index(grid: Grid, x: Fraction) -> int:
    """Smallest edge index k with vertices[k-1] <= x <= vertices[k]."""
    vertices = grid.vertices
    if not vertices[0] <= x <= vertices[-1]:
        raise ValueError(f"{x} outside the domain [{vertices[0]}, {vertices[-1]}]")
    k = bisect_left(vertices, x)
    return 1 if k == 0 else k


def pl_evaluate(plmap: PLMap, x: Fraction) -> Fraction:
    """Evaluate the interpolant at x, exactly.

    x is written as the convex combination lam * v[k-1] + (1 - lam) * v[k]
    of the endpoints of its edge and the same combination of the endpoint
    values is returned. Vertex hits use the smallest containing edge; both
    candidate edges agree there.
    """
    k = _edge_index(plmap.grid, x)
    v_left, v_right = plmap.grid.vertices[k - 1], plmap.grid.vertices[k]
    lam = (v_right - x) / (v_right - v_left)
    return lam * plmap.value_at_vertex[k - 1] + (1 - lam) * plmap.value_at_vertex[k]


def pl_fixed_points(plmap: PLMap) -> list[Fraction]:
    """All solutions of plmap(x) = x, by exact per-edge linear solve.

    The per-edge residual is linear with nonzero values at both endpoints
    (vertex images never coincide with their vertex), so each edge holds at
    most one fixed point, always strictly interior. A residual's sign comes
    from comparing a vertex with its image; residuals are formed only on the
    edges where that sign changes.
    """
    vertices = plmap.grid.vertices
    values = plmap.value_at_vertex
    points: list[Fraction] = []
    x_left, y_left = vertices[0], values[0]
    if y_left == x_left:
        raise CertificateError("a vertex of edge 1 is its own image")
    left_above = y_left > x_left
    for k in range(1, len(vertices)):
        x_right, y_right = vertices[k], values[k]
        if y_right == x_right:
            raise CertificateError(f"a vertex of edge {k} is its own image")
        right_above = y_right > x_right
        if left_above != right_above:
            r_left = y_left - x_left
            r_right = y_right - x_right
            points.append(x_left + r_left * (x_right - x_left) / (r_left - r_right))
        x_left, y_left, left_above = x_right, y_right, right_above
    return points


@dataclass(frozen=True)
class FixedPointWitness:
    """A fixed point of the extension, its edge, and that edge's labels."""

    fixed_point: Fraction
    edge: int
    edge_labels: tuple[int, int]


def theorem_roundtrip(grid: Grid, labeling: Labeling) -> list[FixedPointWitness]:
    """Build the extension, find its fixed points, and check where they land.

    Every fixed point must lie strictly inside an edge whose endpoint labels
    differ, and every such edge must contain exactly one. A CertificateError
    here would falsify the implementation, not the underlying mathematics.
    """
    plmap = pl_from_labeling(grid, labeling)
    points = pl_fixed_points(plmap)
    if not points:
        raise CertificateError("no fixed point, though the boundary condition guarantees one")
    labels = labeling.labels
    hetero_edges = {
        k for k in range(1, len(labels)) if labels[k - 1] != labels[k]
    }
    witnesses = []
    seen = []
    for x in points:
        k = _edge_index(grid, x)
        pair = (labels[k - 1], labels[k])
        if not grid.vertices[k - 1] < x < grid.vertices[k]:
            raise CertificateError(f"fixed point {x} is not interior to edge {k}")
        if pair[0] == pair[1]:
            raise CertificateError(f"fixed point {x} lies on the monochromatic edge {k}")
        witnesses.append(FixedPointWitness(x, k, pair))
        seen.append(k)
    if sorted(seen) != sorted(hetero_edges):
        raise CertificateError("hetero-labeled edges and fixed points do not correspond one-to-one")
    return witnesses


def pl_trace(plmap: PLMap, samples_per_edge: int = 8) -> list[tuple[Fraction, Fraction]]:
    """Exact (x, value) samples along each edge, for external plotting.

    Emits samples_per_edge points per edge plus the final vertex; every
    vertex is included, so the breakpoints are preserved. Sample t of edge
    k is (v[k-1] + span*t/s, y[k-1] + rise*t/s): one pass over the edges,
    linear in the rows returned. More than TRACE_ROW_BUDGET rows are refused
    before any row is built.
    """
    if samples_per_edge < 1:
        raise ValueError("samples_per_edge must be at least 1")
    vertices = plmap.grid.vertices
    values = plmap.value_at_vertex
    row_count = samples_per_edge * (len(vertices) - 1) + 1
    if row_count > TRACE_ROW_BUDGET:
        raise ValueError(
            f"a trace of {row_count} rows exceeds the budget of {TRACE_ROW_BUDGET} rows"
        )
    steps = [Fraction(t, samples_per_edge) for t in range(1, samples_per_edge)]
    rows = []
    for k in range(1, len(vertices)):
        x_left, y_left = vertices[k - 1], values[k - 1]
        span = vertices[k] - x_left
        rise = values[k] - y_left
        rows.append((x_left, y_left))
        rows.extend((x_left + span * step, y_left + rise * step) for step in steps)
    rows.append((vertices[-1], values[-1]))
    return rows
