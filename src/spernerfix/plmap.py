"""Vertex maps of a grid and their piecewise-linear extensions.

A PLMap is a grid plus one target vertex index per vertex; the map is those
indices. From a labeled grid, pl_from_labeling builds the map sending a
0-labeled vertex one step right and a 1-labeled vertex one step left. The
boundary condition keeps every target on the grid, so no sentinel vertices
are needed. The map extends to the whole interval by linear interpolation
along each edge: a hetero-labeled edge contains exactly one fixed point,
strictly interior, while a monochromatic edge pushes every point the same
way and contains none. The vertices strictly increase, so the residual at
vertex j has the sign of target_index[j] - j: signs are integer comparisons,
and rationals are formed only where a point is solved for, sampled or
evaluated. `theorem_roundtrip` checks the fixed points against the
hetero-labeled edges of the labels in one merge walk, as an executable
invariant.

The per-edge linear solve here is deliberately independent of the solver
module, so the two can be cross-checked against each other.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .rationals import CertificateError
from .sperner import Grid, Labeling

__all__ = [
    "FixedPointWitness", "PLMap", "pl_evaluate", "pl_fixed_points", "pl_from_labeling",
    "pl_trace", "theorem_roundtrip",
]

# The most rows pl_trace returns; a larger trace is refused with ValueError.
TRACE_ROW_BUDGET = 10**6


@dataclass(frozen=True)
class PLMap:
    """A vertex map of a grid and its piecewise-linear interpolant.

    Vertex j maps to grid.vertices[target_index[j]], so every image is a
    grid vertex by construction, and the indices alone decide every sign.
    """

    grid: Grid
    target_index: tuple[int, ...]

    def __post_init__(self):
        targets = tuple(self.target_index)
        size = len(self.grid.vertices)
        if len(targets) != size:
            raise ValueError("one target per grid vertex required")
        for j, t in enumerate(targets):
            if type(t) is not int or not 0 <= t < size:
                raise ValueError(f"target of vertex {j} must be a vertex index in 0..{size - 1}")
        object.__setattr__(self, "target_index", targets)


def pl_from_labeling(grid: Grid, labeling: Labeling) -> PLMap:
    """Label 0 sends a vertex one step right, label 1 one step left."""
    if len(labeling.labels) != len(grid.vertices):
        raise ValueError("labeling and grid sizes differ")
    targets = tuple(j + 1 if lab == 0 else j - 1 for j, lab in enumerate(labeling.labels))
    return PLMap(grid, targets)


def pl_evaluate(plmap: PLMap, x: Fraction) -> Fraction:
    """Evaluate the interpolant at x, exactly.

    x is written as the convex combination lam * v[k-1] + (1 - lam) * v[k]
    of the endpoints of its edge and the same combination of the endpoint
    images is returned. Vertex hits use the smallest containing edge; both
    candidate edges agree there. Raises TypeError unless x is an int or a
    Fraction.
    """
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"x must be an int or a Fraction, not {x!r}")
    vertices = plmap.grid.vertices
    if not vertices[0] <= x <= vertices[-1]:
        raise ValueError(f"{x} outside the domain [{vertices[0]}, {vertices[-1]}]")
    k = max(bisect_left(vertices, x), 1)
    v_left, v_right = vertices[k - 1], vertices[k]
    targets = plmap.target_index
    lam = Fraction(v_right - x, v_right - v_left)
    return lam * vertices[targets[k - 1]] + (1 - lam) * vertices[targets[k]]


def pl_fixed_points(plmap: PLMap) -> list[Fraction]:
    """All solutions of plmap(x) = x, by exact per-edge linear solve.

    The per-edge residual is linear with nonzero values at both endpoints
    (no vertex is its own image), so each edge holds at most one fixed point,
    always strictly interior. The residual at vertex j has the sign of
    target_index[j] - j; residuals are formed only on the edges where that
    sign changes, and no rational is compared.
    """
    vertices = plmap.grid.vertices
    targets = plmap.target_index
    points: list[Fraction] = []
    left_above = targets[0] > 0
    for k, t in enumerate(targets):
        if t == k:
            raise CertificateError(f"a vertex of edge {max(k, 1)} is its own image")
        right_above = t > k
        if left_above != right_above:
            x_left, x_right = vertices[k - 1], vertices[k]
            r_left = vertices[targets[k - 1]] - x_left
            r_right = vertices[t] - x_right
            points.append(x_left + Fraction(r_left * (x_right - x_left), r_left - r_right))
        left_above = right_above
    return points


@dataclass(frozen=True)
class FixedPointWitness:
    """A fixed point of the extension, its edge, and that edge's labels."""

    fixed_point: Fraction
    edge: int
    edge_labels: tuple[int, int]


def theorem_roundtrip(grid: Grid, labeling: Labeling) -> list[FixedPointWitness]:
    """Build the extension, find its fixed points, and check where they land.

    The hetero-labeled edges are read from the labels, not from the map.
    There must be as many fixed points as such edges, and the i-th point
    must lie strictly inside the i-th edge: one merge walk, with no search.
    A CertificateError here would falsify the implementation, not the
    underlying mathematics.
    """
    points = pl_fixed_points(pl_from_labeling(grid, labeling))
    if not points:
        raise CertificateError("no fixed point, though the boundary condition guarantees one")
    labels = labeling.labels
    hetero_edges = [k for k in range(1, len(labels)) if labels[k - 1] != labels[k]]
    if len(points) != len(hetero_edges):
        raise CertificateError("hetero-labeled edges and fixed points do not correspond one-to-one")
    vertices = grid.vertices
    witnesses = []
    for x, k in zip(points, hetero_edges):
        if not vertices[k - 1] < x < vertices[k]:
            raise CertificateError(f"fixed point {x} is not strictly inside hetero edge {k}")
        witnesses.append(FixedPointWitness(x, k, (labels[k - 1], labels[k])))
    return witnesses


def pl_trace(plmap: PLMap, samples_per_edge: int = 8) -> list[tuple[Fraction, Fraction]]:
    """Exact (x, value) samples along each edge, for external plotting.

    Emits samples_per_edge points per edge plus the final vertex; every
    vertex is included, so the breakpoints are preserved. Sample t of edge
    k is (v[k-1] + span*t/s, y[k-1] + rise*t/s), with y[j] the image of
    vertex j: one pass over the edges, linear in the rows returned. More
    than TRACE_ROW_BUDGET rows are refused before any row is built.
    """
    if samples_per_edge < 1:
        raise ValueError("samples_per_edge must be at least 1")
    vertices = plmap.grid.vertices
    targets = plmap.target_index
    row_count = samples_per_edge * (len(vertices) - 1) + 1
    if row_count > TRACE_ROW_BUDGET:
        raise ValueError(
            f"a trace of {row_count} rows exceeds the budget of {TRACE_ROW_BUDGET} rows"
        )
    steps = [Fraction(t, samples_per_edge) for t in range(1, samples_per_edge)]
    rows = []
    for k in range(1, len(vertices)):
        x_left, y_left = vertices[k - 1], vertices[targets[k - 1]]
        span = vertices[k] - x_left
        rise = vertices[targets[k]] - y_left
        rows.append((x_left, y_left))
        rows.extend((x_left + span * step, y_left + rise * step) for step in steps)
    rows.append((vertices[-1], vertices[targets[-1]]))
    return rows
