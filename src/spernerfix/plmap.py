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
from itertools import chain, pairwise

from .rationals import CertificateError, _count, _exact
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


def _along(u, v, t: int, s: int) -> Fraction:
    """The point t/s of the way from u to v, as one Fraction built from integers."""
    un, ud, vn, vd = u.numerator, u.denominator, v.numerator, v.denominator
    return Fraction((s - t) * un * vd + t * vn * ud, s * ud * vd)


def pl_evaluate(plmap: PLMap, x: Fraction) -> Fraction:
    """Evaluate the interpolant at x, exactly.

    x is the point t/s of the way from u = v[k-1] to v = v[k] along its
    edge, with t and s integers, and the value is the point t/s of the way
    from the image of u to the image of v: one Fraction built from integers.
    Vertex hits use the smallest containing edge; both candidate edges agree
    there. Raises TypeError unless x is exact (the rule in rationals).
    """
    vertices = plmap.grid.vertices
    if not vertices[0] <= _exact(x, "x") <= vertices[-1]:
        raise ValueError(f"{x} outside the domain [{vertices[0]}, {vertices[-1]}]")
    k = max(bisect_left(vertices, x), 1)
    u, v, targets = vertices[k - 1], vertices[k], plmap.target_index
    t = (x.numerator * u.denominator - u.numerator * x.denominator) * v.denominator
    s = (v.numerator * u.denominator - u.numerator * v.denominator) * x.denominator  # > 0
    return _along(vertices[targets[k - 1]], vertices[targets[k]], t, s)


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
            # x = (x_r*y_l - x_l*y_r) / ((y_l - y_r) - (x_l - x_r)) in integers,
            # with x_l = a/dx, x_r = b/dx, y_l = c/dy and y_r = e/dy.
            x_l, x_r, y_l, y_r = vertices[k - 1], vertices[k], vertices[targets[k - 1]], vertices[t]
            dx, dy = x_l.denominator * x_r.denominator, y_l.denominator * y_r.denominator
            a, b = x_l.numerator * x_r.denominator, x_r.numerator * x_l.denominator
            c, e = y_l.numerator * y_r.denominator, y_r.numerator * y_l.denominator
            points.append(Fraction(b * c - a * e, (c - e) * dx - (a - b) * dy))
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
    k is the point t/s along it, with s = samples_per_edge, and its value is
    the point t/s from the image of v[k-1] to the image of v[k]. Each sample
    is built once, as one Fraction from integers, and an image that runs
    along a grid edge is that edge's own samples: a map from a labeling
    builds new values only on its 1->0 edges. Vertex rows are the grid's own
    vertices. Linear in the rows returned; no point is located by search.
    More than TRACE_ROW_BUDGET rows are refused before any row is built.
    """
    if _count(samples_per_edge, "samples_per_edge") < 1:
        raise ValueError("samples_per_edge must be at least 1")
    vertices = plmap.grid.vertices
    targets = plmap.target_index
    row_count = samples_per_edge * (len(vertices) - 1) + 1
    if row_count > TRACE_ROW_BUDGET:
        raise ValueError(
            f"a trace of {row_count} rows exceeds the budget of {TRACE_ROW_BUDGET} rows"
        )
    s = samples_per_edge
    # at[t][k - 1] is the point t/s along edge k; ys[t][k - 1] is its value.
    edges = list(pairwise(vertices))
    at = [vertices[:-1]] + [[_along(u, v, t, s) for u, v in edges] for t in range(1, s)]
    ys = [[vertices[p] for p in targets[:-1]]] + [
        [
            at[t][p] if q == p + 1 else at[s - t][q] if q == p - 1
            else _along(vertices[p], vertices[q], t, s)
            for p, q in pairwise(targets)
        ]
        for t in range(1, s)
    ]
    rows = list(zip(chain.from_iterable(zip(*at)), chain.from_iterable(zip(*ys))))
    rows.append((vertices[-1], vertices[targets[-1]]))
    return rows
