"""Grids, two-colorings, and the one-dimensional Sperner lemma as search.

A grid is a strictly increasing list of rational vertices. A labeling colors
each vertex 0 or 1 with 0 at the left end and 1 at the right; the Sperner
lemma guarantees an adjacent pair carrying both labels (a transition edge).
Two searches are provided with deliberately different contracts: a linear
scan returning the first differing edge of either orientation (the trusted
oracle), and a logarithmic bisection over a finished labeling returning some
0-to-1 oriented edge. The CLI's sperner command reports both. The solver
uses neither: it bisects lazily, evaluating only the vertices it queries.

Edge indices are 1-based: edge i joins vertices i-1 and i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .expr import Expr, as_function
from .rationals import CertificateError, ParseError, _exact, parse_rational

__all__ = [
    "BoundaryConditionError", "ExactVertex", "Grid", "Labeling", "NonSelfMapError",
    "find_transition_bisect", "find_transition_bisect_counted", "find_transition_scan",
    "parse_labels", "parse_vertices",
]


class BoundaryConditionError(ValueError):
    """Label vector does not start with 0 and end with 1."""


class NonSelfMapError(ValueError):
    """The sampled function does not map the interval into itself."""


@dataclass(frozen=True)
class Grid:
    """Strictly increasing rational vertices v0 < v1 < ... < vn, n >= 1."""

    vertices: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        if len(self.vertices) < 2:
            raise ValueError("grid needs at least two vertices")
        vertices = self.vertices
        for j, v in enumerate(vertices):
            _exact(v, "grid vertex {}", j)
            if j and not vertices[j - 1] < v:
                raise ValueError("grid vertices must be strictly increasing")


@dataclass(frozen=True)
class Labeling:
    """Per-vertex labels in {0, 1} with labels[0] = 0 and labels[n] = 1."""

    labels: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) < 2:
            raise ValueError("labeling needs at least two vertices")
        if any(type(v) is not int or v not in (0, 1) for v in self.labels):
            raise ValueError("labels must be 0 or 1")
        if self.labels[0] != 0 or self.labels[-1] != 1:
            raise BoundaryConditionError(
                "boundary condition violated: labels must start with 0 and end with 1"
            )


@dataclass(frozen=True)
class ExactVertex:
    """A grid vertex v with f(v) = v, found during labeling or solving."""

    x: Fraction

    def __post_init__(self):
        _exact(self.x, "x")


# make_uniform_grid and label_by_sign are left out of __all__: nothing in the
# package calls them. The tests use them as eager references for the solver,
# and the benchmark traces them by name.

def make_uniform_grid(a: Fraction, b: Fraction, n: int) -> Grid:
    """n+1 equally spaced vertices from a to b, spacing exactly (b - a)/n."""
    if not a < b:
        raise ValueError("grid endpoints must satisfy a < b")
    if n < 1:
        raise ValueError("subdivision count must be at least 1")
    step = Fraction(b - a, n)
    return Grid(tuple(a + i * step for i in range(n + 1)))


def label_by_sign(
    grid: Grid, f: Expr | Callable[[Fraction], Fraction]
) -> Labeling | ExactVertex:
    """Label each vertex by the sign of the residual g(v) = f(v) - v.

    g(v) > 0 gives label 0, g(v) < 0 gives label 1. A vertex with g(v) = 0
    short-circuits: that vertex is an exact fixed point and is returned
    instead of a labeling. If the endpoint residuals show f escaping the
    interval (g(v0) < 0 or g(vn) > 0), raises NonSelfMapError.
    """
    fn = as_function(f)
    last = len(grid.vertices) - 1
    labels = []
    for j, v in enumerate(grid.vertices):
        g = fn(v) - v
        if g == 0:
            return ExactVertex(v)
        if j == 0 and g < 0:
            raise NonSelfMapError(f"f({v}) < {v}: map does not self-map the interval")
        if j == last and g > 0:
            raise NonSelfMapError(f"f({v}) > {v}: map does not self-map the interval")
        labels.append(0 if g > 0 else 1)
    return Labeling(tuple(labels))


def find_transition_scan(labeling: Labeling) -> int:
    """Smallest edge index i with labels[i-1] != labels[i].

    Existence is guaranteed by the boundary condition (this is the Sperner
    lemma; the exhaustive test suite checks it for all small label vectors).
    """
    labels = labeling.labels
    for i in range(1, len(labels)):
        if labels[i - 1] != labels[i]:
            return i
    raise CertificateError("unreachable: boundary condition forces a transition edge")


def find_transition_bisect(labeling: Labeling) -> int:
    """Some edge index i with labels[i-1] = 0 and labels[i] = 1.

    O(log n) label queries; loop invariant labels[lo] = 0, labels[hi] = 1.
    """
    edge, _ = find_transition_bisect_counted(labeling)
    return edge


def find_transition_bisect_counted(labeling: Labeling) -> tuple[int, int]:
    """Bisection search returning (edge index, number of label queries)."""
    labels = labeling.labels
    lo, hi = 0, len(labels) - 1
    queries = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        queries += 1
        if labels[mid] == 0:
            lo = mid
        else:
            hi = mid
    return hi, queries


# Text forms the CLI reads: labels as "0,0,1,1" and vertices as a CSV of
# rational literals such as "0,1/2,1".

def parse_labels(text: str) -> tuple[int, ...]:
    parts = text.split(",")
    out = []
    for part in parts:
        if part not in ("0", "1"):
            raise ParseError(f"invalid label {part!r} (expected 0 or 1)")
        out.append(int(part))
    return tuple(out)


def parse_vertices(text: str) -> tuple[Fraction, ...]:
    return tuple(parse_rational(part) for part in text.split(","))
