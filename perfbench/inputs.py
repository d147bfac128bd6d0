"""Seeded input generators. Standard library only; nothing here imports spernerfix.

Every generated map f of [0, 1] is written as expression text and carries
its proof of being a self-map: the exact residuals g(0) = f(0) - 0 > 0 and
g(1) = f(1) - 1 < 0, computed here from the coefficients and checked
against the parsed expression before use.

The numerator of g is an integer polynomial whose leading coefficient is
odd, and g(0), g(1) are nonzero. By the rational root theorem g then has no
root of the form m/2^k, so no vertex of a branching-2 or branching-16 grid
over [0, 1] is ever exactly fixed, and every solve runs its full depth.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from random import Random


@dataclass(frozen=True)
class GeneratedMap:
    text: str
    g0: Fraction  # f(0) - 0, positive
    g1: Fraction  # f(1) - 1, negative
    lipschitz: Fraction | None  # a true Lipschitz bound of f on [0, 1], when known


def _poly_coefficients(rng: Random, degree: int) -> tuple[list[int], int]:
    """Positive c_0..c_degree and D > sum(c): f = sum(c_j x^j) / D maps
    [0, 1] into (0, 1), and the numerator of f(x) - x has an odd leading
    coefficient."""
    while True:
        c = [rng.randint(1, 9) for _ in range(degree)] + [rng.randrange(1, 10, 2)]
        den = sum(c) + rng.randint(1, 20)
        if degree > 1 or (c[1] - den) % 2:
            return c, den


def _poly_text(c: list[int]) -> str:
    terms = []
    for j in range(len(c) - 1, -1, -1):
        if c[j]:
            factors = ([str(c[j])] if c[j] != 1 or j == 0 else []) + ["x"] * j
            terms.append("*".join(factors))
    return " + ".join(terms)


def poly_map(rng: Random, degree: int) -> GeneratedMap:
    c, den = _poly_coefficients(rng, degree)
    return GeneratedMap(
        text=f"({_poly_text(c)})/{den}",
        g0=Fraction(c[0], den),
        g1=Fraction(sum(c), den) - 1,
        lipschitz=Fraction(sum(j * cj for j, cj in enumerate(c)), den),
    )


def rational_map(rng: Random) -> GeneratedMap:
    """f = (p2 x^2 + p1 x + p0) / (q1 x + q0) with p2 + p1 + p0 < q0."""
    while True:
        p = [rng.randint(1, 9) for _ in range(3)]
        q1 = rng.randint(1, 9)
        if (p[2] - q1) % 2:
            break
    q0 = sum(p) + rng.randint(1, 20)
    return GeneratedMap(
        text=f"({_poly_text(p)})/({_poly_text([q0, q1])})",
        g0=Fraction(p[0], q0),
        g1=Fraction(sum(p), q0 + q1) - 1,
        lipschitz=None,
    )


def ifneg_map(rng: Random) -> GeneratedMap:
    """Two polynomial pieces split at a threshold that is not dyadic."""
    den = rng.choice((3, 5, 7, 9, 11))
    threshold = Fraction(rng.randint(1, den - 1), den)
    left_c, left_den = _poly_coefficients(rng, 2)
    right_c, right_den = _poly_coefficients(rng, 1)
    return GeneratedMap(
        text=(
            f"ifneg(x - {threshold}, ({_poly_text(left_c)})/{left_den}, "
            f"({_poly_text(right_c)})/{right_den})"
        ),
        g0=Fraction(left_c[0], left_den),
        g1=Fraction(sum(right_c), right_den) - 1,
        lipschitz=None,
    )


# The kinds of map solve-deep cycles through. Each seed draws new
# coefficients for the same kinds and degrees, with no zero terms.
SOLVE_DEEP_KINDS = ("poly1", "poly2", "poly3", "rational", "ifneg")


def generated_map(rng: Random, kind: str) -> GeneratedMap:
    if kind.startswith("poly"):
        return poly_map(rng, int(kind[4:]))
    if kind == "rational":
        return rational_map(rng)
    return ifneg_map(rng)


def solve_deep_maps(seed: int, count: int) -> list[GeneratedMap]:
    """`count` maps whose kinds cycle through SOLVE_DEEP_KINDS."""
    rng = Random(f"solve-deep:{seed}")
    return [generated_map(rng, SOLVE_DEEP_KINDS[k % len(SOLVE_DEEP_KINDS)]) for k in range(count)]


def rational_grid(rng: Random, vertices: int) -> list[Fraction]:
    """Strictly increasing rationals with non-uniform steps n/d, 1 <= n <= 9,
    1 <= d <= 12. Every seed uses the same steps in a different order, so
    grids of one size cost about the same to process."""
    steps = [Fraction(1 + k % 9, 1 + (k // 9) % 12) for k in range(vertices - 1)]
    rng.shuffle(steps)
    v = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
    out = [v]
    for step in steps:
        v += step
        out.append(v)
    return out


def sperner_labels(rng: Random, vertices: int, transitions: int) -> list[int]:
    """0 first, 1 last, with the label flipping across `transitions` seeded
    edges (an odd number, so the last label is 1)."""
    if transitions % 2 == 0 or not 0 < transitions < vertices:
        raise ValueError("need an odd number of transitions, fewer than the vertices")
    flips = set(rng.sample(range(1, vertices), transitions))
    labels = [0]
    for j in range(1, vertices):
        labels.append(1 - labels[-1] if j in flips else labels[-1])
    return labels


def digest(items) -> str:
    """sha256 of the inputs' text form; equal inputs give equal digests."""
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()
