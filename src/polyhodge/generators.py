"""Seeded random instances for the verification suite and property tests.

Sizes are kept small (dimension <= 3, coordinates <= ~4) so that the full
invariant tower stays fast while still exercising non-simplicial cells,
boundary subdivision and lower-dimensional carriers.
"""

from __future__ import annotations

import random

from .polytope import LatticePolytope
from .subdivision import CellComplex, HeightFunction, regular_subdivision, trivial_subdivision


def random_lattice_polytope(rng: random.Random, dim: int) -> LatticePolytope:
    """A full-dimensional lattice polytope in Z^dim, the hull of dim + 2 to
    dim + 4 random points with coordinates in 0..3."""
    n_points = dim + 2 + rng.randrange(3)
    while True:
        pts = {tuple(rng.randint(0, 3) for _ in range(dim)) for _ in range(n_points)}
        if len(pts) <= dim:
            continue
        poly = LatticePolytope.convex_hull(sorted(pts))
        if poly.dim == dim:
            return poly


def random_height_function(rng: random.Random, polytope: LatticePolytope) -> HeightFunction:
    """Random heights a/b, 0 <= a <= 3 and 1 <= b <= 2, on the vertices and a
    few lattice points of P."""
    from fractions import Fraction  # loaded only when random instances are drawn

    domain = set(polytope.vertices)
    candidates = [p for p in polytope.lattice_points() if p not in domain]
    rng.shuffle(candidates)
    domain.update(candidates[: rng.randrange(0, len(candidates) + 1)])
    heights = {
        p: Fraction(rng.randint(0, 3), rng.randint(1, 2))
        for p in sorted(domain)
    }
    return HeightFunction(polytope, heights)


def random_subdivided_polytope(rng: random.Random, dim: int) -> CellComplex:
    """A random (P, S) pair: regular subdivision from random heights."""
    poly = random_lattice_polytope(rng, dim)
    if rng.random() < 0.2:
        return trivial_subdivision(poly)
    return regular_subdivision(random_height_function(rng, poly))


def instance_corpus(seed: int, count: int, dims=(1, 2, 3)) -> list[CellComplex]:
    """A reproducible list of (P, S) instances cycling through dimensions."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        dim = dims[i % len(dims)]
        out.append(random_subdivided_polytope(rng, dim))
    return out
