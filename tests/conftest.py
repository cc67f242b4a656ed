import random
from fractions import Fraction

import pytest

from polyhodge.generators import instance_corpus
from polyhodge.polytope import LatticePolytope
from polyhodge.subdivision import HeightFunction, regular_subdivision


def quartic_triangle_pair():
    """The subdivided degree-4 triangle used as the worked end-to-end example:
    heights 1 on the vertices, 0 on the three interior points."""
    p = LatticePolytope.convex_hull([(0, 0), (4, 0), (0, 4)])
    heights = {
        (0, 0): Fraction(1),
        (4, 0): Fraction(1),
        (0, 4): Fraction(1),
        (1, 1): Fraction(0),
        (2, 1): Fraction(0),
        (1, 2): Fraction(0),
    }
    return regular_subdivision(HeightFunction(p, heights))


@pytest.fixture(scope="session")
def quartic_triangle():
    return quartic_triangle_pair()


@pytest.fixture(scope="session")
def corpus25():
    """25 random subdivided polytopes in dimensions 1-3, fixed seed."""
    return instance_corpus(20240, 25)


@pytest.fixture(scope="session")
def corpus_dim23(corpus25):
    return [s for s in corpus25 if s.polytope.dim >= 2]


def unit_simplex(dim):
    if dim == 0:
        return LatticePolytope.convex_hull([(0,)])
    pts = [(0,) * dim] + [
        tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)
    ]
    return LatticePolytope.convex_hull(pts)


def cube(dim):
    import itertools

    return LatticePolytope.convex_hull(list(itertools.product((0, 1), repeat=dim)))


def segment(length):
    return LatticePolytope.convex_hull([(0,), (length,)])


def cross_polytope(dim):
    pts = [
        tuple(s if i == j else 0 for j in range(dim))
        for i in range(dim)
        for s in (1, -1)
    ]
    return LatticePolytope.convex_hull(pts)
