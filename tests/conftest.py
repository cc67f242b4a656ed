import itertools
import random
from fractions import Fraction
from functools import cache
from math import comb, prod

import pytest
from hypothesis import strategies as st

from polyhodge import invariants as inv, linalg
from polyhodge.generators import instance_corpus
from polyhodge.laurent import ONE, U_OVER_V, U, UV, UVW2, V, W, ZERO, from_univariate
from polyhodge.polytope import LatticePolytope
from polyhodge.poset import EulerianPoset
from polyhodge.subdivision import CellComplex, HeightFunction, regular_subdivision


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


def simplex_from_incidence(vertices):
    """The simplex on sorted, distinct, affinely independent lattice points,
    built from its incidence: each facet leaves out one vertex."""
    top = (1 << len(vertices)) - 1
    masks = [top ^ (1 << i) for i in range(len(vertices))] if top > 1 else []
    return LatticePolytope.from_incidence(vertices, len(vertices) - 1, masks)


def cube(dim):
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


# -- Eulerian reference -------------------------------------------------------------


def eulerian_by_signed_sums(elements, leq, rank):
    """Every interval [z, x] with z < x has sum of (-1)^rank(y) over y in it
    equal to 0, summed element by element through ``leq``."""
    return all(
        sum((-1) ** rank(y) for y in elements if leq(z, y) and leq(y, x)) == 0
        for z in elements
        for x in elements
        if z != x and leq(z, x)
    )


def poset_is_eulerian(poset):
    """The signed-sum reference on a built poset, read off its ``up`` masks."""
    return eulerian_by_signed_sums(
        range(len(poset)), lambda z, x: poset.up[z] >> x & 1, poset.ranks.__getitem__
    )


def poset_from_leq(elements, leq):
    """``EulerianPoset.from_masks`` of the order that a reflexive partial
    order callable leq(a, b) gives on the elements."""
    elements = tuple(elements)
    up = [sum(1 << j for j, b in enumerate(elements) if leq(a, b)) for a in elements]
    return EulerianPoset.from_masks(elements, up)


# -- face references ------------------------------------------------------------


def faces_of_dim(lattice, k):
    """The ids of a face lattice's faces of dimension k, in increasing order."""
    return tuple(fid for fid, dim in lattice.faces.items() if dim == k)


def mask(indices):
    """The face id of the face with these vertex indices: its vertex bitmask."""
    return sum(1 << i for i in indices)


def dot_incidence(p):
    """Vertex index sets of p's facets, in facet order, by dot products."""
    return [
        frozenset(i for i, v in enumerate(p._model_vertices) if linalg.dot(a, v) == b)
        for a, b in p._facets
    ]


def face_dims_reference(p):
    """Face id -> dimension: the closure of the facets' vertex sets under
    intersection, with P and the empty face, each dimension the rank of the
    face's vertex differences."""
    faces = {frozenset(range(len(p.vertices))), frozenset()}
    work = list(faces)
    while work:
        f = work.pop()
        for t in dot_incidence(p):
            if f & t not in faces:
                faces.add(f & t)
                work.append(f & t)
    dims = {}
    for f in faces:
        vs = [p.vertices[i] for i in sorted(f)]
        diffs = [linalg.vec_sub(v, vs[0]) for v in vs[1:]]
        dims[tuple(sorted(f))] = linalg.rank(diffs) if diffs else len(vs) - 1
    return dims


def carrier_reference(s, cell):
    """The smallest face of P holding the cell: the intersection of the
    facets' vertex sets over the facets that hold every vertex of the cell."""
    p = s.polytope
    pts = [p._map.to_model(v) for v in cell.vertices]
    face = set(range(len(p.vertices)))
    for (a, b), tight in zip(p._facets, dot_incidence(p)):
        if all(linalg.dot(a, x) == b for x in pts):
            face &= tight
    return tuple(sorted(face))


def cells_containing_scan(s, cell):
    """The cells above a cell, in ``cells`` order: the faces, with the
    cell's vertices, of every maximal cell whose own face lattice holds the
    cell."""
    if cell.is_empty:
        return s.cells
    vertices = set(cell.vertices)
    above = set()
    for top in s.maximal_cells:
        lattice = top.face_lattice()
        faces = [lattice.face_polytope(fid) for fid in lattice.all_faces() if fid]
        if cell in faces:
            above.update(b for b in faces if vertices <= set(b.vertices))
    return tuple(sorted(above, key=lambda b: (b.dim, b.vertices)))


def model_complex(s):
    """S rewritten in the lattice of P's affine span: S itself when P is
    full-dimensional, else the complex of its maximal cells mapped by P's
    unimodular model map."""
    map_ = s.polytope._map
    if map_.is_identity:
        return s
    hull = LatticePolytope.convex_hull
    kept = [hull([map_.to_model(v) for v in cell.vertices]) for cell in s.maximal_cells]
    return CellComplex.interned(hull(s.polytope._model_vertices), kept)


# -- h*-tower reference ---------------------------------------------------------


def restriction_tower(s):
    """Face id -> (h*(Q, S|Q), l*(Q, S|Q), h*(Q, S|Q; w)) for every nonempty
    face Q of P, each computed on the restricted complex ``s.restrict(Q)``:
    h* in its link form, then l* and the refined polynomial summed over the
    faces of Q with g read off Q's own face lattice."""
    found = {}

    def levels(r):
        if r.key not in found:
            lattice = r.polytope.face_lattice()
            top = lattice.top
            proper = {
                fid: levels(r.restrict(fid)) for fid in lattice.all_faces() if fid and fid != top
            }
            limit = inv.limit_mixed_h_star_by_links(r)
            local = ZERO
            for fid in lattice.all_faces():
                inner = ONE if not fid else limit if fid == top else proper[fid][0]
                sign = (-1) ** (r.polytope.dim - lattice.face_dim(fid))
                g = lattice.g(fid, top, dual=True)
                local = local + sign * inner * g.substitute({"t": UV})
            refined = ZERO
            for fid in lattice.all_faces():
                inner = ONE if not fid else local if fid == top else proper[fid][1]
                g = lattice.g(fid, top).substitute({"t": UVW2})
                refined = refined + W ** (lattice.face_dim(fid) + 1) * inner * g
            found[r.key] = (limit, local, refined)
        return found[r.key]

    lattice = s.polytope.face_lattice()
    return {fid: levels(s.restrict(fid)) for fid in lattice.all_faces() if fid}


# -- lattice point references ---------------------------------------------------


def box_scan_lattice_points(p, m=1, interior=False):
    """Lattice points of the m-th dilate of p in model coordinates, by testing
    every point of the dilate's bounding box against every facet, in
    lexicographic order."""
    if p.is_empty:
        return []
    if p.dim == 0:
        return [p._model_vertices[0]]
    verts = [tuple(m * c for c in v) for v in p._model_vertices]
    lo = [min(v[i] for v in verts) for i in range(p.dim)]
    hi = [max(v[i] for v in verts) for i in range(p.dim)]
    facets = [(a, m * b) for a, b in p._facets]
    out = []
    for x in itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi))):
        values = [sum(ai * xi for ai, xi in zip(a, x)) - b for a, b in facets]
        if all(v > 0 if interior else v >= 0 for v in values):
            out.append(x)
    return out


@cache
def h_star_by_box_scan(p):
    """h* by the alternating-binomial convolution of the lattice point counts
    of the dilates 0..dim p, each counted by ``box_scan_lattice_points``;
    kept per polytope, as the face walks below read each face many times."""
    if p.is_empty:
        return ONE
    d = p.dim
    counts = [len(box_scan_lattice_points(p, m)) if m else 1 for m in range(d + 1)]
    return from_univariate(
        {k: sum((-1) ** j * comb(d + 1, j) * counts[k - j] for j in range(k + 1)) for k in range(d + 1)},
        "u",
    )


def h_star_by_counting(p):
    """h* from the lattice point counts of the dilates 0..dim P, by the
    alternating-binomial sum, with no shortcut: every dilate is counted,
    none is read off reciprocity or a box."""
    if p.is_empty:
        return ONE
    d = p.dim
    counts = [p.lattice_point_count(m) for m in range(d + 1)]
    coeffs = {
        k: sum((-1) ** j * comb(d + 1, j) * counts[k - j] for j in range(k + 1))
        for k in range(d + 1)
    }
    return from_univariate(coeffs, "u")


def local_h_star_by_faces(p):
    """l* by the face walk: the sum over the faces Q of p, the empty one
    included, of (-1)^(dim p - dim Q) h*(Q) g([Q, p]*; u), with each h* by
    ``h_star_by_box_scan``."""
    if p.is_empty:
        return ONE
    lattice = p.face_lattice()
    total = ZERO
    for fid in lattice.all_faces():
        sign = (-1) ** (p.dim - lattice.face_dim(fid))
        g = lattice.g(fid, lattice.top, dual=True).substitute({"t": U})
        total = total + sign * h_star_by_box_scan(lattice.face_polytope(fid)) * g
    return total


def mixed_h_star_by_faces(p):
    """h*(p; u, v) by the face walk: the sum over the faces Q of p, the empty
    one included, of v^(dim Q + 1) l*(Q; u/v) g([Q, p]; uv), with each l* by
    ``local_h_star_by_faces``."""
    if p.is_empty:
        return ONE
    lattice = p.face_lattice()
    total = ZERO
    for fid in lattice.all_faces():
        q = lattice.face_polytope(fid)
        local = local_h_star_by_faces(q).substitute({"u": U_OVER_V})
        g = lattice.g(fid, lattice.top).substitute({"t": UV})
        total = total + V ** (q.dim + 1) * local * g
    return total


@st.composite
def random_simplices(draw):
    """The vertices of a lattice simplex of dimension 0 to 5 in Z^n, n <= 6.

    It is the origin and the rows of a lower triangular Hermite normal form
    (0 <= h_ij < h_jj), so its normalized volume is the product of the
    diagonal, up to 50.  The oracle scans every point of the bounding box of
    each dilate 1..dim, at least (dim + 1)^dim points in the last, so the
    volume is capped at 4 in dimension 5, and dimension 6 is left to explicit
    examples.  The simplex is then moved by a signed permutation, up to two
    shears x_i += c x_j and a translation: a unimodular map, which places a
    simplex of dimension below n in a sublattice of its own.
    """
    d = draw(st.integers(0, 5))
    cap = 4 if d == 5 else 50
    diag = []
    for _ in range(d):
        diag.append(draw(st.integers(1, cap // prod(diag))))
    n = min(6, draw(st.integers(max(d, 1), max(d, 1) + 2)))
    rows = [[0] * n]
    for i, h in enumerate(diag):
        rows.append([draw(st.integers(0, diag[j] - 1)) for j in range(i)] + [h] + [0] * (n - 1 - i))
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    rows = [[s * r[k] for s, k in zip(signs, perm)] for r in rows]
    for _ in range(draw(st.integers(0, 2)) if n > 1 else 0):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        c = draw(st.integers(-2, 2))
        for r in rows:
            r[i] += c * r[j]
    shift = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    return sorted(tuple(x + t for x, t in zip(r, shift)) for r in rows)


@st.composite
def random_polytope_points(draw, min_dim=0, max_dim=5, embed=True):
    """Lattice points whose hull is a polytope of dimension at most d, drawn
    in min_dim..max_dim: d + 2 to d + 6 points of the box [0, c]^d, c = 3 up
    to dimension 3 and 1 above, so that the oracles' counts of the dilates
    stay small.  With ``embed`` they may be put on the hyperplane
    x_(d+1) = <a, x> + b of Z^(d+1), so that the hull is lower-dimensional.
    """
    d = draw(st.integers(min_dim, max_dim))
    c = 3 if d <= 3 else 1
    point = st.tuples(*[st.integers(0, c)] * d)
    size = min(d + 2, (c + 1) ** d)
    points = draw(st.lists(point, min_size=size, max_size=d + 6, unique=True))
    if embed and draw(st.booleans()):
        a = draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
        b = draw(st.integers(-3, 3))
        points = [x + (sum(ai * xi for ai, xi in zip(a, x)) + b,) for x in points]
    return points


# -- exact rational references -------------------------------------------------


def rref_oracle(rows):
    """Reduced row echelon form over Q: (nonzero rows, pivot columns)."""
    m = [[Fraction(x) for x in r] for r in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def solve_oracle(rows, rhs):
    """One solution of rows @ x = rhs over Q (free variables 0), or None."""
    red, pivots = rref_oracle([list(r) + [b] for r, b in zip(rows, rhs)])
    ncols = len(rows[0])
    if pivots and pivots[-1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for row, p in zip(red, pivots):
        x[p] = row[-1]
    return tuple(x)


def cone_contains_reference(rays, point) -> bool:
    """Caratheodory: a point lies in the cone spanned by rays iff it is a
    nonnegative combination of some linearly independent subset of them."""
    if all(x == 0 for x in point):
        return True
    rank = len(rref_oracle(rays)[1])
    for size in range(1, rank + 1):
        for subset in itertools.combinations(rays, size):
            if len(rref_oracle(subset)[1]) != size:
                continue
            cols = [tuple(ray[i] for ray in subset) for i in range(len(point))]
            sol = solve_oracle(cols, list(point))
            if sol is not None and all(c >= 0 for c in sol):
                return True
    return False
