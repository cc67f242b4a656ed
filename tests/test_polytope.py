import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from polyhodge import cli, linalg, memo, polytope
from polyhodge.fans import TruncatedNormalFan
from polyhodge.polytope import FaceLattice, LatticePolytope
from polyhodge.subdivision import trivial_subdivision

from conftest import (
    box_scan_lattice_points,
    carrier_reference,
    cross_polytope,
    cube,
    dot_incidence,
    face_dims_reference,
    faces_of_dim,
    mask,
    poset_is_eulerian,
    random_simplices,
    segment,
    simplex_from_incidence,
    solve_oracle,
    unit_simplex,
)


def in_convex_hull(point, others, dim):
    """Independent certificate: point lies in conv(others) iff it lies in the
    simplex of some affinely independent subset of size <= dim + 1."""
    for size in range(1, dim + 2):
        for subset in itertools.combinations(others, size):
            base = subset[0]
            rows = [linalg.vec_sub(q, base) for q in subset[1:]]
            if linalg.rank(rows) != size - 1:
                continue
            cols = [tuple(r[i] for r in rows) for i in range(dim)]
            target = linalg.vec_sub(point, base)
            sol = solve_oracle(cols, list(target)) if rows else ()
            if rows:
                if sol is None:
                    continue
                if not all(
                    sum(l * r[i] for l, r in zip(sol, rows)) == target[i]
                    for i in range(dim)
                ):
                    continue
                if all(l >= 0 for l in sol) and sum(sol) <= 1:
                    return True
            else:
                if point == base:
                    return True
    return False


def test_hull_of_subdivided_triangle_points():
    p = LatticePolytope.convex_hull([(0, 0), (4, 0), (0, 4), (1, 1), (2, 1), (1, 2)])
    assert p.vertices == ((0, 0), (0, 4), (4, 0))
    assert p.dim == 2


def test_hull_of_single_point():
    p = LatticePolytope.convex_hull([(3, -1)])
    assert p.dim == 0
    assert p.vertices == ((3, -1),)


def test_hull_rejects_coordinates_that_are_not_integers():
    # Truncating them would turn (0.9, 0) into the vertex (0, 0).
    for bad in (0.9, True, "1", Fraction(1)):
        with pytest.raises(ValueError, match="coordinates must be integers"):
            LatticePolytope.convex_hull([(bad, 0), (2, 0), (0, 2)])


def test_hull_vertices_match_brute_force_certificate():
    rng = random.Random(12)
    pts = sorted({tuple(rng.randint(0, 10) for _ in range(3)) for _ in range(16)})
    hull = LatticePolytope.convex_hull(pts)
    for p in pts:
        others = [q for q in pts if q != p]
        inside = in_convex_hull(p, others, 3)
        assert (p in hull.vertices) == (not inside)


def test_hull_certification_rejects_a_wrong_facet(monkeypatch):
    facet_plane = polytope._facet_plane

    def shifted(points, inside, scale):
        a, b = facet_plane(points, inside, scale)
        return a, b + 1

    monkeypatch.setattr(polytope, "_facet_plane", shifted)
    with pytest.raises(RuntimeError, match="hull certification failed"):
        polytope._hull_in_full_dim(2, [(0, 0), (2, 0), (0, 2), (1, 1)])


def test_a_face_interned_by_one_lattice_is_not_hulled_again(monkeypatch):
    memo.clear()
    square = ((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0))
    pyramid = LatticePolytope.convex_hull(square + ((0, 0, -1),))
    lattices = [cube(3).face_lattice(), pyramid.face_lattice()]
    fids = [mask(i for i, v in enumerate(l.polytope.vertices) if v in square) for l in lattices]
    hulls = []
    hull = LatticePolytope.convex_hull

    def counted(points):
        hulls.append(tuple(points))
        return hull(points)

    monkeypatch.setattr(LatticePolytope, "convex_hull", staticmethod(counted))
    face = lattices[0].face_polytope(fids[0])
    assert hulls == [] and face._hull is None
    assert lattices[1].face_polytope(fids[1]) is face
    assert hulls == []
    # Every face is built from its lattice's incidence, with no hull.
    edge = lattices[1].face_polytope(mask((0, 1)))
    assert hulls == [] and edge._hull is None
    other = next(f for f in faces_of_dim(lattices[0], 2) if f != fids[0])
    other = lattices[0].face_polytope(other)
    assert other._hull is None
    assert hulls == []


def assert_reads_as_its_hull(p):
    """p reads as ``_build_hull`` of its vertices: vertices, dimension,
    facets, masks in facet order, model vertices, model map and faces."""
    faces = dict(p.face_lattice().faces)
    masks = set(p._facet_masks)
    hull = polytope._build_hull(p.ambient_dim, list(p.vertices))
    read = (p.vertices, p.dim, p._facets, p._facet_masks, p._model_vertices)
    assert read == (hull.vertices, hull.dim, hull._facets, hull._facet_masks, hull._model_vertices)
    assert masks == set(hull._facet_masks)
    assert faces == FaceLattice(hull).faces
    assert [p._map.to_model(v) for v in p.vertices] == list(hull._model_vertices)
    assert (p._map.origin, p._map.basis) == (hull._map.origin, hull._map.basis)


@settings(max_examples=40, deadline=None)
@given(random_simplices())
def test_a_simplex_built_from_its_vertices_reads_as_its_hull(vertices):
    memo.clear()
    p = simplex_from_incidence(vertices)
    assert LatticePolytope.convex_hull(vertices) is p
    assert_reads_as_its_hull(p)


@pytest.mark.parametrize(
    "source",
    ["ladder_6x3.json", "ladder_3x4.json", "cube4.json", "cross4_refinement.json", "corpus25"],
)
def test_a_polytope_built_from_its_incidence_reads_as_its_hull(source, request):
    # Every cell is a face of a maximal cell; on cube4 and cross4 the cells
    # are the faces of P, most of them lower-dimensional, with model maps.
    if source == "corpus25":
        complexes = request.getfixturevalue("corpus25")
    else:
        memo.clear()
        complexes = [cli.build_complex(cli.parse_input(Path(__file__).parent / "data" / source))]
    for s in complexes:
        for lattice in (top.face_lattice() for top in s.maximal_cells):
            for fid in lattice.all_faces()[1:]:
                assert_reads_as_its_hull(lattice.face_polytope(fid))


def test_a_triangulation_hulls_no_simplex(monkeypatch):
    # 6*D3 with heights: 169 maximal cells, 59 of its 1 019 cells no simplex.
    memo.clear()
    hulled = []
    build = polytope._build_hull

    def counted(n, pts):
        diffs = [linalg.vec_sub(q, pts[0]) for q in pts]
        hulled.append(len(pts) == linalg.rank(diffs) + 1)
        return build(n, pts)

    monkeypatch.setattr(polytope, "_build_hull", counted)
    path = Path(__file__).parent / "data" / "ladder_6x3.json"
    assert cli.main(["hodge", str(path)]) == 0
    s = cli.build_complex(cli.parse_input(path))
    nonsimplex = [c for c in s.cells[1:] if len(c.vertices) != c.dim + 1]
    assert not any(hulled)
    # P and the lifted hull: every cell, simplex or not, is built from the
    # lifted hull's incidence.
    assert len(hulled) == 2 and len(nonsimplex) == 59


def test_beneath_beyond_runs_only_on_point_sets(monkeypatch):
    runs = []
    hull_in_full_dim = polytope._hull_in_full_dim

    def counted(d, pts):
        runs.append(sorted(pts))
        return hull_in_full_dim(d, pts)

    monkeypatch.setattr(polytope, "_hull_in_full_dim", counted)
    data = Path(__file__).parent / "data"
    memo.clear()
    parsed = cli.parse_input(data / "ladder_5x4.json")
    runs.clear()
    s = cli.build_complex(parsed)
    assert len(runs) == 1 and len(s.maximal_cells) > 1  # the lifted hull
    memo.clear()
    runs.clear()
    assert cli.main(["stringy", str(data / "cube4.json")]) == 0
    # P, the 16 points of the file, and its dual, the hull of P's 8 normals.
    normals = sorted(tuple(sign * (i == j) for j in range(4)) for i in range(4) for sign in (-1, 1))
    assert runs == [list(itertools.product((-1, 1), repeat=4)), normals]


def test_face_lattice_counts():
    assert len(cube(2).face_lattice().faces) == 10
    tri = LatticePolytope.convex_hull([(0, 0), (4, 0), (0, 4)])
    assert len(tri.face_lattice().faces) == 8
    assert cube(3).face_lattice().f_vector() == (1, 8, 12, 6, 1)


def test_face_lattices_are_eulerian():
    rng = random.Random(5)
    polys = [cube(2), cube(3), unit_simplex(3)]
    for _ in range(4):
        pts = {tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(6)}
        p = LatticePolytope.convex_hull(sorted(pts))
        polys.append(p)
    for p in polys:
        assert poset_is_eulerian(p.face_lattice().poset())


def assert_faces_match_the_reference(p):
    incidence = dot_incidence(p)
    assert [mask(t) for t in incidence] == list(p._facet_masks)
    lattice = FaceLattice(p)
    dims = {mask(f): k for f, k in face_dims_reference(p).items()}
    vertex_sets = {mask(f): set(f) for f in face_dims_reference(p)}
    assert lattice.faces == dims
    faces = lattice.all_faces()
    assert faces == tuple(sorted(dims, key=lambda f: (dims[f], f)))
    assert lattice.f_vector() == tuple(
        list(dims.values()).count(k) for k in range(-1, p.dim + 1)
    )
    poset = lattice.poset()
    assert poset.elements == faces
    for i, f in enumerate(faces):
        for j, g in enumerate(faces):
            leq = vertex_sets[f] <= vertex_sets[g]
            assert lattice.leq(f, g) == bool(poset.up[i] >> j & 1) == leq
    # A facet normal is least on its facet, so face_of names the facet.
    if p.dim > 0:
        fan = TruncatedNormalFan(p)
        assert [fan.face_of(a) for a, _ in p._facets] == [mask(t) for t in incidence]


def assert_carriers_match_the_reference(s):
    for cell in s.cells[1:]:
        assert s.carrier(cell) == mask(carrier_reference(s, cell))


@st.composite
def small_polytopes(draw):
    """The hull of 1 to d + 3 points of {0, 1, 2}^d, d in 0..5, so lower-
    dimensional hulls come up too; half of them are lifted into the affine
    plane x_(d+1) = x_1 + ... + x_d - 1 of Z^(d+1)."""
    d = draw(st.integers(0, 5))
    pts = draw(
        st.lists(st.tuples(*[st.integers(0, 2)] * d), min_size=1, max_size=d + 3, unique=True)
    )
    if draw(st.booleans()):
        pts = [p + (sum(p) - 1,) for p in pts]
    return LatticePolytope.convex_hull(pts)


@settings(max_examples=100, deadline=None)
@given(small_polytopes())
def test_faces_from_the_incidence_match_the_reference(p):
    assert_faces_match_the_reference(p)
    assert_carriers_match_the_reference(trivial_subdivision(p))


def test_faces_of_every_corpus_cell_match_the_reference(corpus25):
    for s in corpus25:
        assert_carriers_match_the_reference(s)
        for cell in s.cells[1:]:
            assert_faces_match_the_reference(cell)


def test_face_lattices_posets_and_hull_vertices_take_no_rank(monkeypatch):
    in_space = LatticePolytope.convex_hull([(1, 0, 2), (3, 1, 0), (0, 2, 2)])
    polytopes = [cube(4), cross_polytope(4), unit_simplex(0), segment(3), in_space]
    octahedron = cross_polytope(3).vertices
    rank, calls = linalg.rank, []

    def counting_rank(rows):
        calls.append(len(rows))
        return rank(rows)

    monkeypatch.setattr(linalg, "rank", counting_rank)
    for p in polytopes:
        FaceLattice(p).poset()
    assert calls == []
    # The 3-cross-polytope with its origin, in sorted order: its first four
    # points are affinely independent, so the starting simplex takes three
    # rank calls, and the vertex test takes none.
    facets, vertices = polytope._hull_in_full_dim(3, sorted(octahedron + ((0, 0, 0),)))
    assert len(facets) == 8
    assert vertices == list(octahedron)
    assert len(calls) == 3


def count_triangle_dilate(m):
    return sum(1 for x in range(4 * m + 1) for y in range(4 * m + 1) if x + y <= 4 * m)


def test_lattice_point_counts():
    assert cube(2).lattice_point_count(3) == 16
    tri = LatticePolytope.convex_hull([(0, 0), (4, 0), (0, 4)])
    assert tri.lattice_point_count(1) == count_triangle_dilate(1) == 15
    assert tri.lattice_point_count(2) == count_triangle_dilate(2)
    assert LatticePolytope.empty(2).lattice_point_count(5) == 0
    assert tri.lattice_point_count(0) == 1


def test_interior_lattice_point_counts():
    seg = LatticePolytope.convex_hull([(0, 0), (4, 0)])
    assert seg.interior_lattice_point_count() == 3
    tri = LatticePolytope.convex_hull([(1, 1), (2, 1), (1, 2)])
    assert tri.interior_lattice_point_count() == 0
    quad = LatticePolytope.convex_hull([(0, 0), (4, 0), (2, 1), (1, 1)])
    assert quad.interior_lattice_point_count() == 0
    pt = LatticePolytope.convex_hull([(7,)])
    assert pt.interior_lattice_point_count() == 1


def test_boundary_plus_interior():
    rng = random.Random(31)
    for _ in range(5):
        pts = {tuple(rng.randint(0, 4) for _ in range(2)) for _ in range(6)}
        p = LatticePolytope.convex_hull(sorted(pts))
        if p.dim < 2:
            continue
        lattice = p.face_lattice()
        boundary = sum(
            lattice.face_polytope(f).interior_lattice_point_count()
            for f in lattice.all_faces()
            if f and f != lattice.top
        )
        assert p.lattice_point_count(1) == boundary + p.interior_lattice_point_count()


def assert_matches_box_scan(p):
    for m in range(p.dim + 2):
        assert p.lattice_point_count(m) == len(box_scan_lattice_points(p, m))
        for interior in (False, True):
            expected = box_scan_lattice_points(p, m, interior)
            assert p.model_lattice_points(m, interior) == expected
    assert p.interior_lattice_point_count() == len(box_scan_lattice_points(p, 1, True))


@pytest.mark.parametrize(
    "pts",
    [
        # The slanted side x + y <= 2 is parallel to the long prism axis but
        # is not a side of the bounding box.
        [(x, y, z) for x, y in ((0, 0), (2, 0), (0, 2)) for z in (0, 5)],
        # Long along the first axis: sorted order is not fiber order.
        [(0, 0), (5, 0), (0, 1)],
        [(0, 0, 0), (7, 0, 1), (0, 1, 1), (3, 1, 0)],
        [(2, 0), (2, 9)],
        [(1, 2, 3)],
    ],
)
def test_fiber_counts_match_the_box_scan_on_fixed_polytopes(pts):
    assert_matches_box_scan(LatticePolytope.convex_hull(pts))


@st.composite
def sheared_polytopes(draw):
    """Hulls of a few points of a small box in Z^d, padded with zeros to Z^n
    (n >= d) and moved by a signed permutation and one shear x_i += s * x_j,
    so that the longest side of a dilate's box can be any axis."""
    d = draw(st.integers(0, 4))
    width = (1, 4, 3, 2, 1)[d]  # keeps the box scan of the dilates small
    pts = draw(
        st.lists(st.tuples(*[st.integers(0, width)] * d), min_size=1, max_size=d + 3)
    )
    n = d + draw(st.integers(0, 2))
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    padded = [p + (0,) * (n - d) for p in pts]
    moved = [tuple(signs[i] * p[perm[i]] for i in range(n)) for p in padded]
    if n >= 2:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        s = draw(st.sampled_from((1, -1)))
        moved = [p[:i] + (p[i] + s * p[j],) + p[i + 1 :] for p in moved]
    return LatticePolytope.convex_hull(moved)


@settings(max_examples=100, deadline=None)
@given(sheared_polytopes())
def test_fiber_counts_match_the_box_scan(p):
    assert_matches_box_scan(p)


def lagrange_fit(values):
    """Exact polynomial through (0, values[0]), ..., (d, values[d])."""

    def evaluate(m):
        total = Fraction(0)
        d = len(values) - 1
        for i, v in enumerate(values):
            term = Fraction(v)
            for j in range(d + 1):
                if j != i:
                    term *= Fraction(m - j, i - j)
            total += term
        return total

    return evaluate


def test_ehrhart_is_polynomial():
    rng = random.Random(77)
    for _ in range(4):
        pts = {tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(7)}
        p = LatticePolytope.convex_hull(sorted(pts))
        d = p.dim
        fit = lagrange_fit([p.lattice_point_count(m) for m in range(d + 1)])
        for m in range(d + 1, d + 4):
            assert fit(m) == p.lattice_point_count(m)


def random_unimodular(rng, n):
    # Product of random elementary matrices: determinant +-1 by construction.
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(6):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(n):
            mat[i][k] += c * mat[j][k]
    return mat


def test_counts_invariant_under_unimodular_maps():
    rng = random.Random(4)
    tri = LatticePolytope.convex_hull([(0, 0), (4, 0), (0, 4)])
    for _ in range(5):
        mat = random_unimodular(rng, 2)
        shift = (rng.randint(-3, 3), rng.randint(-3, 3))
        moved = LatticePolytope.convex_hull(
            [
                tuple(sum(mat[i][k] * v[k] for k in range(2)) + shift[i] for i in range(2))
                for v in tri.vertices
            ]
        )
        for m in range(4):
            assert moved.lattice_point_count(m) == tri.lattice_point_count(m)
        assert moved.normalized_volume() == tri.normalized_volume()


def test_dual_and_reflexive():
    diamond = LatticePolytope.convex_hull([(1, 0), (-1, 0), (0, 1), (0, -1)])
    square = LatticePolytope.convex_hull([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    assert diamond.reflexive_check()
    assert diamond.dual_polytope().vertices == square.vertices
    assert square.dual_polytope().vertices == diamond.vertices
    assert square.dual_polytope().dual_polytope().vertices == square.vertices
    tall = LatticePolytope.convex_hull([(1, 0), (-1, 0), (0, 2), (0, -2)])
    assert not tall.reflexive_check()
    with pytest.raises(ValueError):
        tall.dual_polytope()
    off = LatticePolytope.convex_hull([(0, 0), (1, 0), (0, 1)])
    with pytest.raises(ValueError):
        off.dual_polytope()


def fraction_dual_vertices(p):
    """Vertices a / -b of the polar dual, one per facet <a, x> >= b, as
    Fractions; None unless P is full-dimensional with the origin inside."""
    if p.dim != p.ambient_dim or not all(b < 0 for _, b in p._facets):
        return None
    return [tuple(Fraction(x, -b) for x in a) for a, b in p._facets]


def reflexive_reference(p):
    duals = fraction_dual_vertices(p)
    return duals is not None and all(x.denominator == 1 for v in duals for x in v)


REFLEXIVE = [
    cross_polytope(2),
    cross_polytope(3),
    LatticePolytope.convex_hull([(-1, -1), (2, -1), (-1, 2)]),
    LatticePolytope.convex_hull([(-1, -1, -1), (3, -1, -1), (-1, 3, -1), (-1, -1, 3)]),
    LatticePolytope.convex_hull(list(itertools.product((-1, 1), repeat=3))),
    LatticePolytope.convex_hull([()]),  # the point of R^0 is its own dual
]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda d: st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=1, max_size=7)
    )
)
def test_reflexive_check_matches_the_fraction_dual(pts):
    p = LatticePolytope.convex_hull(pts)
    assert p.reflexive_check() == reflexive_reference(p)


def test_reflexive_check_and_double_dual_on_reflexive_and_scaled_polytopes():
    for p in REFLEXIVE:
        assert p.reflexive_check() and reflexive_reference(p)
        dual = p.dual_polytope()
        assert dual.dual_polytope() == p
        if not p.dim:
            assert dual is p
            continue
        expected = fraction_dual_vertices(p)
        assert sorted(dual.vertices) == sorted(tuple(map(int, v)) for v in expected)
        # Doubling moves every facet to b = -2: the origin stays inside, the
        # dual vertices a / 2 are not lattice points.
        doubled = LatticePolytope.convex_hull([tuple(2 * x for x in v) for v in p.vertices])
        assert not doubled.reflexive_check() and not reflexive_reference(doubled)
        with pytest.raises(ValueError, match="not reflexive"):
            doubled.dual_polytope()


def test_dual_face_map_pairing():
    diamond = LatticePolytope.convex_hull([(1, 0), (-1, 0), (0, 1), (0, -1)])
    dual, mapping = diamond.dual_face_map()
    lat = diamond.face_lattice()
    dlat = dual.face_lattice()
    seen = set()
    for fid, gid in mapping.items():
        seen.add(gid)
        if fid not in (0, lat.top):
            assert lat.face_dim(fid) + dlat.face_dim(gid) == diamond.dim - 1
    assert seen == set(dlat.faces)
    # inclusion-reversing
    def vertices(poly, fid):
        return {v for i, v in enumerate(poly.vertices) if fid >> i & 1}

    for a in mapping:
        for b in mapping:
            if vertices(diamond, a) <= vertices(diamond, b):
                assert vertices(dual, mapping[b]) <= vertices(dual, mapping[a])


def test_normalized_volume_examples():
    assert unit_simplex(3).normalized_volume() == 1
    assert cube(3).normalized_volume() == 6
    assert segment(7).normalized_volume() == 7
    tri = LatticePolytope.convex_hull([(0, 0), (4, 0), (0, 4)])
    assert tri.normalized_volume() == 16


def test_hull_of_more_points_returns_the_interned_polytope():
    # A larger point set with the same vertices must not replace the interned
    # object: a second copy would carry its own face lattice and tables.
    tri = [(0, 0), (13, 0), (0, 13)]
    first = LatticePolytope.convex_hull(tri)
    assert LatticePolytope.convex_hull(tri + [(5, 0), (2, 3)]) is first
    assert LatticePolytope.convex_hull(tri) is first
