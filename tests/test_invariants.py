from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from polyhodge import cli, hodge, invariants as inv, memo
from polyhodge.generators import instance_corpus
from polyhodge.laurent import ONE, T, T_INV, U, UVW2, V, W, ZERO
from polyhodge.polytope import BOX_LIMIT, FaceLattice, LatticePolytope
from polyhodge.subdivision import trivial_subdivision

from conftest import (
    box_scan_lattice_points, cross_polytope, cube, faces_of_dim, h_star_by_box_scan,
    h_star_by_counting, local_h_star_by_faces, mixed_h_star_by_faces, quartic_triangle_pair,
    random_polytope_points, random_simplices, restriction_tower, segment,
    simplex_from_incidence, unit_simplex,
)

DATA = Path(__file__).parent / "data"

UVW2 = U * V * W**2

QUARTIC_REFINED = 1 + 9 * UVW2 + 3 * U * V * W**3 + 3 * U**2 * V**2 * W**3


def test_h_star_of_unimodular_simplices():
    for d in range(5):
        assert inv.h_star(unit_simplex(d) if d else unit_simplex(0)) == ONE


def is_unimodular_simplex(p):
    return len(p.vertices) == p.dim + 1 and p.normalized_volume() == 1


def test_h_star_of_unimodular_cells(corpus25):
    cells = [c for s in corpus25 for c in s.cells[1:]]
    unimodular = [p for p in cells if is_unimodular_simplex(p)]
    assert (len(unimodular), len(cells)) == (363, 473)
    for p in cells:
        assert inv.h_star(p) == h_star_by_counting(p)
    for p in unimodular:
        assert h_star_by_counting(p) == ONE


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_h_star_matches_counting_on_random_cells(seed):
    for s in instance_corpus(seed, 3):
        for p in s.cells[1:]:
            expected = h_star_by_counting(p)
            assert inv.h_star(p) == expected
            if is_unimodular_simplex(p):
                assert expected == ONE


SIMPLEX_6 = [(0,) * 6] + [tuple(int(i == j) for j in range(6)) for i in range(5)]


@settings(max_examples=20, deadline=None)
@given(random_simplices())
@example(sorted(SIMPLEX_6 + [(1, 1, 1, 1, 1, 2)]))
@example([(0, 0), (0, 5000), (1, 0)])  # a box above BOX_LIMIT is left to counting
def test_simplex_invariants_match_the_counting_oracle(vertices):
    # Built from its incidence, the simplex reads h*, l*, h*(u, v), its volume
    # and its interior count off its box; hulled, only the first three.
    for build in (simplex_from_incidence, LatticePolytope.convex_hull):
        memo.clear()
        p = build(vertices)
        assert p.vertices == tuple(vertices) and p.dim == len(vertices) - 1
        h = h_star_by_box_scan(p)
        assert inv.h_star(p) == h
        assert inv.local_h_star(p) == local_h_star_by_faces(p)
        assert inv.mixed_h_star(p) == mixed_h_star_by_faces(p)
        assert p.normalized_volume() == h.substitute({"u": 1}).coeff({})
        interior = box_scan_lattice_points(p, 1, interior=True)
        assert p.interior_lattice_point_count() == len(interior)


@settings(max_examples=60, deadline=None)
@given(random_polytope_points())
@example([(0, 0), (0, 1), (1, 0), (1, 1)])
@example([(0, 0, 0, 7), (0, 0, 1, 5), (0, 1, 0, 7), (0, 1, 1, 5), (1, 0, 0, 6), (1, 1, 1, 4)])
@example([tuple(int(i == j) for j in range(5)) for i in range(5)] + [(0,) * 5, (1,) * 5])
def test_h_star_from_half_the_dilates_matches_counting(points):
    # A simplex of dimension 2 or more reads h* off its box, which the
    # simplex oracle test covers.  The two sides count on copies hulled
    # after a clear, so they share no cached count.
    memo.clear()
    p = LatticePolytope.convex_hull(points)
    assume(p.dim < 2 or len(p.vertices) > p.dim + 1)
    expected = h_star_by_counting(p)
    memo.clear()
    assert inv.h_star(LatticePolytope.convex_hull(points)) == expected


@pytest.mark.parametrize(
    "vertices",
    [[(0, 0), (0, 5000), (1, 0)], [(0, 0, 0), (0, 0, 456), (0, 3, 0), (3, 0, 0)]],
)
def test_h_star_of_a_box_above_the_limit_matches_counting(vertices):
    memo.clear()
    p = LatticePolytope.convex_hull(vertices)
    assert p.box()[1] is None and p.box()[0] > BOX_LIMIT
    assert inv.h_star(p) == h_star_by_counting(p)


# The tables keyed by a polytope's translation class, and the values read.
CLASS_TABLES = ("H_STAR", "LOCAL_H_STAR", "MIXED", "HODGE_DELIGNE_UV")


def class_values(p):
    return inv.h_star(p), inv.local_h_star(p), inv.mixed_h_star(p), hodge.hodge_deligne_uv(p)


def class_table_sizes():
    return [len(memo.TABLES[name]) for name in CLASS_TABLES]


def fresh_class_values(p):
    """The values of a copy of p hulled anew after a clear, from no entry."""
    memo.clear()
    return class_values(LatticePolytope.convex_hull(p.vertices))


def translation_classes(polytopes):
    """The polytopes up to integer translation: each vertex set moved so that
    its least vertex is the origin, with the empty set for the empty polytope."""
    return {
        frozenset(tuple(a - b for a, b in zip(v, min(q.vertices))) for v in q.vertices)
        for q in polytopes
    }


def all_faces(p):
    return [p.face(f) for f in p.face_lattice().all_faces()]


def fill_face_tables(p):
    """h* and l* of every face of p, the empty face and p included."""
    for q in all_faces(p):
        inv.h_star(q)
        inv.local_h_star(q)


# The tables of lattice data keyed by translation class, filled by the values below.
LATTICE_TABLES = ("BOX", "VOLUME", "COUNT")


def lattice_values(p):
    """The box of every simplex face of p, its volume and its first dilate counts."""
    boxes = [q.box() for q in all_faces(p)[1:] if len(q.vertices) == q.dim + 1]
    counts = [p.lattice_point_count(m, interior) for m in (1, 2) for interior in (False, True)]
    return boxes, p.normalized_volume(), counts


def lattice_table_sizes():
    return [len(memo.TABLES[name]) for name in LATTICE_TABLES]


@settings(max_examples=15, deadline=None)
@given(
    random_polytope_points(min_dim=2, max_dim=4, embed=False),
    st.lists(st.lists(st.integers(-5, 5), min_size=4, max_size=4), min_size=1, max_size=3),
)
def test_translates_share_one_entry_per_class(points, shifts):
    memo.clear()
    p = LatticePolytope.convex_hull(points)
    assume(p.dim == p.ambient_dim)
    values = class_values(p)
    fill_face_tables(p)
    classes = len(translation_classes(all_faces(p)))
    assert class_table_sizes() == [classes, classes, 1, 1]
    lattice = lattice_values(p)
    sizes = lattice_table_sizes()
    assert all(sizes)
    translates = [
        LatticePolytope.convex_hull([tuple(x + t for x, t in zip(v, shift)) for v in points])
        for shift in shifts
    ]
    for q in translates:
        assert q.shape == p.shape
        assert class_values(q) == values
        assert lattice_values(q) == lattice
        fill_face_tables(q)
    assert class_table_sizes() == [classes, classes, 1, 1]
    assert lattice_table_sizes() == sizes
    for q in translates:
        assert fresh_class_values(q) == values
        memo.clear()
        assert lattice_values(LatticePolytope.convex_hull(q.vertices)) == lattice
    # -P is lattice equivalent to P, so it has the same values, whatever its shape.
    minus_p = LatticePolytope.convex_hull([tuple(-x for x in v) for v in points])
    assert fresh_class_values(minus_p) == values


def test_the_facets_of_the_4_cube_fill_one_entry_per_translation_class():
    memo.clear()
    p = cube(4)
    facets = [p.face(f) for f in faces_of_dim(p.face_lattice(), 3)]
    assert len(facets) == 8 and len({q.shape for q in facets}) == 4
    values = [class_values(q) for q in facets]
    # A k-face of the cube is a translate of the one on the same k free axes.
    face_classes = 1 + sum(comb(4, k) for k in range(4))
    assert face_classes == len(translation_classes(f for q in facets for f in all_faces(q)))
    assert class_table_sizes() == [face_classes, face_classes, 4, 4]
    for q, value in zip(facets, values):
        assert fresh_class_values(q) == value


def test_a_lattice_equivalent_non_translate_has_another_shape_and_equal_values():
    triangle = [(0, 0), (3, 0), (0, 2)]
    p = LatticePolytope.convex_hull(triangle)
    minus_p = LatticePolytope.convex_hull([(-x, -y) for x, y in triangle])
    assert p.shape != minus_p.shape
    memo.clear()
    values = class_values(p)
    assert class_values(minus_p) == values
    assert len(memo.TABLES["MIXED"]) == 2
    assert values[0] == 1 + 4 * U + U**2


def test_h_star_examples():
    assert inv.h_star(cube(2)) == 1 + U
    two_delta = LatticePolytope.convex_hull([(0, 0), (2, 0), (0, 2)])
    assert two_delta.lattice_point_count(1) == 6
    assert two_delta.lattice_point_count(2) == 15
    assert inv.h_star(two_delta) == 1 + 3 * U
    assert inv.h_star(LatticePolytope.empty(2)) == ONE


def test_h_star_at_one_is_normalized_volume():
    for p in (cube(2), cube(3), segment(5)):
        assert inv.h_star(p).substitute({"u": 1}) == p.normalized_volume()


def test_local_h_star_examples():
    assert inv.local_h_star(unit_simplex(0)) == ZERO
    for d in range(1, 4):
        assert inv.local_h_star(unit_simplex(d)) == ZERO
    assert inv.local_h_star(segment(2)) == U
    assert inv.local_h_star(LatticePolytope.empty(1)) == ONE


def test_mixed_h_star_examples():
    assert inv.mixed_h_star(segment(5)) == 1 + 4 * U * V
    assert inv.mixed_h_star(LatticePolytope.empty(2)) == ONE
    # simplices: every local term vanishes, only the empty cell contributes
    for d in range(1, 4):
        assert inv.mixed_h_star(unit_simplex(d)) == ONE


def test_limit_mixed_of_quartic_triangle():
    s = quartic_triangle_pair()
    assert inv.limit_mixed_h_star(s) == 1 + 12 * U * V + 3 * U**2 * V**2


def test_limit_mixed_two_forms_agree():
    s = quartic_triangle_pair()
    assert inv.limit_mixed_h_star(s) == inv.limit_mixed_h_star_by_links(s)
    for p in (cube(2), cube(3)):
        st = trivial_subdivision(p)
        assert inv.limit_mixed_h_star(st) == inv.limit_mixed_h_star_by_links(st)


def test_face_tower_matches_the_restriction_oracle(corpus25):
    # One pass over S against the tower of each restricted complex S|Q, with
    # h* in its link form and g read off Q's own face lattice.
    complexes = list(corpus25) + [
        cli.build_complex(cli.parse_input(str(DATA / name)))
        for name in ("ladder_6x3.json", "cube4.json")
    ]
    complexes.append(trivial_subdivision(cross_polytope(4)))
    for s in complexes:
        tower = inv.face_tower(s)
        oracle = restriction_tower(s)
        assert set(tower.limit) == set(tower.local) == set(tower.refined) == set(oracle)
        for fid, (limit, local, refined) in oracle.items():
            assert tower.limit[fid] == limit, (s.key, fid)
            assert tower.local[fid] == local, (s.key, fid)
            assert tower.refined[fid] == refined, (s.key, fid)


def test_limit_mixed_of_trivial_simplex(corpus25):
    # mixed_h_star sums over the face lattice; the cell sum of the trivial
    # subdivision is the reference, on unimodular simplices and beyond.
    two_delta3 = LatticePolytope.convex_hull([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)])
    polytopes = [unit_simplex(d) for d in range(1, 4)]
    polytopes += [segment(5), cube(2), cube(3), cross_polytope(3), cross_polytope(4), two_delta3]
    polytopes += [s.polytope for s in corpus25]
    for p in polytopes:
        got = inv.limit_mixed_h_star(trivial_subdivision(p))
        assert got == inv.mixed_h_star(p)
        assert got.substitute({"u": V, "v": U}) == got


def test_local_limit_mixed_examples():
    for d in range(1, 4):
        assert inv.local_limit_mixed_h_star(trivial_subdivision(unit_simplex(d))) == ZERO
    s = quartic_triangle_pair()
    assert inv.local_limit_mixed_h_star(s) == 3 * U * V + 3 * U**2 * V**2
    # unit square split along a diagonal: direct four-face alternating sum
    from fractions import Fraction

    from polyhodge.subdivision import HeightFunction, regular_subdivision

    sq = cube(2)
    split = regular_subdivision(
        HeightFunction(sq, {v: Fraction(1 if v == (1, 1) else 0) for v in sq.vertices})
    )
    lat = sq.face_lattice()
    direct = ZERO
    for fid in lat.all_faces():
        qdim = lat.face_dim(fid)
        sign = (-1) ** (sq.dim - qdim)
        part = ONE if not fid else inv.limit_mixed_h_star(split.restrict(fid))
        g = lat.g(fid, lat.top, dual=True).substitute({"t": U * V})
        direct = direct + sign * part * g
    assert inv.local_limit_mixed_h_star(split) == direct


def test_refined_of_quartic_triangle():
    s = quartic_triangle_pair()
    assert inv.refined_limit_mixed_h_star(s) == QUARTIC_REFINED
    assert inv.refined_limit_mixed_h_star(s).coeff({"u": 1, "v": 1, "w": 3}) == 3


def test_refined_of_segments():
    for length in (1, 2, 5):
        s = trivial_subdivision(segment(length))
        assert inv.refined_limit_mixed_h_star(s) == 1 + (length - 1) * UVW2


def test_refined_specializations(corpus25):
    for s in corpus25[:8]:
        refined = inv.refined_limit_mixed_h_star(s)
        assert refined.substitute({"v": 1, "w": 1}) == inv.h_star(s.polytope)
        assert refined.substitute({"w": 1}) == inv.limit_mixed_h_star(s)
        assert refined.substitute({"u": U * W**-1, "v": 1}) == inv.mixed_h_star(
            s.polytope
        ).substitute({"v": W})


def test_refined_symmetries(corpus25):
    for s in corpus25[:8]:
        refined = inv.refined_limit_mixed_h_star(s)
        assert refined.substitute({"u": V, "v": U}) == refined
        assert refined.substitute({"u": U**-1, "v": V**-1, "w": U * V * W}) == refined


def test_refined_degree_and_top_coefficient(corpus25):
    for s in corpus25[:8]:
        refined = inv.refined_limit_mixed_h_star(s)
        d = s.polytope.dim
        assert refined.degree_in("w") <= d + 1
        assert refined.coeff_in("w", d + 1) == inv.local_limit_mixed_h_star(s)


def test_lambda_phi_direct_evaluation():
    # On the quartic triangle the truncated fan is already simplicial, so the
    # displayed sums can be evaluated directly by hand.
    s = quartic_triangle_pair()
    p = s.polytope
    lat = p.face_lattice()
    x = UVW2 - 1
    lam, phi = inv.lambda_phi(s)
    edge_sum = ZERO
    for fid in faces_of_dim(lat, 1):
        edge_sum = edge_sum + inv.refined_limit_mixed_h_star(s.restrict(fid))
    expected_phi = inv.refined_limit_mixed_h_star(s) - edge_sum
    assert phi == expected_phi
    assert lam == x**2 + 3 * x - expected_phi


def test_lambda_palindromy(corpus_dim23):
    for s in corpus_dim23[:6]:
        d = s.polytope.dim
        lam, _ = inv.lambda_phi(s)
        flipped = UVW2 ** (d + 1) * lam.substitute({"u": U**-1, "v": V**-1, "w": W**-1})
        assert flipped == lam
        mixed = inv.lambda_mixed(lam)
        mflip = (U * W) ** (d + 1) * mixed.substitute({"u": U**-1, "w": W**-1})
        assert mflip == mixed


def test_e_int_lef_examples():
    for p in (cube(2), LatticePolytope.convex_hull([(0, 0), (4, 0), (0, 4)])):
        assert inv.e_int_lef(p) == 1 + T
    assert inv.e_int_lef(segment(3)) == ONE
    # five dimension-3 polytopes: 1 + (facets - 3) t + t^2
    simplex3 = unit_simplex(3)
    octahedron = LatticePolytope.convex_hull(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    )
    prism = LatticePolytope.convex_hull(
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1)]
    )
    pyramid = LatticePolytope.convex_hull(
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]
    )
    for p, facets in ((simplex3, 4), (cube(3), 6), (octahedron, 8), (prism, 5), (pyramid, 5)):
        assert len(p._facets) == facets
        assert inv.e_int_lef(p) == 1 + (facets - 3) * T + T**2


def test_e_int_lef_solves_its_defining_identity(corpus25):
    # (t - 1) E = t^dim g([empty, P]*; 1/t) - g([empty, P]*; t) on every
    # cell of the corpus and on cubes, cross-polytopes and unit simplices of
    # dimension up to 6, whose face lattices reach rank 7.
    polytopes = [cell for s in corpus25 for cell in s.cells[1:]]
    polytopes += [f(d) for f in (cube, unit_simplex) for d in range(7)]
    polytopes += [cross_polytope(d) for d in range(1, 7)]
    for p in polytopes:
        lattice = p.face_lattice()
        g = lattice.g(0, lattice.top, dual=True)
        assert (T - 1) * inv.e_int_lef(p) == g.substitute({"t": T_INV}) * T**p.dim - g, p


def test_e_int_lef_rejects_a_dual_g_above_half_the_dimension(monkeypatch):
    # deg g([empty, P]*) <= dim P / 2; a larger degree is a bug of the g layer.
    monkeypatch.setattr(FaceLattice, "g", lambda self, lo, hi, dual=False: 1 + 2 * T**2)
    with pytest.raises(ValueError, match="degree"):
        inv.e_int_lef(cube(3))


def test_small_coeff_oracle_quartic():
    s = quartic_triangle_pair()
    table = inv.small_coeff_oracle(s)
    assert table[(0, 0, 1)] == 3
    assert table[(0, 1, 1)] == 0
    assert table[(0, 0, 0)] == 9
    body = (QUARTIC_REFINED - 1) * UVW2**-1
    for (a, b, c), value in table.items():
        assert body.coeff({"u": a, "v": b, "w": c}) == value


def test_small_coeff_oracle_trivial_and_square():
    s = trivial_subdivision(LatticePolytope.convex_hull([(0, 0), (4, 0), (0, 4)]))
    table = inv.small_coeff_oracle(s)
    # no interior cells of dimension <= 1 in the trivial subdivision
    assert table[(0, 0, 1)] == 0
    assert table[(0, 1, 1)] == 3  # the interior points of P itself
    sq = trivial_subdivision(cube(2))
    table2 = inv.small_coeff_oracle(sq)
    assert table2[(0, 0, 0)] == 1
    refined = inv.refined_limit_mixed_h_star(sq)
    assert refined.coeff({"u": 1, "v": 1, "w": 2}) == 1


# The keys of small_coeff_oracle by dimension, in order: verify names the
# first index whose value disagrees.
ORACLE_KEYS = {
    1: [(0, 0, 0)],
    2: [(0, 0, 0), (0, 0, 1), (0, 1, 1)],
    3: [(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 1), (0, 1, 2), (0, 2, 1), (0, 2, 2), (1, 1, 2)],
}


def test_small_coeff_matches_refined(corpus25):
    for s in corpus25[:10]:
        if s.polytope.dim > 3:
            continue
        refined = inv.refined_limit_mixed_h_star(s)
        body = (refined - 1) * UVW2**-1
        oracle = inv.small_coeff_oracle(s)
        assert list(oracle) == ORACLE_KEYS[s.polytope.dim]
        for (a, b, c), value in oracle.items():
            assert body.coeff({"u": a, "v": b, "w": c}) == value


def test_refined_nonnegative(corpus25):
    for s in corpus25[:10]:
        assert all(c >= 0 for _, c in inv.refined_limit_mixed_h_star(s).terms())


def test_chi_y_valuation_inclusion_exclusion(corpus25):
    from polyhodge import hodge

    for s in corpus25[:8]:
        p = s.polytope
        total = ZERO
        for cell in s.interior_cells():
            total = total + hodge.chi_y(cell) * (1 - U) ** (p.dim - cell.dim)
        assert total == hodge.chi_y(p)


def test_quartic_tower_direct_functions():
    s = quartic_triangle_pair()
    assert inv.refined_limit_mixed_h_star(s) == QUARTIC_REFINED
    assert inv.h_star(s.polytope) == 1 + 12 * U + 3 * U**2
    assert inv.limit_mixed_h_star(s) == 1 + 12 * U * V + 3 * U**2 * V**2
