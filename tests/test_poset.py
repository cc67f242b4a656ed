import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from polyhodge import cli, invariants as inv, memo, verify
from polyhodge.laurent import ONE, T, U, V, ZERO, from_univariate, univariate
from polyhodge.polytope import FaceLattice, LatticePolytope
from polyhodge.poset import EulerianPoset, stanley_inversion_check
from polyhodge.subdivision import (
    HeightFunction, link_h_polynomial, regular_subdivision, trivial_subdivision,
)

from conftest import (
    cross_polytope, cube, eulerian_by_signed_sums, mask, poset_from_leq, poset_is_eulerian,
    quartic_triangle_pair, unit_simplex,
)

DATA = Path(__file__).parent / "data"
# The triangulations 3*D4 and 6*D3; 5*D4 is left out for its run time.
LADDERS = ("ladder_3x4.json", "ladder_6x3.json")


def interval(poset, z, x):
    """The interval [z, x] as a poset of its own, built by ``poset_from_leq``
    on its members; its elements are indices into ``poset``."""

    def leq(a, b):
        return poset.up[a] >> b & 1

    return poset_from_leq([y for y in range(len(poset)) if leq(z, y) and leq(y, x)], leq)


def cell_interval(s, a, b):
    """The interval [a, b] of a cell complex, built by ``poset_from_leq`` on
    every cell between the two."""
    return poset_from_leq([c for c in s.cells if s.leq(a, c) and s.leq(c, b)], s.leq)


def whole_g(poset):
    """g of the whole poset, the interval [bottom, top]."""
    return poset.g(poset.bottom, poset.top)


def abstract_polygon_lattice(n):
    """Face lattice of an abstract n-gon: bottom, n vertices, n edges, top."""
    elements = ["bot"] + [f"v{i}" for i in range(n)] + [f"e{i}" for i in range(n)] + ["top"]

    def leq(a, b):
        if a == b or a == "bot" or b == "top":
            return True
        if b == "bot" or a == "top":
            return False
        if a.startswith("v") and b.startswith("e"):
            i, j = int(a[1:]), int(b[1:])
            return i in (j, (j + 1) % n)
        return False

    return poset_from_leq(elements, leq)


def test_g_rank_zero_is_one():
    single = poset_from_leq(["x"], lambda a, b: True)
    assert whole_g(single) == ONE


def test_g_of_simplex_lattice_is_one():
    tri = LatticePolytope.convex_hull([(0, 0), (1, 0), (0, 1)])
    assert whole_g(tri.face_lattice().poset()) == ONE
    assert whole_g(unit_simplex(3).face_lattice().poset()) == ONE


def test_g_of_polygon_lattices():
    for n in range(4, 8):
        poset = abstract_polygon_lattice(n)
        assert whole_g(poset) == 1 + (n - 3) * T
        # and via an actual lattice polygon for small n
    sq = cube(2)
    assert whole_g(sq.face_lattice().poset()) == 1 + T


def test_g_degree_bound():
    for p in (cube(2), cube(3), unit_simplex(3)):
        poset = p.face_lattice().poset()
        g = whole_g(poset)
        deg = g.degree_in("t")
        assert deg == float("-inf") or 2 * deg < poset.rank


def test_g_recursion_closes():
    # The defining identity, checked directly (the implementation also
    # verifies it internally, so this guards the guard).
    poset = cube(3).face_lattice().poset()
    n = poset.rank
    g = whole_g(poset)
    rhs = ZERO
    for i, el in enumerate(poset.elements):
        sub = whole_g(interval(poset, poset.bottom, i))
        rhs = rhs + (T - 1) ** (n - poset.ranks[i]) * sub
    assert g.substitute({"t": T**-1}) * T**n == rhs


def test_duality_on_boolean_lattices():
    poset = unit_simplex(3).face_lattice().poset()
    assert whole_g(poset) == ONE
    assert whole_g(poset.dual()) == ONE


def test_inversion_rank_one():
    chain = poset_from_leq(["a", "b"], lambda x, y: x == y or x == "a")
    assert stanley_inversion_check(chain)


def test_inversion_on_cube_and_random_polygons():
    assert stanley_inversion_check(cube(3).face_lattice().poset())
    rng = random.Random(15)
    for _ in range(3):
        pts = {tuple(rng.randint(0, 4) for _ in range(2)) for _ in range(7)}
        p = LatticePolytope.convex_hull(sorted(pts))
        if p.dim == 2:
            assert stanley_inversion_check(p.face_lattice().poset())


def test_non_eulerian_poset_rejected():
    with pytest.raises(ValueError, match="not Eulerian"):
        poset_from_leq(["a", "b", "c"], lambda x, y: "abc".index(x) <= "abc".index(y))


def test_non_graded_poset_rejected():
    # bottom < x < top and bottom < top with an extra chain of length 3:
    # bottom < y < z < top makes ranks inconsistent.
    elements = ["bot", "x", "y", "z", "top"]
    order = {
        ("bot", "x"),
        ("bot", "y"),
        ("bot", "z"),
        ("y", "z"),
        ("x", "top"),
        ("y", "top"),
        ("z", "top"),
        ("bot", "top"),
    }

    def leq(a, b):
        return a == b or (a, b) in order

    with pytest.raises(ValueError):
        poset_from_leq(elements, leq)


def test_link_h_trivial_cases():
    tri = LatticePolytope.convex_hull([(0, 0), (4, 0), (0, 4)])
    s = trivial_subdivision(tri)
    assert link_h_polynomial(s, tri) == ONE


def test_link_h_on_subdivided_triangle():
    s = quartic_triangle_pair()
    tri_cell = LatticePolytope.convex_hull([(1, 1), (2, 1), (1, 2)])
    assert link_h_polynomial(s, tri_cell) == ONE
    # Link of an interior vertex, against a direct evaluation of the
    # defining reciprocity identity.
    b0 = LatticePolytope.convex_hull([(1, 1)])
    h = link_h_polynomial(s, b0)
    assert h == 1 + T + T**2
    dim_p = s.polytope.dim
    rhs = ZERO
    for other in s.cells_containing(b0):
        g = whole_g(cell_interval(s, b0, other))
        rhs = rhs + (T - 1) ** (dim_p - other.dim) * g
    delta = dim_p - b0.dim
    assert h.substitute({"t": T**-1}) * T**delta == rhs


def test_cell_interval_posets_are_eulerian():
    s = quartic_triangle_pair()
    for cell in s.maximal_cells:
        assert poset_is_eulerian(cell_interval(s, s.cells[0], cell))
        assert stanley_inversion_check(cell_interval(s, s.cells[0], cell))


# -- EulerianPoset.g against an independent recursion ----------------------------


def stanley_g(poset):
    """Stanley's recursion on interval copies, with no shortcut and no table."""
    n = poset.rank
    if n == 0:
        return ONE
    rest = ZERO
    for i in range(len(poset)):
        if i != poset.top:
            sub = stanley_g(interval(poset, poset.bottom, i))
            rest = rest + (T - 1) ** (n - poset.ranks[i]) * sub
    coeffs = univariate(rest, "t")
    return from_univariate({k: -coeffs.get(k, 0) for k in range((n - 1) // 2 + 1)}, "t")


def test_g_matches_stanley_recursion_on_every_interval(corpus25):
    polytopes = [
        cube(3),
        cube(4),
        cross_polytope(3),
        cross_polytope(4),
        LatticePolytope.convex_hull([tuple(2 * c for c in v) for v in unit_simplex(3).vertices]),
    ]
    for s in corpus25:
        polytopes.append(s.polytope)
        polytopes.extend(s.maximal_cells)
    checked = set()
    for p in polytopes:
        if p.key in checked:
            continue
        checked.add(p.key)
        lattice = p.face_lattice()
        poset = lattice.poset()
        dual = poset.dual()
        faces = poset.elements
        for z in range(len(poset)):
            for x in range(len(poset)):
                if not poset.up[z] >> x & 1:
                    continue
                g = stanley_g(interval(poset, z, x))
                g_dual = stanley_g(interval(dual, x, z))
                assert poset.g(z, x) == g
                assert dual.g(x, z) == g_dual
                assert lattice.g(faces[z], faces[x]) == g
                assert lattice.g(faces[z], faces[x], dual=True) == g_dual
    assert len(checked) > 20


@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize(
    "polytope",
    [LatticePolytope.convex_hull(list(itertools.product((-1, 1), repeat=4))), cross_polytope(4)],
    ids=["[-1,1]^4", "4-cross"],
)
def test_g_sum_is_the_explicit_face_interval_sum(polytope, dual):
    lattice = polytope.face_lattice()

    def coeff(f):  # zero on some faces, of varying degree on the others
        return (f % 7 - 3) * U ** lattice.face_dim(f)

    for upper in lattice.all_faces():
        expected = ZERO
        for f in lattice.all_faces():
            if lattice.leq(f, upper):
                g = lattice.g(f, upper, dual=dual).substitute({"t": U * V})
                expected = expected + coeff(f) * g
        assert lattice.g_sum(upper, coeff, U * V, dual=dual) == expected


def test_g_sum_reads_no_g_for_a_zero_coefficient(monkeypatch):
    lattice = cross_polytope(4).face_lattice()
    edges = [f for f in lattice.all_faces() if lattice.face_dim(f) == 1]
    original = FaceLattice.g
    calls = []

    def counting_g(self, lower, upper, dual=False):
        calls.append(lower)
        return original(self, lower, upper, dual)

    monkeypatch.setattr(FaceLattice, "g", counting_g)
    # Zero coefficients as the int 0 and as the zero polynomial.
    total = lattice.g_sum(
        lattice.top, lambda f: ONE if f in edges else (ZERO if f & 1 else 0), T, dual=True
    )
    assert calls == edges
    assert total == sum((original(lattice, f, lattice.top, True) for f in edges), ZERO)


def test_g_rejects_elements_that_are_not_nested():
    poset = cube(3).face_lattice().poset()
    with pytest.raises(ValueError, match="not nested"):
        poset.g(poset.top, poset.bottom)
    # A simplex lattice answers g without a poset and still checks nesting.
    lattice = FaceLattice(unit_simplex(3))
    for dual in (False, True):
        with pytest.raises(ValueError, match="not nested"):
            lattice.g(mask((0, 1)), mask((1, 2, 3)), dual=dual)
        with pytest.raises(ValueError, match="not nested"):
            lattice.g(lattice.top, 0, dual=dual)


def test_link_h_matches_cell_scan(corpus25):
    # The reference scans every cell for those above F and builds each
    # interval [F, F'] from every cell between the two, checked, instead of
    # reading the maximal cells and F''s face lattice.
    for s in [quartic_triangle_pair()] + [corpus25[i] for i in (4, 5, 11, 12)]:
        dim_p = s.polytope.dim
        for cell in s.cells:
            rest = ZERO
            for other in [c for c in s.cells if s.leq(cell, c)]:
                g = stanley_g(cell_interval(s, cell, other))
                rest = rest + (T - 1) ** (dim_p - other.dim) * g
            expected = rest.substitute({"t": T**-1}) * T ** (dim_p - cell.dim)
            assert link_h_polynomial(s, cell) == expected


def test_tower_reads_g_without_copying_intervals(monkeypatch):
    memo.clear()
    copies = []
    original = EulerianPoset.copy

    def counted(self):
        copies.append(self)
        return original(self)

    monkeypatch.setattr(EulerianPoset, "copy", counted)
    for s in (quartic_triangle_pair(), trivial_subdivision(cube(4))):
        assert inv.refined_limit_mixed_h_star(s).substitute({"w": 1}) == inv.limit_mixed_h_star(s)
    assert copies == []
    # verify checks the inversion identities on copies, so the g tables that
    # the tower shares stay as they were.
    inversion_check = verify.stanley_inversion_check
    for s in (quartic_triangle_pair(), trivial_subdivision(cube(3))):
        shared = [p.face_lattice().poset() for p in (s.polytope, *s.maximal_cells)]

        def checked(poset, bounds=None):
            before = [dict(p._g) for p in shared]
            ok = inversion_check(poset, bounds)
            assert [dict(p._g) for p in shared] == before
            return ok

        monkeypatch.setattr(verify, "stanley_inversion_check", checked)
        copies.clear()
        assert all(c.ok for c in verify.run_checks(s))
        # P's poset, and one per distinct relation among the maximal cells.
        assert len(copies) == 1 + len({(p.elements, p.up) for p in shared[1:]})


def first_cell_failing_inversion_per_cell(s, check):
    """The vertices of the first maximal cell whose lattice fails ``check``,
    run on a fresh copy of every maximal cell's poset, or None."""
    for cell in s.maximal_cells:
        interval = cell.face_lattice().poset().copy()
        if interval.rank >= 1 and not check(interval):
            return cell.vertices
    return None


def test_inversion_of_cells_once_per_relation_names_the_first_failing_cell(
    corpus25, monkeypatch
):
    ladders = [cli.build_complex(cli.parse_input(DATA / name)) for name in LADDERS]
    for s in [*corpus25, *ladders]:
        assert verify._first_cell_failing_inversion(s) is None
        assert first_cell_failing_inversion_per_cell(s, stanley_inversion_check) is None
        # A check that fails on the relation of the last maximal cell names
        # the first cell with that relation, as the per-cell loop does.
        last = s.maximal_cells[-1].face_lattice().poset()

        def failing(poset, bounds=None):
            return (poset.elements, poset.up) != (last.elements, last.up)

        monkeypatch.setattr(verify, "stanley_inversion_check", failing)
        expected = first_cell_failing_inversion_per_cell(s, failing)
        assert expected is not None
        assert verify._first_cell_failing_inversion(s) == expected
        monkeypatch.undo()


# -- the simplex shortcut ---------------------------------------------------------


def noisy_dilate_triangulation(k, d):
    """k * Delta_d subdivided by heights 7|x|^2 plus noise in 0..3, seed 1."""
    rng = random.Random(1)
    pts = [x for x in itertools.product(range(k + 1), repeat=d) if sum(x) <= k]
    heights = {x: Fraction(7 * sum(c * c for c in x) + rng.randint(0, 3)) for x in pts}
    return regular_subdivision(HeightFunction(LatticePolytope.convex_hull(pts), heights))


def test_simplex_g_certifies_its_face_count():
    lattice = FaceLattice(unit_simplex(3))
    assert lattice.g(0, lattice.top) == ONE
    assert lattice.g(mask((0,)), mask((0, 1, 2)), dual=True) == ONE
    del lattice.faces[mask((0, 1))]
    with pytest.raises(ValueError, match="not Boolean"):
        lattice.g(0, lattice.top)


def test_tower_builds_no_poset_and_counts_no_point_of_a_unimodular_cell(monkeypatch):
    memo.clear()
    posets, counts = [], []
    poset, count = FaceLattice.poset, LatticePolytope.lattice_point_count

    def is_simplex(p):
        return len(p.vertices) == p.dim + 1

    def counted_poset(self):
        if is_simplex(self.polytope):
            posets.append(self.polytope)
        return poset(self)

    def counted_count(self, m):
        if is_simplex(self) and self.normalized_volume() == 1:
            counts.append((self.dim, m))
        return count(self, m)

    monkeypatch.setattr(FaceLattice, "poset", counted_poset)
    monkeypatch.setattr(LatticePolytope, "lattice_point_count", counted_count)
    for k, d in ((3, 2), (2, 3)):
        s = noisy_dilate_triangulation(k, d)
        assert all(is_simplex(c) and c.normalized_volume() == 1 for c in s.cells[1:])
        refined = inv.refined_limit_mixed_h_star(s)
        assert refined.substitute({"w": 1}) == inv.limit_mixed_h_star(s)
    assert posets == []
    # No restriction is built, so no vertex of k * Delta_d is validated as a
    # complex of its own, and h* counts no dilate of a unimodular cell.
    assert counts == []


# -- Eulerian by construction ---------------------------------------------------------


@st.composite
def random_polytopes(draw):
    """The hull of d + 1 to d + 3 distinct points of {0, 1, 2}^d, d in 1..4."""
    d = draw(st.integers(1, 4))
    coords = st.tuples(*[st.integers(0, 2)] * d)
    return LatticePolytope.convex_hull(
        draw(st.lists(coords, min_size=d + 1, max_size=d + 3, unique=True))
    )


@settings(max_examples=40, deadline=None)
@given(random_polytopes(), st.data())
def test_from_leq_accepts_a_graded_poset_exactly_when_it_is_eulerian(p, data):
    # A face lattice is Eulerian; without one proper face it stays graded,
    # with the same ranks, but the interval [(), G] for a G covering that
    # face loses one signed term.
    lattice = p.face_lattice()
    faces = lattice.all_faces()
    removed = data.draw(st.sampled_from((None,) + faces[1:-1]))
    elements = [f for f in faces if f != removed]

    def rank(f):
        return lattice.face_dim(f) + 1

    eulerian = eulerian_by_signed_sums(elements, lattice.leq, rank)
    assert eulerian == (removed is None)
    if eulerian:
        poset = poset_from_leq(elements, lattice.leq)
        assert list(poset.ranks) == [rank(f) for f in elements]
    else:
        with pytest.raises(ValueError, match="not Eulerian"):
            poset_from_leq(elements, lattice.leq)


@settings(max_examples=25, deadline=None)
@given(random_polytopes())
def test_intervals_and_duals_of_face_lattices_are_eulerian(p):
    # Neither the dual nor a copy is checked again when it is built, so the
    # reference checks every interval of each.
    poset = p.face_lattice().poset()
    dual, copy = poset.dual(), poset.copy()
    assert poset_is_eulerian(dual)
    assert poset_is_eulerian(copy)
    # The copy keeps the relation and the ranks, with a g table of its own;
    # the dual reverses them.
    assert copy._g is not poset._g
    assert (copy.elements, copy.bottom, copy.top) == (poset.elements, poset.bottom, poset.top)
    for i in range(len(poset)):
        assert copy.ranks[i] == poset.ranks[i]
        assert dual.ranks[i] == poset.rank - poset.ranks[i]
        for j in range(len(poset)):
            assert copy.up[i] >> j & 1 == poset.up[i] >> j & 1 == dual.up[j] >> i & 1


# -- g in closed form up to rank 6 -------------------------------------------------------


def assert_closed_form_g_matches_the_recursion(p):
    """``FaceLattice.g`` of every interval of rank 3 to 6, and of its dual,
    equals the recursion on a copy of the lattice's poset."""
    lattice = FaceLattice(p)  # a g table of its own, filled by nothing else
    copy = lattice.poset().copy()
    dual = copy.dual()
    faces = lattice.all_faces()
    assert faces == copy.elements
    for i, a in enumerate(faces):
        for j, b in enumerate(faces):
            if lattice.leq(a, b) and 3 <= lattice.face_dim(b) - lattice.face_dim(a) <= 6:
                assert lattice.g(a, b) == copy.g(i, j), (p, a, b)
                assert lattice.g(a, b, dual=True) == dual.g(j, i), (p, a, b)


@st.composite
def random_polytopes_of_dims_3_to_6(draw):
    """The hull of d + 2 to d + 4 distinct points of {0, 1, 2}^d, d in 3..6."""
    d = draw(st.integers(3, 6))
    coords = st.tuples(*[st.integers(0, 2)] * d)
    return LatticePolytope.convex_hull(
        draw(st.lists(coords, min_size=d + 2, max_size=d + 4, unique=True))
    )


@settings(max_examples=20, deadline=None)
@given(random_polytopes_of_dims_3_to_6())
def test_closed_form_g_matches_the_recursion_on_random_polytopes(p):
    assert_closed_form_g_matches_the_recursion(p)


def test_closed_form_g_matches_the_recursion_on_cubes_and_cross_polytopes():
    for d in range(3, 7):
        assert_closed_form_g_matches_the_recursion(cube(d))
        assert_closed_form_g_matches_the_recursion(cross_polytope(d))


def test_closed_form_g_is_stored_for_the_recursion_above_rank_6(monkeypatch):
    # Rank 7 is [(), P] of a 6-polytope: its recursion reads the rank <= 6
    # values that the closed form stored, and runs no step below rank 7.
    lattice = FaceLattice(cross_polytope(6))
    poset = lattice.poset()
    for fid in lattice.all_faces():
        if 3 <= lattice.face_dim(fid) + 1 <= 6:
            lattice.g(0, fid)
    steps = []
    g_of = EulerianPoset._g_of

    def counted(self, z, x):
        if self.ranks[x] - self.ranks[z] > 2 and (z, x) not in self._g:
            steps.append(self.ranks[x] - self.ranks[z])
        return g_of(self, z, x)

    monkeypatch.setattr(EulerianPoset, "_g_of", counted)
    g = lattice.g(0, lattice.top)
    monkeypatch.undo()
    assert steps == [7]
    assert g == poset.copy().g(poset.bottom, poset.top)
