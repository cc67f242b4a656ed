from collections import Counter

import pytest

from polyhodge import hodge, invariants as inv, memo
from polyhodge.fans import TruncatedNormalFan, identity_refinement
from polyhodge.generators import instance_corpus
from polyhodge.laurent import L, ONE, T, U, V, W, ZERO
from polyhodge.polytope import LatticePolytope
from polyhodge.poset import EulerianPoset
from polyhodge.subdivision import CellComplex, trivial_subdivision
from polyhodge.verify import run_checks

from conftest import (
    cross_polytope, cube, model_complex, quartic_triangle_pair, segment, unit_simplex,
)

UVW2 = U * V * W**2
QUARTIC_E = -11 - 3 * (1 + U * V) * W + UVW2
QUARTIC_E_INT = 1 - 3 * (1 + U * V) * W + UVW2


def test_nearby_fiber_E_of_quartic_triangle():
    s = quartic_triangle_pair()
    psi = hodge.nearby_fiber_E(s)
    assert psi == -14 - 2 * U * V
    assert hodge.as_class_polynomial(psi) == -14 - 2 * L


def test_chi_y_recursion_on_simplices():
    for l in range(6):
        p = unit_simplex(l)
        e = hodge.chi_y(p)
        assert U * e == (U - 1) ** l + (-1) ** (l + 1)


def test_chi_y_examples():
    tri = LatticePolytope.convex_hull([(0, 0), (4, 0), (0, 4)])
    assert hodge.chi_y(tri).substitute({"u": 1}) == -16
    assert hodge.chi_y(unit_simplex(0)) == ZERO


def test_euler_characteristic():
    tri = LatticePolytope.convex_hull([(0, 0), (4, 0), (0, 4)])
    assert hodge.euler_characteristic(tri) == -16
    for l in range(1, 5):
        assert hodge.euler_characteristic(unit_simplex(l)) == (-1) ** (l + 1)
    assert hodge.euler_characteristic(segment(6)) == 6


def test_hodge_deligne_examples():
    for l in range(1, 5):
        p = unit_simplex(l)
        assert hodge.hodge_deligne(p).substitute({"w": 1}) == hodge.chi_y(p)
    assert hodge.hodge_deligne(segment(5)) == 5 * ONE
    # consistency at v = 1 through the nearby fiber
    s = quartic_triangle_pair()
    assert hodge.nearby_fiber_E(s).substitute({"v": 1}) == hodge.chi_y(s.polytope)


def test_weak_lefschetz_hodge_deligne(corpus25):
    # uw E matches (uw - 1)^dim in combined degree above dim + 1.
    for s in corpus25[:10]:
        p = s.polytope
        diff = U * W * hodge.hodge_deligne(p) - (U * W - 1) ** p.dim
        assert all(e[0] + e[2] <= p.dim + 1 for e, _ in diff.terms())


def test_refined_E_of_quartic_triangle():
    s = quartic_triangle_pair()
    assert hodge.refined_E(s) == QUARTIC_E


def test_refined_E_of_segments():
    for length in (1, 2, 5):
        s = trivial_subdivision(segment(length))
        assert hodge.refined_E(s) == length * ONE


def test_refined_E_dim2_closed_form(corpus25):
    for s in corpus25:
        p = s.polytope
        if p.dim != 2:
            continue
        boundary = p.lattice_point_count(1) - p.interior_lattice_point_count()
        table = inv.small_coeff_oracle(s)
        expected = (
            1
            - boundary
            - table[(0, 0, 1)] * (1 + U * V) * W
            - table[(0, 1, 1)] * (U + V) * W
            + UVW2
        )
        assert hodge.refined_E(s) == expected


def test_refined_E_specialization_tower(corpus25):
    for s in corpus25[:8]:
        e = hodge.refined_E(s)
        assert e.substitute({"w": 1}) == hodge.nearby_fiber_E(s)
        assert e.substitute({"u": U * W**-1, "v": 1}) == hodge.hodge_deligne(s.polytope)
        assert e.substitute({"u": 1, "v": 1, "w": 1}) == hodge.euler_characteristic(
            s.polytope
        )


def test_refined_E_symmetries(corpus25):
    for s in corpus25[:8]:
        e = hodge.refined_E(s)
        assert e.substitute({"u": V, "v": U}) == e
        assert e.substitute({"u": U**-1, "v": V**-1, "w": U * V * W}) == e


def test_weak_lefschetz_refined(corpus25):
    # uvw^2 E matches (uvw^2 - 1)^dim in w-degree above dim + 1.
    for s in corpus25[:10]:
        d = s.polytope.dim
        lhs = UVW2 * hodge.refined_E(s)
        rhs = (UVW2 - 1) ** d
        for k in range(d + 2, 2 * d + 3):
            assert lhs.coeff_in("w", k) == rhs.coeff_in("w", k)


def test_refined_hodge_numbers_quartic():
    s = quartic_triangle_pair()
    table = hodge.refined_hodge_numbers(s)
    assert table.refined == {(0, 0, 0): 9, (0, 0, 1): 3, (1, 1, 1): 3}
    assert table.limit == {(0, 0): 12, (1, 1): 3}
    assert table.local == {(0, 0): 3, (1, 1): 3}
    assert table.symmetric()


def test_refined_hodge_numbers_segment():
    for length in (1, 2, 5):
        s = trivial_subdivision(segment(length))
        table = hodge.refined_hodge_numbers(s)
        if length == 1:
            assert table.refined == {}
        else:
            assert table.refined == {(0, 0, 0): length - 1}


def test_refined_hodge_numbers_symmetry(corpus25):
    for s in corpus25[:8]:
        assert hodge.refined_hodge_numbers(s).symmetric()


def test_intersection_E_quartic():
    s = quartic_triangle_pair()
    assert hodge.intersection_E(s) == QUARTIC_E_INT


def test_intersection_E_dim2_general(corpus25):
    for s in corpus25:
        if s.polytope.dim != 2:
            continue
        table = inv.small_coeff_oracle(s)
        expected = (
            1
            - table[(0, 0, 1)] * (1 + U * V) * W
            - table[(0, 1, 1)] * (U + V) * W
            + UVW2
        )
        assert hodge.intersection_E(s) == expected


def test_intersection_E_dim3_lefschetz_part():
    p = cube(3)
    s = trivial_subdivision(p)
    e = hodge.intersection_E(s)
    lef = inv.e_int_lef(p)
    assert lef == 1 + 3 * T + T**2
    residual = e - lef.substitute({"t": UVW2})
    # the residual is the local part, concentrated in the top w-degrees
    local = inv.local_limit_mixed_h_star(s)
    assert UVW2 * residual == (-1) ** (p.dim + 1) * local * W ** (p.dim + 1)


def test_sum_over_strata_equals_intersection(corpus25):
    s = quartic_triangle_pair()
    assert hodge.sum_over_strata_E_int(s) == hodge.intersection_E(s)
    for sc in corpus25[:8]:
        assert hodge.sum_over_strata_E_int(sc) == hodge.intersection_E(sc)
    seg = trivial_subdivision(segment(1))
    assert hodge.sum_over_strata_E_int(seg) == hodge.intersection_E(seg)


def test_partial_compactification_zero_subfan():
    s = quartic_triangle_pair()
    top = s.polytope.face_lattice().top
    zero_subfan = identity_refinement(TruncatedNormalFan(s.polytope), [top])
    assert hodge.partial_compactification_E(s, refinement=zero_subfan) == hodge.refined_E(s)


def test_partial_compactification_full_fan_dim2():
    s = quartic_triangle_pair()
    assert hodge.partial_compactification_E(s) == QUARTIC_E_INT


def test_partial_compactification_psi_two_forms(corpus25):
    for s in corpus25[:8]:
        assert hodge.partial_compactification_psi(s) == hodge.compactified_psi_face_sum(s)


def test_partial_compactification_rejects_another_polytopes_refinement():
    s = trivial_subdivision(cube(2))
    triangle = LatticePolytope.convex_hull([(0, 0), (2, 0), (0, 2)])
    other = identity_refinement(TruncatedNormalFan(triangle))
    for fn in (hodge.partial_compactification_E, hodge.partial_compactification_psi):
        with pytest.raises(ValueError, match="refinement belongs to a different normal fan"):
            fn(s, refinement=other)


def test_stringy_E_reflexive_square():
    sq = LatticePolytope.convex_hull([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    s = trivial_subdivision(sq)
    e_st = hodge.stringy_E(s)
    assert e_st == 1 - (U + V) * W + UVW2
    # cross-check the (u, w) specialization against the same sum evaluated
    # with the substituted arguments directly
    direct = ZERO
    dual, face_map = sq.dual_face_map()
    lat = sq.face_lattice()
    for fid in lat.all_faces():
        qdim = lat.face_dim(fid)
        inner = (
            ONE
            if not fid
            else inv.local_limit_mixed_h_star(s.restrict(fid)).substitute(
                {"u": U * W**-1, "v": 1}
            )
        )
        outer = inv.local_h_star(dual.face(face_map[fid])).substitute(
            {"u": U * W}
        )
        direct = direct + (-W) ** (qdim + 1) * inner * outer
    assert direct == U * W * hodge.stringy_E_generic(s)


def test_stringy_requires_reflexive():
    with pytest.raises(ValueError):
        hodge.stringy_E(trivial_subdivision(cube(2)))


def test_stringy_mirror_pairs():
    sq = LatticePolytope.convex_hull([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    tri = LatticePolytope.convex_hull([(1, 0), (0, 1), (-1, -1)])
    for p in (sq, tri):
        dual = p.dual_polytope()
        a = hodge.stringy_E_generic(trivial_subdivision(p))
        b = hodge.stringy_E_generic(trivial_subdivision(dual))
        d = p.dim
        # mirror symmetry with the (-u)^(dim-1) convention
        assert a == (-U) ** (d - 1) * b.substitute({"u": U**-1})


def test_stringy_cube_octahedron_is_k3():
    import itertools

    cube3 = LatticePolytope.convex_hull(list(itertools.product((-1, 1), repeat=3)))
    oct3 = cube3.dual_polytope()
    e_cube = hodge.stringy_E(trivial_subdivision(cube3))
    e_oct = hodge.stringy_E(trivial_subdivision(oct3))
    # Trivial degeneration of a K3 family: Hodge numbers (1, 20, 1) in the
    # weight grading of a monodromy-free fiber.
    expected = 1 + (U**2 + V**2) * W**2 + 20 * U * V * W**2 + U**2 * V**2 * W**4
    assert e_cube == expected
    assert e_oct == expected
    a = hodge.stringy_E_generic(trivial_subdivision(cube3))
    b = hodge.stringy_E_generic(trivial_subdivision(oct3))
    assert a.substitute({"u": 1, "w": 1}) == 24
    assert a == (-U) ** 2 * b.substitute({"u": U**-1})


def test_stringy_with_nontrivial_subdivision_is_hodge_tate():
    # The diamond subdivided into four unimodular triangles from the origin:
    # a maximally degenerate family of elliptic curves.  The limit Hodge
    # structure is of Tate type, so the (1,0)/(0,1) classes of the trivial
    # degeneration become (0,0)/(1,1) classes here.
    from fractions import Fraction

    from polyhodge.subdivision import HeightFunction, regular_subdivision

    diamond = LatticePolytope.convex_hull([(1, 0), (-1, 0), (0, 1), (0, -1)])
    heights = {v: Fraction(1) for v in diamond.vertices}
    heights[(0, 0)] = Fraction(0)
    s = regular_subdivision(HeightFunction(diamond, heights))
    assert len(s.maximal_cells) == 4
    assert hodge.refined_E(s) == -3 - (1 + U * V) * W + UVW2
    assert hodge.intersection_E(s) == 1 - (1 + U * V) * W + UVW2
    assert hodge.stringy_E(s) == 1 - (1 + U * V) * W + UVW2
    # same generic fiber as the trivial degeneration, so the same mirror
    assert hodge.stringy_E_generic(s) == (1 - U) * (1 - W)


def test_dk_reconstruction_quartic_and_segments():
    s = quartic_triangle_pair()
    assert hodge.dk_reconstruct(s) == QUARTIC_E
    for length in (1, 3):
        st = trivial_subdivision(segment(length))
        assert hodge.dk_reconstruct(st) == length * ONE


def test_dk_reconstruction_random(corpus25):
    for s in corpus25[:10]:
        assert hodge.dk_reconstruct(s) == hodge.refined_E(s)


def test_dk_does_not_use_refined_tower(monkeypatch):
    # The reconstruction is an independent oracle: it must never call the
    # refined tower or refined_E itself.
    s = instance_corpus(4242, 3, dims=(2,))[1]

    def forbidden(*args, **kwargs):
        raise AssertionError("reconstruction called the refined tower")

    monkeypatch.setattr(inv, "refined_limit_mixed_h_star", forbidden)
    monkeypatch.setattr(inv, "face_tower", forbidden)
    monkeypatch.setattr(hodge, "refined_E", forbidden)
    memo.clear()
    result = hodge.dk_reconstruct(s)
    monkeypatch.undo()
    memo.clear()
    assert result == hodge.refined_E(s)


def test_torus_baseline():
    # With no interior faces other than P itself and trivial local parts,
    # the cone sum alone reproduces the torus value (uvw^2 - 1)^dim: on a
    # unimodular simplex the refined polynomial is 1, so uvw^2 E + 1 is it.
    for d in (1, 2, 3):
        s = trivial_subdivision(unit_simplex(d))
        e = hodge.refined_E(s)
        assert UVW2 * e == (UVW2 - 1) ** d + (-1) ** (d + 1)


def _model_restriction(s, fid):
    """S|Q rewritten full-dimensionally in the unimodular model of Q."""
    return model_complex(s.restrict(fid))


STRATUM_INVARIANTS = (
    hodge.refined_E,
    hodge.nearby_fiber_E,
    hodge.intersection_E,
    hodge.sum_over_strata_E_int,
    hodge.dk_reconstruct,
    hodge.partial_compactification_psi,
    inv.lambda_phi,
    lambda s: inv.e_int_lef(s.polytope),
)


def test_restrictions_agree_with_their_full_dimensional_models(corpus25):
    # Every invariant of S|Q depends only on the lattice of Q's span, so the
    # restriction in ambient coordinates and its model give the same values.
    complexes = list(corpus25) + [
        trivial_subdivision(p)
        for p in (cube(3), cube(4), cross_polytope(3), cross_polytope(4))
    ]
    lower = 0
    for s in complexes:
        lattice = s.polytope.face_lattice()
        for fid in lattice.all_faces():
            if lattice.face_dim(fid) < 1:
                continue
            restricted, model = s.restrict(fid), _model_restriction(s, fid)
            lower += restricted is not model
            for invariant in STRATUM_INVARIANTS:
                assert invariant(restricted) == invariant(model), (s.key, fid, invariant)
    assert lower == 336


def test_checks_pass_on_lower_dimensional_restrictions(corpus25):
    restrictions = 0
    for s in corpus25:
        lattice = s.polytope.face_lattice()
        for fid in lattice.all_faces():
            if not fid or fid == lattice.top:
                continue
            checks = run_checks(s.restrict(fid))
            assert [c for c in checks if not c.ok] == [], (s.key, fid)
            restrictions += 1
    assert restrictions == 254


# One side of a verify check on the quartic (d = 2), made wrong by adding a
# term, or by a map where the side is no polynomial, and the check that must
# then fail (a diagnostic: warn): u v w^(d+3) and u^(d+2) lie above the
# degree d + 1 that weak Lefschetz allows.
FAULTS = {
    "h_star_at_one_is_volume": (LatticePolytope, "pyramid_volume", 1),
    "euler_characteristic_specialization": (hodge, "euler_characteristic", 1),
    "weak_lefschetz_refined": (hodge, "refined_E", U * V * W**5),
    "weak_lefschetz_hodge_deligne": (hodge, "hodge_deligne", U**4),
    "limit_mixed_two_forms": (inv, "limit_mixed_h_star_by_links", 1),
    "dk_reconstruction": (hodge, "dk_reconstruct", 1),
    "strata_sum_is_intersection_E": (hodge, "sum_over_strata_E_int", 1),
    "compactified_psi_two_forms": (hodge, "compactified_psi_face_sum", 1),
    "refined_E_at_w1_is_nearby": (hodge, "nearby_fiber_E", 1),
    "specializes_to_mixed": (inv, "mixed_h_star", 1),
    "specializes_to_limit_mixed": (inv, "limit_mixed_h_star", 1),
    "chi_y_valuation": (hodge, "chi_y", 1),
    "refined_E_specializes_to_hodge_deligne": (hodge, "hodge_deligne", 1),
    "refined_E_symmetries": (hodge, "refined_E", U),
    "specializes_to_h_star": (inv, "h_star", U),
    "top_w_coefficient_is_local": (inv, "local_limit_mixed_h_star", U * V),
    # The refined faults keep E polynomial, so that the check runs at all.
    "refined_symmetric_uv": (inv, "refined_limit_mixed_h_star", U**2 * V * W**2),
    "refined_involution": (inv, "refined_limit_mixed_h_star", U**2 * V * W**2),
    "w_degree_bound": (inv, "refined_limit_mixed_h_star", U * V * W**5),
    "refined_nonnegative": (inv, "refined_limit_mixed_h_star", -(U**2) * V**2 * W**4),
    "lambda_palindromy": (inv, "lambda_phi", lambda pair: (pair[0] + U, pair[1])),
    "lambda_mixed_palindromy": (inv, "lambda_mixed", U),
    "small_coefficient_oracle": (
        inv, "small_coeff_oracle", lambda oracle: {k: v + 1 for k, v in oracle.items()}
    ),
    "hodge_number_tables": (inv, "local_limit_mixed_h_star", -(U**3) * V**3),
    "euler_relation": (CellComplex, "interior_cells", lambda cells: cells[:-1]),
    # u^3 v^3 w^4 makes the strip r = 2, k = 0 read [0, 0, 1], which is not
    # symmetric; the diagnostic warns and never fails.
    "unimodality_diagnostic": (inv, "refined_limit_mixed_h_star", U**3 * V**3 * W**4),
}


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_a_wrong_side_fails_its_verify_check(name, monkeypatch, quartic_triangle):
    def status():
        return {c.name: c.status for c in run_checks(quartic_triangle)}[name]

    # The clean run fills every cache first, so the fault reaches the
    # check's side and is stored nowhere.
    assert status() == "pass"
    owner, attr, fault = FAULTS[name]
    original = getattr(owner, attr)
    if callable(fault):
        monkeypatch.setattr(owner, attr, lambda *args: fault(original(*args)))
    else:
        monkeypatch.setattr(owner, attr, lambda *args: original(*args) + fault)
    assert status() == ("warn" if name == "unimodality_diagnostic" else "fail")


# Two draws whose P is a segment: in corpus 20240, P is first interned as a
# face of an earlier draw's cell; in corpus 7, by ``convex_hull``.
SEGMENT_DRAWS = [(20240, 25, 15), (7, 30, 6)]


@pytest.mark.parametrize("seed, count, index", SEGMENT_DRAWS)
def test_h_star_at_one_meets_a_volume_from_another_route(seed, count, index, monkeypatch):
    # A fault in P's box, in its size and its counts alike, moves h*(P; 1)
    # and the box volume together; the check must still see it, whichever
    # constructor interned P first.  The clean run fills every cache, and
    # only P's box, its volume and h*(P) are then dropped and recomputed.
    memo.clear()
    s = instance_corpus(seed, count)[index]
    p = s.polytope
    run_checks(s)
    box = LatticePolytope.box

    def faulted(self):
        size, counts = box(self)
        return (size + 1, counts + Counter({(1, 2): 1})) if self is p else (size, counts)

    monkeypatch.setattr(LatticePolytope, "box", faulted)
    for name in ("BOX", "VOLUME", "H_STAR"):
        del memo.TABLES[name][p.shape]
    try:
        checks = {c.name: c.status for c in run_checks(s)}
    finally:
        memo.clear()
    assert checks["h_star_at_one_is_volume"] == "fail"


def test_the_strata_are_read_off_the_tower_without_restricting(monkeypatch, corpus25):
    # refined_E and every reader of the strata take the per-face values of
    # one pass over S, and the 4-cross-polytope's g values of rank <= 6 come
    # in closed form, so its stringy E runs no step of the g recursion.
    def forbidden(self, face_id):
        raise AssertionError("a restricted complex was built")

    steps = []
    g_of = EulerianPoset._g_of

    def counted(self, z, x):
        steps.append(self.ranks[x] - self.ranks[z])
        return g_of(self, z, x)

    monkeypatch.setattr(CellComplex, "restrict", forbidden)
    monkeypatch.setattr(EulerianPoset, "_g_of", counted)
    memo.clear()
    cross = trivial_subdivision(cross_polytope(4))
    hodge.stringy_E(cross)
    assert steps == []
    for s in [cross] + [s for s in corpus25 if s.polytope.dim == 3][:4]:
        hodge.refined_E(s)
        hodge.intersection_E(s)
        hodge.sum_over_strata_E_int(s)
        hodge.partial_compactification_E(s)
        inv.lambda_phi(s)
    memo.clear()
