"""Acceptance suite: one test per exit criterion, exact arithmetic throughout.

Each test prints a single PASS line on success (visible with pytest -s / -v);
any failure is a real defect, not a tolerance issue, since every assertion is
an exact polynomial or integer identity.
"""

import random
import time

import pytest

from polyhodge import hodge, invariants as inv
from polyhodge.fans import TruncatedNormalFan, simplicial_refinement
from polyhodge.generators import random_lattice_polytope
from polyhodge.laurent import L, T, U, UVW2, V, W
from polyhodge.polytope import LatticePolytope
from polyhodge.poset import stanley_inversion_check
from polyhodge.subdivision import euler_relation_check, trivial_subdivision

from conftest import cross_polytope, cube, quartic_triangle_pair, unit_simplex

UVW2 = U * V * W**2


def passed(n, text):
    print(f"ACCEPTANCE {n:02d} PASS - {text}")


def test_criterion_01_worked_example_end_to_end():
    start = time.perf_counter()
    s = quartic_triangle_pair()
    assert len(s.maximal_cells) == 4
    assert hodge.as_class_polynomial(hodge.nearby_fiber_E(s)) == -14 - 2 * L
    assert hodge.refined_E(s) == -11 - 3 * (1 + U * V) * W + UVW2
    assert hodge.intersection_E(s) == 1 - 3 * (1 + U * V) * W + UVW2
    assert hodge.euler_characteristic(s.polytope) == -16
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    passed(1, f"worked example end-to-end in {elapsed:.3f}s")


def test_criterion_02_chi_y_recursion():
    for l in range(6):
        e = hodge.chi_y(unit_simplex(l))
        assert U * e == (U - 1) ** l + (-1) ** (l + 1)
    passed(2, "chi_y recursion on unimodular simplices l = 0..5")


def test_criterion_03_kouchnirenko():
    rng = random.Random(1234)
    for i in range(50):
        dim = 1 + i % 3
        p = random_lattice_polytope(rng, dim)
        assert hodge.euler_characteristic(p) == (-1) ** (dim + 1) * p.normalized_volume()
    passed(3, "Euler characteristic equals signed normalized volume, 50 instances")


def test_criterion_04_specialization_tower(corpus25):
    for s in corpus25:
        p = s.polytope
        refined = inv.refined_limit_mixed_h_star(s)
        assert refined.substitute({"w": 1}) == inv.limit_mixed_h_star(s)
        two_var_form = refined.substitute({"u": U * W**-1, "v": 1})
        assert two_var_form.is_polynomial()
        assert two_var_form == inv.mixed_h_star(p).substitute({"v": W})
        assert refined.substitute({"v": 1, "w": 1}) == inv.h_star(p)
        e = hodge.refined_E(s)
        assert e.substitute({"w": 1}) == hodge.nearby_fiber_E(s)
        assert e.substitute({"u": U * W**-1, "v": 1}) == hodge.hodge_deligne(p)
    passed(4, f"specialization tower on {len(corpus25)} random pairs")


def test_criterion_05_symmetry_suite(corpus25):
    instances = list(corpus25) + [quartic_triangle_pair()]
    involution = {"u": U**-1, "v": V**-1, "w": U * V * W}
    swap = {"u": V, "v": U}
    for s in instances:
        refined = inv.refined_limit_mixed_h_star(s)
        assert refined.substitute(swap) == refined
        assert refined.substitute(involution) == refined
        e = hodge.refined_E(s)
        assert e.substitute(swap) == e
        assert e.substitute(involution) == e
    passed(5, f"u/v swap and (u,v,w) -> (1/u,1/v,uvw) invariance on {len(instances)} instances")


def test_criterion_06_degree_and_top_coefficient(corpus25):
    instances = list(corpus25) + [quartic_triangle_pair()]
    for s in instances:
        refined = inv.refined_limit_mixed_h_star(s)
        d = s.polytope.dim
        assert refined.degree_in("w") <= d + 1
        assert refined.coeff_in("w", d + 1) == inv.local_limit_mixed_h_star(s)
    passed(6, "w-degree bound and local top coefficient on all instances")


def test_criterion_07_lambda_palindromy(corpus_dim23):
    def check(s, refinement=None):
        d = s.polytope.dim
        lam, _ = inv.lambda_phi(s, refinement)
        assert UVW2 ** (d + 1) * lam.substitute(
            {"u": U**-1, "v": V**-1, "w": W**-1}
        ) == lam
        mixed = inv.lambda_mixed(lam)
        assert (U * W) ** (d + 1) * mixed.substitute({"u": U**-1, "w": W**-1}) == mixed

    for s in corpus_dim23:
        check(s)
    # A genuinely non-simplicial fan admitting two distinct pulling orders.
    s4 = trivial_subdivision(cross_polytope(4))
    fan = TruncatedNormalFan(s4.polytope)
    ref1 = simplicial_refinement(fan)
    ref2 = simplicial_refinement(
        fan, ray_order=sorted(fan.ray_facet, key=lambda r: (-r[0],) + r[1:])
    )
    assert set(ref1.cones) != set(ref2.cones)
    check(s4, ref1)
    check(s4, ref2)
    passed(7, "Lambda palindromy, including two distinct refinements of a non-simplicial fan")


def test_criterion_08_stanley_inversion(corpus25):
    instances = list(corpus25) + [quartic_triangle_pair()]
    checked = 0
    for s in instances:
        # Each [F, top] is checked on a copy of its lattice's poset, whose
        # g table is its own.
        poset = s.polytope.face_lattice().poset().copy()
        for i in range(len(poset)):
            if i != poset.top:
                assert stanley_inversion_check(poset, (i, poset.top))
                checked += 1
        for cell in s.maximal_cells:
            poset = cell.face_lattice().poset().copy()
            for lower in s.cells:
                if s.leq(lower, cell) and lower != cell:
                    _, face, _ = s.interval_faces(lower, cell)
                    assert stanley_inversion_check(poset, (poset.elements.index(face), poset.top))
                    checked += 1
    passed(8, f"both inversion sums vanish on {checked} intervals")


def test_criterion_09_euler_relation(corpus25):
    for s in corpus25:
        lattice = s.polytope.face_lattice()
        for fid in lattice.all_faces():
            if fid != lattice.top:
                assert euler_relation_check(s, fid)
    passed(9, f"signed cell sums on {len(corpus25)} regular subdivisions")


def test_criterion_10_independent_oracles(corpus25):
    instances = list(corpus25) + [quartic_triangle_pair()]
    from polyhodge.laurent import ZERO

    for s in instances:
        assert hodge.dk_reconstruct(s) == hodge.refined_E(s)
        assert hodge.sum_over_strata_E_int(s) == hodge.intersection_E(s)
        if s.polytope.dim <= 3:
            refined = inv.refined_limit_mixed_h_star(s)
            body = (refined - 1) * UVW2**-1
            for (a, b, c), value in inv.small_coeff_oracle(s).items():
                assert body.coeff({"u": a, "v": b, "w": c}) == value
        total = ZERO
        for cell in s.interior_cells():
            total = total + hodge.chi_y(cell) * (1 - U) ** (s.polytope.dim - cell.dim)
        assert total == hodge.chi_y(s.polytope)
    passed(10, "reconstruction, strata-sum, closed-form and valuation oracles agree")


def test_criterion_11_intersection_lefschetz_part():
    octahedron = LatticePolytope.convex_hull(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    )
    prism = LatticePolytope.convex_hull(
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1)]
    )
    pyramid = LatticePolytope.convex_hull(
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]
    )
    for p in (unit_simplex(3), cube(3), octahedron, prism, pyramid):
        mu = len(p._facets) - 3
        assert inv.e_int_lef(p) == 1 + mu * T + T**2
    for polygon in (
        cube(2),
        LatticePolytope.convex_hull([(0, 0), (4, 0), (0, 4)]),
        LatticePolytope.convex_hull([(0, 0), (1, 0), (2, 1), (2, 2), (1, 2)]),
    ):
        assert inv.e_int_lef(polygon) == 1 + T
    passed(11, "Lefschetz part 1 + (facets-3) t + t^2 in dim 3, 1 + t for polygons")


def test_criterion_12_stringy_mirror_identity():
    # The mirror identity requires the sign (-u)^(dim P - 1); with the bare
    # power u^(dim P - 1) both sides differ by exactly that sign for curves
    # (see the decisions ledger).  Both facts are asserted.
    square = LatticePolytope.convex_hull([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    triangle = LatticePolytope.convex_hull([(1, 0), (0, 1), (-1, -1)])
    pairs = [
        (square, square.dual_polytope()),
        (square.dual_polytope(), square),
        (triangle, triangle.dual_polytope()),
        (triangle.dual_polytope(), triangle),
    ]
    for p, dual in pairs:
        d = p.dim
        a = hodge.stringy_E_generic(trivial_subdivision(p))
        b = hodge.stringy_E_generic(trivial_subdivision(dual))
        mirrored = b.substitute({"u": U**-1})
        assert a == (-U) ** (d - 1) * mirrored
        assert a == (-1) ** (d - 1) * U ** (d - 1) * mirrored
    passed(12, "stringy mirror identity with the (-u)^(dim-1) convention on both pairs")


def test_criterion_13_weak_lefschetz_degree_constraint(corpus25):
    # uvw^2 E matches (uvw^2 - 1)^(dim P) above w-degree dim P + 1, and the
    # two-variable analogue bounds combined degree (see the decisions ledger
    # for the exponent).
    instances = list(corpus25) + [quartic_triangle_pair()]
    for s in instances:
        d = s.polytope.dim
        lhs = UVW2 * hodge.refined_E(s)
        rhs = (UVW2 - 1) ** d
        for k in range(d + 2, 2 * d + 3):
            assert lhs.coeff_in("w", k) == rhs.coeff_in("w", k)
        diff = U * W * hodge.hodge_deligne(s.polytope) - (U * W - 1) ** d
        assert all(e[0] + e[2] <= d + 1 for e, _ in diff.terms())
    passed(13, "weak Lefschetz degree constraints on all instances")
