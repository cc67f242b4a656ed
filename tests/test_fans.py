import random
from fractions import Fraction

import pytest

from polyhodge.fans import (
    TruncatedNormalFan,
    cone_contains,
    identity_refinement,
    simplicial_refinement,
)
from polyhodge.polytope import LatticePolytope
from polyhodge.subdivision import trivial_subdivision

from conftest import cross_polytope, cube


def test_normal_fan_of_quartic_triangle():
    tri = LatticePolytope.convex_hull([(0, 0), (4, 0), (0, 4)])
    fan = TruncatedNormalFan(tri)
    rays = set(fan.ray_facet)
    assert rays == {(1, 0), (0, 1), (-1, -1)}
    dims = sorted(fan.cone_dim(f) for f in fan.face_ids)
    assert dims == [0, 1, 1, 1]


def test_normal_fan_of_square_and_cube():
    fan = TruncatedNormalFan(cube(2))
    assert sorted(fan.cone_dim(f) for f in fan.face_ids) == [0, 1, 1, 1, 1]
    fan3 = TruncatedNormalFan(cube(3))
    counts = {}
    for f in fan3.face_ids:
        counts[fan3.cone_dim(f)] = counts.get(fan3.cone_dim(f), 0) + 1
    assert counts == {0: 1, 1: 6, 2: 12}


def test_inclusion_reversal():
    fan = TruncatedNormalFan(cube(3))
    for fid in fan.face_ids:
        assert fan.cone_dim(fid) == 3 - fan.lattice.face_dim(fid)


def test_normal_fan_lives_in_the_polytopes_own_lattice():
    # A facet of the 3-cube and a segment of lattice length 2 in 3-space: the
    # fan has the polytope's own dimension, and face by face it has the cone
    # rays of the fan of the polytope's full-dimensional model.
    lattice = cube(3).face_lattice()
    faces = [lattice.face_polytope(fid) for fid in lattice.faces_of_dim(2)]
    faces.append(LatticePolytope.convex_hull([(1, 2, 3), (3, 6, 9)]))
    for q in faces:
        assert q.dim < q.ambient_dim
        fan = TruncatedNormalFan(q)
        assert fan.dim == q.dim
        for fid in fan.face_ids:
            assert fan.cone_dim(fid) == q.dim - fan.lattice.face_dim(fid)
        model = trivial_subdivision(q).model().polytope
        model_fan = TruncatedNormalFan(model)
        index = {v: i for i, v in enumerate(model.vertices)}
        to_model = [index[q._map.to_model(v)] for v in q.vertices]
        assert set(fan.ray_facet) == set(model_fan.ray_facet)
        assert len(fan.cone_rays) == len(model_fan.cone_rays)
        for fid, rays in fan.cone_rays.items():
            assert model_fan.cone_rays[tuple(sorted(to_model[i] for i in fid))] == rays


def test_refinement_of_simplicial_fans_is_identity():
    for p in (LatticePolytope.convex_hull([(0, 0), (4, 0), (0, 4)]), cube(3)):
        fan = TruncatedNormalFan(p)
        ref = simplicial_refinement(fan)
        ident = identity_refinement(fan)
        assert set(ref.cones) == set(ident.cones)


def test_cross_polytope_refinement_splits_square_cones():
    fan = TruncatedNormalFan(cross_polytope(4))
    nonsimplicial = [
        f for f in fan.face_ids if len(fan.cone_rays[f]) != fan.cone_dim(f)
    ]
    assert len(nonsimplicial) == 24  # the edge cones have four rays each
    ref = simplicial_refinement(fan)
    for rays, fid in ref.cones.items():
        assert len(rays) == (0 if not rays else len(rays))
        # carrier contains the cone
        for r in rays:
            assert cone_contains(fan.cone_rays[fid], r)
    # every non-simplicial 3-cone splits into two simplicial pieces
    tops = {}
    for rays, fid in ref.cones.items():
        if fid in nonsimplicial and len(rays) == 3:
            tops.setdefault(fid, []).append(rays)
    assert all(len(v) == 2 for v in tops.values())
    assert set(tops) == set(nonsimplicial)


def test_sigma_map_minimality():
    fan = TruncatedNormalFan(cross_polytope(4))
    ref = simplicial_refinement(fan)
    for rays, fid in ref.cones.items():
        if not rays:
            assert fid == fan.lattice.top
            continue
        # No strictly smaller coarse cone (larger face) contains all rays.
        for other in fan.face_ids:
            if set(fid) < set(other):
                assert not all(cone_contains(fan.cone_rays[other], r) for r in rays)


def test_refinement_support_sampling():
    fan = TruncatedNormalFan(cross_polytope(4))
    ref = simplicial_refinement(fan)
    rng = random.Random(8)
    by_face = {}
    for rays, fid in ref.cones.items():
        if len(rays) == fan.cone_dim(fid):
            by_face.setdefault(fid, []).append(rays)
    for fid in fan.face_ids:
        coarse = fan.cone_rays[fid]
        if not coarse:
            continue
        tops = by_face[fid]
        for _ in range(5):
            weights = [Fraction(rng.randint(1, 5)) for _ in coarse]
            pt = tuple(
                sum(w * r[i] for w, r in zip(weights, coarse))
                for i in range(len(coarse[0]))
            )
            assert cone_contains(coarse, pt)
            assert any(cone_contains(simplex, pt) for simplex in tops)


def test_nested_nonsimplicial_refinement():
    # In the 5-dimensional cross-polytope fan the edge cones have eight rays
    # and their facet cones are themselves non-simplicial, so the pulling
    # recursion has to triangulate non-simplicial faces before coning.
    from polyhodge import linalg

    fan = TruncatedNormalFan(cross_polytope(5))
    worst = max(
        len(fan.cone_rays[f]) - fan.cone_dim(f) for f in fan.face_ids
    )
    assert worst >= 4
    ref = simplicial_refinement(fan)
    for rays, fid in ref.cones.items():
        if rays:
            assert linalg.rank(list(rays)) == len(rays)
            for r in rays:
                assert cone_contains(fan.cone_rays[fid], r)
    rng = random.Random(1)
    deep = [f for f in fan.face_ids if fan.cone_dim(f) == 4][:3]
    for fid in deep:
        coarse = fan.cone_rays[fid]
        tops = [rays for rays, g in ref.cones.items() if g == fid and len(rays) == 4]
        for _ in range(5):
            weights = [Fraction(rng.randint(1, 7)) for _ in coarse]
            pt = tuple(
                sum(w * r[i] for w, r in zip(weights, coarse)) for i in range(5)
            )
            assert any(cone_contains(t, pt) for t in tops)


def test_subfan_validation():
    fan = TruncatedNormalFan(cube(2))
    assert fan.subfan([fan.lattice.top]) == frozenset({fan.lattice.top})
    assert fan.subfan(fan.face_ids) == fan.full_subfan()
    # rays only (the 1-skeleton) is closed under faces
    skeleton = [f for f in fan.face_ids if fan.cone_dim(f) <= 1]
    assert fan.subfan(skeleton)
    # a 2-cone without its rays is not closed
    fan3 = TruncatedNormalFan(cube(3))
    two_cone = next(f for f in fan3.face_ids if fan3.cone_dim(f) == 2)
    with pytest.raises(ValueError):
        fan3.subfan([two_cone, fan3.lattice.top])
    with pytest.raises(ValueError):
        fan3.subfan([two_cone])  # missing the zero cone


def test_cone_contains_basics():
    rays = ((1, 0), (1, 2))
    assert cone_contains(rays, (2, 2))
    assert cone_contains(rays, (0, 0))
    assert not cone_contains(rays, (0, 1))
    assert not cone_contains(rays, (-1, 0))
    assert cone_contains((), (0, 0))
    assert not cone_contains((), (1, 0))
