import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from polyhodge.fans import TruncatedNormalFan, identity_refinement, simplicial_refinement
from polyhodge.polytope import LatticePolytope
from polyhodge.poset import set_bits
from polyhodge.subdivision import trivial_subdivision

from conftest import (
    cone_contains_reference, cross_polytope, cube, faces_of_dim, mask, model_complex,
    rref_oracle,
)


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
    cube3 = cube(3)
    faces = [cube3.face(fid) for fid in faces_of_dim(cube3.face_lattice(), 2)]
    faces.append(LatticePolytope.convex_hull([(1, 2, 3), (3, 6, 9)]))
    for q in faces:
        assert q.dim < q.ambient_dim
        fan = TruncatedNormalFan(q)
        assert fan.dim == q.dim
        for fid in fan.face_ids:
            assert fan.cone_dim(fid) == q.dim - fan.lattice.face_dim(fid)
        model = model_complex(trivial_subdivision(q)).polytope
        model_fan = TruncatedNormalFan(model)
        index = {v: i for i, v in enumerate(model.vertices)}
        to_model = [index[q._map.to_model(v)] for v in q.vertices]
        assert set(fan.ray_facet) == set(model_fan.ray_facet)
        assert len(fan.cone_rays) == len(model_fan.cone_rays)
        for fid, rays in fan.cone_rays.items():
            assert model_fan.cone_rays[mask(to_model[i] for i in set_bits(fid))] == rays


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
            assert cone_contains_reference(fan.cone_rays[fid], r)
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
            if fid != other and not fid & ~other:
                assert not all(cone_contains_reference(fan.cone_rays[other], r) for r in rays)


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
            assert cone_contains_reference(coarse, pt)
            assert any(cone_contains_reference(simplex, pt) for simplex in tops)


def test_nested_nonsimplicial_refinement():
    # In the 5-dimensional cross-polytope fan the edge cones have eight rays
    # and their facet cones are themselves non-simplicial, so the pulling
    # recursion has to triangulate non-simplicial faces before coning.
    fan = TruncatedNormalFan(cross_polytope(5))
    worst = max(
        len(fan.cone_rays[f]) - fan.cone_dim(f) for f in fan.face_ids
    )
    assert worst >= 4
    ref = simplicial_refinement(fan)
    for rays, fid in ref.cones.items():
        if rays:
            assert len(rref_oracle(list(rays))[1]) == len(rays)
            for r in rays:
                assert cone_contains_reference(fan.cone_rays[fid], r)
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
            assert any(cone_contains_reference(t, pt) for t in tops)


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


def test_face_of_on_the_quartic_triangle():
    # Vertices (0, 0), (0, 4), (4, 0) have indices 0, 1, 2.
    fan = TruncatedNormalFan(LatticePolytope.convex_hull([(0, 0), (4, 0), (0, 4)]))
    assert fan.face_of((0, 0)) == mask({0, 1, 2})
    assert fan.face_of((1, 0)) == fan.face_of((3, 0)) == mask({0, 1})
    assert fan.face_of((0, 1)) == mask({0, 2})
    assert fan.face_of((-1, -1)) == mask({1, 2})
    assert fan.face_of((1, 2)) == mask({0})  # inside a maximal cone, which is removed
    assert fan.face_of((-1, 0)) == mask({2})
    for y, face in (((2, 0), (0, 1)), ((0, 0), (0, 1)), ((0, 0), (0, 1, 2))):
        assert not mask(face) & ~fan.face_of(y)
    for y, face in (((0, 1), (0, 1)), ((-1, 0), (0, 1)), ((1, 0), (0, 1, 2))):
        assert mask(face) & ~fan.face_of(y)
    assert fan.smallest_face_for_rays(()) == fan.lattice.top
    assert fan.smallest_face_for_rays([(1, 0), (2, 0)]) == mask((0, 1))
    assert fan.smallest_face_for_rays([(0, 0), (-2, -2)]) == mask((1, 2))
    with pytest.raises(ValueError):
        fan.smallest_face_for_rays([(1, 0), (0, 1)])


def _fan_cases():
    cube3 = cube(3)
    return [
        LatticePolytope.convex_hull([(0, 0), (4, 0), (0, 4)]),
        cube(2),
        cube3,
        cross_polytope(3),
        cross_polytope(4),
        cube3.face(faces_of_dim(cube3.face_lattice(), 2)[0]),  # lower-dimensional
        LatticePolytope.convex_hull([(1, 2, 3), (3, 6, 9)]),
    ]


FAN_CASES = [TruncatedNormalFan(p) for p in _fan_cases()]


@st.composite
def fans(draw):
    """A fixed fan above, or the fan of the hull of 3-7 random points."""
    if draw(st.booleans()):
        return draw(st.sampled_from(FAN_CASES))
    d = draw(st.integers(1, 3))
    pts = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=3, max_size=7))
    fan = TruncatedNormalFan(LatticePolytope.convex_hull(pts))
    assume(fan.face_ids)
    return fan


def vectors_in_cone(draw, fan, fid, count):
    """Nonnegative integer combinations of the rays of the cone of fid."""
    rays = fan.cone_rays[fid]
    weights = st.lists(st.integers(0, 3), min_size=len(rays), max_size=len(rays))
    out = []
    for _ in range(count):
        w = draw(weights)
        out.append(tuple(sum(c * r[i] for c, r in zip(w, rays)) for i in range(fan.dim)))
    return out


@settings(max_examples=60, deadline=None)
@given(fans(), st.data())
def test_face_of_decides_cone_membership_like_the_reference(fan, data):
    if data.draw(st.booleans()):
        y = data.draw(st.tuples(*[st.integers(-3, 3)] * fan.dim))
    else:
        y = vectors_in_cone(data.draw, fan, data.draw(st.sampled_from(fan.face_ids)), 1)[0]
    containing = []
    for fid in fan.face_ids:
        inside = cone_contains_reference(fan.cone_rays[fid], y)
        assert (not fid & ~fan.face_of(y)) == inside
        if inside:
            containing.append(fid)
    if containing:
        smallest = fan.smallest_face_for_rays([y])
        assert all(not fid & ~smallest for fid in containing)
        assert smallest in containing
    else:
        with pytest.raises(ValueError):
            fan.smallest_face_for_rays([y])


@settings(max_examples=60, deadline=None)
@given(fans(), st.data())
def test_smallest_cone_of_vectors_in_one_cone_matches_the_reference(fan, data):
    cone = data.draw(st.sampled_from(fan.face_ids))
    vectors = vectors_in_cone(data.draw, fan, cone, data.draw(st.integers(0, 3)))
    containing = [
        fid
        for fid in fan.face_ids
        if all(cone_contains_reference(fan.cone_rays[fid], y) for y in vectors)
    ]
    smallest = max(containing, key=int.bit_count)
    assert all(not fid & ~smallest for fid in containing)
    assert fan.smallest_face_for_rays(vectors) == smallest


def test_every_cone_is_the_cone_of_its_ray_sum():
    # The sum of a cone's rays lies in its relative interior, so it is least
    # exactly on the cone's face.
    for fan in FAN_CASES:
        for fid, rays in fan.cone_rays.items():
            y = tuple(map(sum, zip(*rays))) if rays else (0,) * fan.dim
            assert fan.face_of(y) == fid
