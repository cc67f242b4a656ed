import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from polyhodge import cli, linalg, memo, polytope
from polyhodge.generators import instance_corpus, random_height_function, random_lattice_polytope
from polyhodge.polytope import LatticePolytope
from polyhodge.poset import set_bits
from polyhodge.subdivision import (
    CellComplex,
    HeightFunction,
    euler_relation_check,
    regular_subdivision,
    trivial_subdivision,
)

from conftest import (
    carrier_reference, cells_containing_scan, cross_polytope, cube, faces_of_dim, mask,
    model_complex, poset_from_leq, quartic_triangle_pair,
)

DATA = Path(__file__).parent / "data"


def test_quartic_triangle_has_four_maximal_cells():
    s = quartic_triangle_pair()
    expected = {
        tuple(sorted([(0, 0), (4, 0), (1, 1), (2, 1)])),
        tuple(sorted([(0, 0), (0, 4), (1, 1), (1, 2)])),
        tuple(sorted([(4, 0), (0, 4), (2, 1), (1, 2)])),
        tuple(sorted([(1, 1), (2, 1), (1, 2)])),
    }
    assert {cell.vertices for cell in s.maximal_cells} == expected
    dims = {}
    for cell in s.cells[1:]:
        dims[cell.dim] = dims.get(cell.dim, 0) + 1
    assert dims == {0: 6, 1: 9, 2: 4}


def test_carriers_and_boundary_flags():
    s = quartic_triangle_pair()
    lat = s.polytope.face_lattice()
    tri_cell = LatticePolytope.convex_hull([(1, 1), (2, 1), (1, 2)])
    assert s.carrier(tri_cell) == lat.top
    assert tri_cell in s.interior_cells()
    bottom_edge = LatticePolytope.convex_hull([(0, 0), (4, 0)])
    carrier = s.carrier(bottom_edge)
    assert set(s.polytope.face(carrier).vertices) == {(0, 0), (4, 0)}
    assert bottom_edge not in s.interior_cells()
    assert s.cells[0] not in s.interior_cells()
    assert len(s.interior_cells()) == 13  # 3 vertices + 6 edges + 4 two-cells


def test_carrier_matches_brute_force():
    for s in instance_corpus(5, 6, dims=(2, 3)):
        lat = s.polytope.face_lattice()
        for cell in s.cells[1:]:
            # Smallest face containing the cell, found by exhaustive search.
            best = None
            for fid in lat.all_faces():
                if not fid:
                    continue
                if set(cell.vertices) <= set(s.polytope.face(fid).lattice_points()):
                    if best is None or lat.face_dim(fid) < lat.face_dim(best):
                        best = fid
            assert s.carrier(cell) == best


def test_carriers_match_the_dot_product_reference(corpus25):
    for s in corpus25:
        lattice = s.polytope.face_lattice()
        for fid in lattice.all_faces()[1:]:
            r = s.restrict(fid)
            for cell in r.cells[1:]:
                assert r.carrier(cell) == mask(carrier_reference(r, cell))


def test_trivial_subdivision_of_square():
    s = trivial_subdivision(cube(2))
    assert len(s.cells) == 10
    for cell in s.cells[1:]:
        assert s.polytope.face(s.carrier(cell)) is cell


def test_square_diagonal_split():
    sq = cube(2)
    heights = {(0, 0): Fraction(0), (1, 0): Fraction(0), (0, 1): Fraction(0), (1, 1): Fraction(1)}
    s = regular_subdivision(HeightFunction(sq, heights))
    assert {cell.vertices for cell in s.maximal_cells} == {
        tuple(sorted([(0, 0), (1, 0), (0, 1)])),
        tuple(sorted([(1, 0), (0, 1), (1, 1)])),
    }


def test_constant_heights_give_trivial_subdivision():
    sq = cube(2)
    heights = {v: Fraction(5) for v in sq.vertices}
    s = regular_subdivision(HeightFunction(sq, heights))
    assert s.cells == trivial_subdivision(sq).cells


def test_rational_heights_accepted():
    sq = cube(2)
    heights = {
        (0, 0): Fraction(1, 2),
        (1, 0): Fraction(0),
        (0, 1): Fraction(0),
        (1, 1): Fraction(1, 3),
    }
    s = regular_subdivision(HeightFunction(sq, heights))
    assert len(s.maximal_cells) == 2


def test_heights_must_span_polytope():
    sq = cube(2)
    with pytest.raises(ValueError):
        HeightFunction(sq, {(0, 0): Fraction(0), (1, 1): Fraction(1)})


# The domain of the heights is checked against P's vertices, facets and span,
# with no hull built.
SPAN_HEIGHTS = {(0, 0): 0, (2, 0): 1, (0, 2): 1, (2, 2): 0, (1, 1): 3}


def test_heights_reject_a_non_integer_coordinate():
    with pytest.raises(ValueError, match=r"coordinates must be integers, got \(1, 0.5\)"):
        HeightFunction(SQUARE, {**SPAN_HEIGHTS, (1, 0.5): 2})


def test_heights_reject_a_point_outside_p():
    with pytest.raises(ValueError, match="heights must be given on a set whose hull is P"):
        HeightFunction(SQUARE, {**SPAN_HEIGHTS, (3, 1): 2})


def test_heights_reject_a_point_off_the_span_of_a_lower_dimensional_p():
    # The square [0,2]^2 at height 1 in Z^3: (1, 1, 0) lies over it, not on it.
    lifted = {x + (1,): h for x, h in SPAN_HEIGHTS.items()}
    p = _hull(lifted)
    assert p.dim == 2 and HeightFunction(p, lifted).polytope is p
    with pytest.raises(ValueError, match="heights must be given on a set whose hull is P"):
        HeightFunction(p, {**lifted, (1, 1, 0): 2})


def test_heights_reject_a_domain_missing_a_vertex():
    missing = {x: h for x, h in SPAN_HEIGHTS.items() if x != (2, 2)}
    with pytest.raises(ValueError, match="heights must be given on a set whose hull is P"):
        HeightFunction(SQUARE, missing)


def test_heights_are_checked_with_no_hull_built(monkeypatch):
    monkeypatch.setattr(polytope, "_build_hull", None)
    assert HeightFunction(SQUARE, SPAN_HEIGHTS).polytope is SQUARE


def test_restriction_to_edge():
    s = quartic_triangle_pair()
    lat = s.polytope.face_lattice()
    edge = next(
        f
        for f in faces_of_dim(lat, 1)
        if set(s.polytope.face(f).vertices) == {(0, 0), (4, 0)}
    )
    r = s.restrict(edge)
    expected = {cell for cell in s.cells if all(v[1] == 0 for v in cell.vertices)}
    assert set(r.cells) == expected
    assert s.restrict(lat.top) is s


def test_restriction_of_trivial_is_trivial():
    p = cube(3)
    s = trivial_subdivision(p)
    lat = p.face_lattice()
    for fid in faces_of_dim(lat, 2):
        r = s.restrict(fid)
        assert r.cells == trivial_subdivision(p.face(fid)).cells
    with pytest.raises(ValueError):
        s.restrict(((0, 1, 2),))


def test_euler_relation_trivial_subdivision():
    for p in (cube(2), cube(3)):
        s = trivial_subdivision(p)
        assert euler_relation_check(s)


def test_euler_relation_on_quartic_triangle():
    s = quartic_triangle_pair()
    # Direct count: interior cells are 3 vertices, 6 edges, 4 two-cells.
    total = sum((-1) ** c.dim for c in s.interior_cells())
    assert total == 3 - 6 + 4 == 1
    assert euler_relation_check(s)
    lat = s.polytope.face_lattice()
    for fid in lat.all_faces():
        if fid != lat.top:
            assert euler_relation_check(s, fid)


def test_euler_relation_rejects_improper_face():
    s = trivial_subdivision(cube(2))
    with pytest.raises(ValueError):
        euler_relation_check(s, s.polytope.face_lattice().top)


def test_invalid_complex_rejected():
    # Dropping a maximal cell breaks the volume accounting.
    s = quartic_triangle_pair()
    with pytest.raises(ValueError, match="volume mismatch"):
        CellComplex(s.polytope, s.maximal_cells[1:])
    # A lower-dimensional cell given as maximal is rejected before the tiling
    # checks.
    cells = s.maximal_cells + (LatticePolytope.convex_hull([(0, 0), (4, 0)]),)
    with pytest.raises(ValueError, match="not full-dimensional"):
        CellComplex(s.polytope, cells)


def test_regular_subdivision_idempotent():
    rng = random.Random(2)
    for _ in range(4):
        p = random_lattice_polytope(rng, 2)
        hf = random_height_function(rng, p)
        s = regular_subdivision(hf)
        assert regular_subdivision(s.heights).cells == s.cells


def test_random_subdivisions_satisfy_euler_relation():
    for s in instance_corpus(9, 8, dims=(2, 3)):
        lat = s.polytope.face_lattice()
        for fid in lat.all_faces():
            if fid != lat.top:
                assert euler_relation_check(s, fid)


def test_interval_faces_match_cell_scan(corpus25):
    # interval_faces names [a, b] in the face lattice of the upper cell; the
    # reference rebuilds the interval from every cell between the two, which
    # checks it.
    quartic = quartic_triangle_pair()
    for s in [quartic] + [corpus25[i] for i in (4, 5, 11, 12)]:
        pairs = [(a, b) for b in s.cells for a in s.cells if s.leq(a, b)]
        assert (s.cells[0], s.cells[0]) in pairs
        for a, b in pairs:
            lattice, lower, upper = s.interval_faces(a, b)
            got = [
                f for f in lattice.all_faces() if lattice.leq(lower, f) and lattice.leq(f, upper)
            ]
            members = [c for c in s.cells if s.leq(a, c) and s.leq(c, b)]
            ref = poset_from_leq(members, s.leq)
            assert len(got) == len(ref)
            assert lattice.face_dim(upper) - lattice.face_dim(lower) == ref.rank
            assert lattice.g(lower, upper) == ref.g(ref.bottom, ref.top)
            # The face ids name exactly the cells between a and b.
            named = sorted(tuple(b.vertices[i] for i in set_bits(f)) for f in got)
            assert named == sorted(c.vertices for c in members)
    with pytest.raises(ValueError, match="not nested"):
        quartic.interval_faces(quartic.maximal_cells[0], quartic.cells[0])


def _gate_complexes(corpus25):
    return (
        list(corpus25)
        + instance_corpus(9, 8, dims=(2, 3))
        + [quartic_triangle_pair()]
        + [
            trivial_subdivision(p)
            for p in (cube(3), cube(4), cross_polytope(3), cross_polytope(4))
        ]
    )


def _face_closure(maximal):
    """The vertex sets of every face of every given cell, by vertex set, plus
    the empty cell's."""
    closure = {()}
    for cid in maximal:
        cell = LatticePolytope.convex_hull(cid)
        closure |= {cell.face(f).vertices for f in cell.face_lattice().all_faces()}
    return closure


def test_cells_are_the_faces_of_the_maximal_cells(corpus25):
    for s in _gate_complexes(corpus25):
        assert len(s.cells) == len(set(s.cells))
        closure = _face_closure(cell.vertices for cell in s.maximal_cells)
        assert {cell.vertices for cell in s.cells} == closure, s.key
        assert s.key == (s.polytope.key, s.maximal_cells)


def test_each_cell_is_the_interned_face_of_a_maximal_cell():
    # A cell is its polytope: the object that the hull of its vertices
    # interns, and a face polytope of some maximal cell's face lattice.
    memo.clear()
    complexes = instance_corpus(20240, 25) + [
        quartic_triangle_pair(), trivial_subdivision(cube(4)), trivial_subdivision(cross_polytope(3))
    ]
    for s in complexes:
        assert s.cells[0] is LatticePolytope.empty(s.polytope.ambient_dim)
        assert list(s.cells) == sorted(s.cells, key=lambda c: (c.dim, c.vertices))
        for c in s.cells[1:]:
            assert c is LatticePolytope.convex_hull(c.vertices), c
        faces = {
            id(top.face(f)) for top in s.maximal_cells for f in top.face_lattice().all_faces()
        }
        assert {id(c) for c in s.cells} == faces, s.key


def test_a_one_cell_complex_takes_its_incidence_from_the_cell_face_ids():
    # The cells of a complex with one maximal cell are the faces of that
    # cell.  Its vertices are sorted, so they are the 0-cells in order, and
    # a face's id in the cell's lattice is the face's vertex mask over the
    # 0-cells: the incidence read that way must be the complex's, on every
    # face of two 4-polytopes and on lower-dimensional cells.
    square = LatticePolytope.convex_hull([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
    tops = [cube(4), cross_polytope(4), square, LatticePolytope.convex_hull([(2, 3)])]
    for top in tops:
        for fid in top.face_lattice().all_faces()[1:]:
            face = top.face(fid)
            s = CellComplex(face, [face])
            fid_of = {face.face(f): f for f in face.face_lattice().all_faces()}
            cells = tuple(sorted(fid_of, key=lambda c: (c.dim, c.vertices)))
            vmask = [fid_of[c] for c in cells]
            faces = [tuple(range(1, len(cells)))]
            holders = [0] + [1] * (len(cells) - 1)
            assert (s.cells, list(s._vmask), s._faces, s._holders) == (
                cells, vmask, faces, holders
            ), face
            assert s._index == {cell: i for i, cell in enumerate(cells)}, face


def test_cells_containing_matches_cell_scan(corpus25):
    for s in _gate_complexes(corpus25):
        for c in s.cells:
            assert s.cells_containing(c) == tuple(b for b in s.cells if s.leq(c, b))


def test_leq_is_vertex_set_inclusion(corpus25):
    ladder = cli.build_complex(cli.parse_input(DATA / "ladder_6x3.json"))
    for s in [*corpus25, ladder]:
        vertex_sets = [(c, set(c.vertices)) for c in s.cells]
        for a, va in vertex_sets:
            for b, vb in vertex_sets:
                assert s.leq(a, b) == (va <= vb), (s.key, a, b)


def test_cells_containing_matches_the_scan_of_every_maximal_cell(corpus25):
    # The maximal cells holding a cell give what scanning every maximal
    # cell's own face lattice gives, in the same order.
    for s in corpus25:
        for c in s.cells:
            assert s.cells_containing(c) == cells_containing_scan(s, c), (s.key, c)


def test_restriction_keeps_the_cells_carried_by_the_face(corpus25):
    for s in _gate_complexes(corpus25):
        lattice = s.polytope.face_lattice()
        for fid in lattice.all_faces():
            if not fid:
                continue
            expected = {c for c in s.cells if not s.carrier(c) & ~fid}
            assert set(s.restrict(fid).cells) == expected, (s.key, fid)


def test_restriction_matches_the_scan_of_every_cell(corpus25):
    # restrict reads the cells carried by the face; the scan keeps every cell
    # of the face's dimension whose carrier lies in the face.
    points = json.loads((DATA / "square_in_space.json").read_text())["points"]
    square = trivial_subdivision(_hull(e["coords"] for e in points))
    for s in list(corpus25) + [square, model_complex(square)]:
        lattice = s.polytope.face_lattice()
        for fid in lattice.all_faces()[1:]:
            scan = [
                c
                for c in s.cells
                if c.dim == lattice.face_dim(fid) and lattice.leq(s.carrier(c), fid)
            ]
            assert s.restrict(fid).maximal_cells == tuple(scan), (s.key, fid)


def test_model_maps_every_cell(corpus25):
    lower = 0
    for s in _gate_complexes(corpus25):
        lattice = s.polytope.face_lattice()
        for fid in lattice.all_faces():
            if not fid:
                continue
            r = s.restrict(fid)
            model = model_complex(r)
            to_model = r.polytope._map.to_model
            mapped = {tuple(sorted(to_model(v) for v in c.vertices)) for c in r.cells}
            assert {c.vertices for c in model.cells} == mapped, (s.key, fid)
            assert model.polytope.dim == model.polytope.ambient_dim == r.polytope.dim
            lower += model is not r
    assert lower > 0


def _parsed(tmp_path, points):
    """cli.parse_input of the (coords, height) pairs."""
    path = tmp_path / "input.json"
    entries = [{"coords": list(c), "height": h} for c, h in points]
    path.write_text(json.dumps({"dim": len(points[0][0]), "points": entries}))
    return cli.parse_input(str(path))


def test_model_rewrites_into_the_span_lattice(tmp_path):
    # The CLI reads lower-dimensional input, heights included, in the
    # lattice of its span, and subdivides it there.
    seg = _parsed(tmp_path, [((0, 0), 0), ((0, 3), 0)])
    assert seg.polytope.vertices == ((0,), (3,))
    diag = _parsed(tmp_path, [((0, 0), 1), ((1, 1), 0), ((2, 2), 1)])
    assert diag.polytope.vertices == ((0,), (2,))
    assert diag.polytope.lattice_point_count(1) == 3
    assert diag.height_fn.heights == {(0,): 1, (1,): 0, (2,): 1}
    s = cli.build_complex(diag)
    assert [c.vertices for c in s.maximal_cells] == [((0,), (1,)), ((1,), (2,))]
    assert s.heights is diag.height_fn
    # A full-dimensional input is read as it stands.
    square = _parsed(tmp_path, [((0, 0), 0), ((1, 0), 0), ((0, 1), 0), ((1, 1), 1)])
    assert square.polytope is cube(2)


def _hull(points):
    return LatticePolytope.convex_hull(list(points))


SQUARE = _hull(itertools.product(range(3), repeat=2))
# The 146 two-dimensional hulls of 3 or 4 lattice points of [0,2]^2.
SQUARE_CELLS = sorted(
    {
        hull.vertices: hull
        for k in (3, 4)
        for points in itertools.combinations(SQUARE.lattice_points(), k)
        if (hull := _hull(points)).dim == 2
    }.values(),
    key=lambda hull: hull.vertices,
)


def _rejects(p, maximal):
    try:
        CellComplex(p, maximal)
    except ValueError:
        return True
    return False


def _edges(cell):
    lattice = cell.face_lattice()
    return [
        linalg.vec_sub(cell.vertices[j], cell.vertices[i])
        for i, j in map(set_bits, faces_of_dim(lattice, 1))
    ]


def _cross(e, f):
    return (
        e[1] * f[2] - e[2] * f[1],
        e[2] * f[0] - e[0] * f[2],
        e[0] * f[1] - e[1] * f[0],
    )


def _interiors_meet(a, b):
    """Exact separating-axis test for full-dimensional cells in dimension at
    most 3.  The interiors are disjoint iff the origin is not inside A - B,
    iff a facet normal of A - B weakly separates A from B; those normals are
    the facet normals of A and of B and, in dimension 3, the cross products
    of an edge of A with an edge of B."""
    axes = [n for n, _ in a._facets + b._facets]
    if a.dim == 3:
        axes += [_cross(e, f) for e in _edges(a) for f in _edges(b)]
    for n in axes:
        if not any(n):
            continue
        on_a = [linalg.dot(n, v) for v in a.vertices]
        on_b = [linalg.dot(n, v) for v in b.vertices]
        if max(on_a) <= min(on_b) or max(on_b) <= min(on_a):
            return False
    return True


def _rejected_by_all_pairs_check(p, maximal):
    """Reference validation that asks every pair of cells, not only the
    maximal ones, to meet in a common face, and the interiors of any two
    maximal cells to be disjoint."""
    if not maximal or any(c.dim != p.dim for c in maximal):
        return True
    vertex_sets = {c.vertices for c in maximal}
    if sum(_hull(cid).normalized_volume() for cid in vertex_sets) != p.normalized_volume():
        return True
    cells = _face_closure(vertex_sets) - {()}
    points = sum(_hull(cid).interior_lattice_point_count() for cid in cells)
    if points != p.lattice_point_count(1):
        return True
    faces = {cid: _face_closure([cid]) for cid in cells}
    for a, b in itertools.combinations(cells, 2):
        common = tuple(sorted(set(a) & set(b)))
        if common and not (common in cells and common in faces[a] and common in faces[b]):
            return True
    return any(
        _interiors_meet(_hull(a), _hull(b))
        for a, b in itertools.combinations(vertex_sets, 2)
    )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_validation_matches_all_pairs_check_on_square_cells(data):
    maximal = data.draw(st.lists(st.sampled_from(SQUARE_CELLS), max_size=2))
    # The last cell completes the volume of P when one can, so that most
    # draws reach the lattice-point and common-face checks.
    rest = SQUARE.normalized_volume() - sum(c.normalized_volume() for c in maximal)
    fits = [c for c in SQUARE_CELLS if c.normalized_volume() == rest]
    maximal.append(data.draw(st.sampled_from(fits or SQUARE_CELLS)))
    assert _rejects(SQUARE, maximal) == _rejected_by_all_pairs_check(SQUARE, maximal)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_validation_matches_all_pairs_check_on_corrupted_complexes(corpus25, data):
    s = data.draw(st.sampled_from(corpus25))
    maximal = list(s.maximal_cells)
    points = s.polytope.lattice_points()
    change = data.draw(st.sampled_from(["drop", "add", "swap"]))
    if change != "add":
        dropped = maximal.pop(data.draw(st.integers(0, len(maximal) - 1)))
    if change == "swap":
        # The new cell lies on the points of the dropped cell and of a
        # neighbour, so it often keeps the volume and the lattice points.
        near = [c for c in maximal if set(c.vertices) & set(dropped.vertices)]
        neighbour = data.draw(st.sampled_from(near)) if near else dropped
        points = sorted(set(dropped.lattice_points()) | set(neighbour.lattice_points()))
    if change != "drop":
        dim = s.polytope.dim
        chosen = data.draw(
            st.lists(st.sampled_from(points), min_size=dim + 1, max_size=dim + 2, unique=True)
        )
        maximal.append(_hull(chosen))
    assert _rejects(s.polytope, maximal) == _rejected_by_all_pairs_check(
        s.polytope, maximal
    )


def test_common_face_pass_visits_the_maximal_pairs_that_share_a_vertex(monkeypatch):
    s = cli.build_complex(cli.parse_input(DATA / "ladder_5x4.json"))
    sharing = [
        (a, b)
        for a, b in itertools.combinations(s.maximal_cells, 2)
        if set(a.vertices) & set(b.vertices)
    ]
    visited = []
    meeting_pairs = CellComplex._meeting_pairs

    def recorded(self):
        for a, later in meeting_pairs(self):
            cells = self.maximal_cells
            visited.extend((cells[a], cells[b]) for b in set_bits(later))
            yield a, later

    monkeypatch.setattr(CellComplex, "_meeting_pairs", recorded)
    CellComplex(s.polytope, s.maximal_cells)
    # 20 868 of the 76 245 pairs, in the order of all pairs, so the first
    # failing pair is the one that order finds.
    assert len(s.maximal_cells) == 391 and len(sharing) == 20_868
    assert visited == sharing


def test_cells_meeting_in_a_non_face_are_rejected():
    maximal = [
        _hull([(0, 0), (0, 1), (1, 0), (1, 2)]),
        _hull([(0, 0), (1, 2), (2, 0), (2, 1)]),
    ]
    with pytest.raises(ValueError, match="cells intersect in a non-face"):
        CellComplex(SQUARE, maximal)


def test_cells_meeting_in_a_non_face_of_the_later_cell_are_rejected():
    # The cells above mirrored by x -> 2 - x: the segment from (2, 0) to
    # (1, 2) is a diagonal of the cell that now comes second in the order
    # of the maximal cells, and an edge of the first.
    diagonal = _hull([(1, 0), (1, 2), (2, 0), (2, 1)])
    edge = _hull([(0, 0), (0, 1), (1, 2), (2, 0)])
    assert edge.vertices < diagonal.vertices
    with pytest.raises(ValueError, match="cells intersect in a non-face"):
        CellComplex(SQUARE, [diagonal, edge])


def test_overlapping_cells_are_rejected():
    # Both triangles lie on the same side of their shared edge.
    maximal = [_hull([(0, 0), (0, 2), (2, 0)]), _hull([(0, 0), (0, 2), (2, 2)])]
    with pytest.raises(ValueError, match="cells overlap or leave a gap at a facet"):
        CellComplex(SQUARE, maximal)


def test_overlapping_segments_are_rejected():
    # The volumes add up to 7 and the cell interiors hold 8 lattice points,
    # as [0, 7] does, but [4, 5] lies inside [3, 6] and nothing covers [0, 3].
    maximal = [_hull([(a,), (b,)]) for a, b in ((3, 6), (4, 5), (5, 7), (6, 7))]
    with pytest.raises(ValueError, match="cells overlap or leave a gap at a facet"):
        CellComplex(_hull([(0,), (7,)]), maximal)


# k*D_d with heights 7|x|^2 plus noise in 0..3 from random.Random(1), in the
# order of itertools.product.  The lower hull of the lift is the only large
# hull; trying every d-subset of the lift as a facet made about 2 M
# hyperplane normals on 6*D3.
LADDERS = {"ladder_6x3.json": 169, "ladder_3x4.json": 56}


@pytest.mark.parametrize("name", sorted(LADDERS))
def test_ladder_subdivision_needs_no_candidate_scan(name, monkeypatch):
    data = json.loads((Path(__file__).parent / "data" / name).read_text())
    heights = {tuple(e["coords"]): Fraction(e["height"]) for e in data["points"]}
    memo.clear()
    height_fn = HeightFunction(LatticePolytope.convex_hull(list(heights)), heights)
    calls, planes, runs = [], [], []
    kernel_basis = linalg.kernel_basis
    facet_plane, hull_in_full_dim = polytope._facet_plane, polytope._hull_in_full_dim

    def counted(rows):
        calls.append(len(rows))
        return kernel_basis(rows)

    def counted_plane(*args):
        planes.append(args)
        return facet_plane(*args)

    def counted_hull(d, pts):
        before = len(planes)
        out = hull_in_full_dim(d, pts)
        runs.append((d, len(planes) - before))
        return out

    monkeypatch.setattr(linalg, "kernel_basis", counted)
    monkeypatch.setattr(polytope, "_facet_plane", counted_plane)
    monkeypatch.setattr(polytope, "_hull_in_full_dim", counted_hull)
    s = regular_subdivision(height_fn)
    assert len(s.maximal_cells) == LADDERS[name]
    assert len(calls) < 10_000
    # Only the starting simplex's d + 1 facets of the d-dimensional lift take
    # a kernel; every later one takes the plane of the pencil through its
    # horizon ridge.
    d = height_fn.polytope.dim + 1
    assert runs == [(d, d + 1)]
