"""Regular lattice polyhedral subdivisions induced by height functions.

A cell complex is given by its maximal cells, the full-dimensional cells
of a subdivision of a polytope P.  Its cells are every face of a maximal
cell plus the empty cell, so the cell set is closed under faces by
construction.  It stores the inclusion order among cells and per-cell
metadata: the carrier (smallest face of P containing the cell, named by its
vertex bitmask in P's face lattice), and it groups the cells by carrier; the
interior cells are those carried by P.  Regular subdivisions are produced by
projecting the lower facets of the lifted point set; constant or affine
heights give the trivial subdivision, whose one maximal cell is P.

Construction validates the subdivision axioms: the given cells are
full-dimensional, their normalized volumes add up to the volume of P,
relative interiors partition the lattice points of P, any two maximal
cells meet in a common face, and each facet of a maximal cell lies in
exactly one maximal cell if it is in the boundary of P and in exactly two
otherwise.  The common-face check compares vertex sets, and checking the
maximal pairs covers every pair of cells: each cell is a face of a maximal
one, and faces of two cells that meet in a common face meet in a common face
of theirs.  The facet count rejects cells that overlap or leave a gap,
which vertex sets alone cannot see.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import gcd
from operator import and_
from typing import Mapping

from .linalg import dot
from .polytope import LatticePolytope
from .poset import set_bits
from .memo import table

CellId = tuple  # sorted tuple of vertex coordinate tuples; () is the empty cell


class HeightFunction:
    """Rational heights on a finite set of lattice points spanning P."""

    def __init__(self, polytope: LatticePolytope, heights: Mapping[tuple, Fraction]):
        self.polytope = polytope
        self.heights = {tuple(p): Fraction(h) for p, h in heights.items()}
        hull = LatticePolytope.convex_hull(list(self.heights))
        if hull.key != polytope.key:
            raise ValueError("heights must be given on a set whose hull is P")

    def integer_scaled(self) -> dict[tuple, int]:
        """Heights scaled by a positive integer to clear denominators."""
        lcm = 1
        for h in self.heights.values():
            lcm = lcm * h.denominator // gcd(lcm, h.denominator)
        return {p: int(h * lcm) for p, h in self.heights.items()}


_COMPLEX_INTERN = table("COMPLEX_INTERN")


class CellComplex:
    """A lattice polyhedral subdivision of a polytope, as a poset of cells.

    Cells are ordered by inclusion, which for cells of a valid complex is
    vertex-set inclusion.  Complexes are immutable after construction and
    interned by (polytope, maximal cell ids), so repeated restrictions are
    validated once.
    """

    @staticmethod
    def interned(polytope: LatticePolytope, maximal, heights=None) -> "CellComplex":
        """The complex whose maximal cells are the given full-dimensional cells."""
        key = (polytope.key, tuple(sorted({poly.vertices for poly in maximal})))
        cached = _COMPLEX_INTERN.get(key)
        if cached is None:
            cached = CellComplex(polytope, maximal, heights=heights)
            _COMPLEX_INTERN[key] = cached
        elif heights is not None and cached.heights is None:
            # Kept so that a regular subdivision always carries its heights.
            # The complex is shared, so an earlier trivial subdivision of the
            # same polytope gains them too, and with them one more verify
            # check.  Taking heights off the shared object changes pinned
            # verify output: corpus 20240's instance 3 (trivial) inherits the
            # heights that instance 0 (affine heights) was interned with.
            cached.heights = heights
        return cached

    def __init__(self, polytope: LatticePolytope, maximal, heights=None):
        self.polytope = polytope
        self.heights = heights
        cells: dict[CellId, LatticePolytope] = {
            (): LatticePolytope.empty(polytope.ambient_dim)
        }
        # The nonempty faces of each maximal cell: the cell incidence.
        self._faces: dict[CellId, frozenset] = {}
        for poly in maximal:
            lat = poly.face_lattice()
            faces = [lat.face_polytope(fid) for fid in lat.all_faces() if fid]
            cells.update((face.vertices, face) for face in faces)
            self._faces[poly.vertices] = frozenset(face.vertices for face in faces)
        self.cells = dict(sorted(cells.items(), key=lambda kv: (kv[1].dim, kv[0])))
        self.ids = tuple(self.cells)
        self._vsets = {cid: frozenset(cid) for cid in self.ids}
        self._dims = {cid: poly.dim for cid, poly in self.cells.items()}
        self.maximal_cells = tuple(sorted(self._faces))
        # The inverse incidence: each nonempty cell -> the maximal cells holding it.
        self._holders: dict[CellId, list] = {}
        for top in self.maximal_cells:
            for face in self._faces[top]:
                self._holders.setdefault(face, []).append(top)
        self._carrier, self._carried = self._compute_carriers()
        self._validate()

    # -- structure ----------------------------------------------------------

    @property
    def key(self):
        return (self.polytope.key, self.maximal_cells)

    def dim_of(self, cid: CellId) -> int:
        return self._dims[cid]

    def cell_polytope(self, cid: CellId) -> LatticePolytope:
        return self.cells[cid]

    def nonempty_ids(self):
        return tuple(cid for cid in self.ids if cid != ())

    def leq(self, a: CellId, b: CellId) -> bool:
        return self._vsets[a] <= self._vsets[b]

    def cells_containing(self, cid: CellId):
        """Cells above ``cid`` in ``ids`` order, read off the maximal cells
        that hold it."""
        if cid == ():
            return self.ids
        vs = self._vsets[cid]
        above = {b for top in self._holders[cid] for b in self._faces[top]}
        above = [b for b in above if vs <= self._vsets[b]]
        return tuple(sorted(above, key=lambda b: (self._dims[b], b)))

    def _compute_carriers(self):
        """Each cell's carrier: the facets of P through all its vertices,
        intersected; and the nonempty cells grouped by carrier, in ``ids`` order."""
        p = self.polytope
        on = {}  # point -> bitmask of the facets of P through it
        carrier, carried = {(): 0}, {}
        for cid in self.ids[1:]:  # () first, then the points, by (dim, id)
            if len(cid) == 1:
                x = p._map.to_model(cid[0])
                on[cid[0]] = sum(1 << j for j, (a, b) in enumerate(p._facets) if dot(a, x) == b)
            face = (1 << len(p.vertices)) - 1
            for j in set_bits(reduce(and_, (on[v] for v in cid))):
                face &= p._facet_masks[j]
            carrier[cid] = face
            carried.setdefault(face, []).append(cid)
        return carrier, carried

    def carried(self, face_id) -> tuple:
        """The nonempty cells whose carrier is the face, in ``ids`` order:
        the interior cells of the restriction to that face."""
        return tuple(self._carried.get(face_id, ()))

    def carrier(self, cid: CellId):
        """Face id (in P's face lattice) of the smallest face containing the cell."""
        return self._carrier[cid]

    def interior_ids(self):
        """Nonempty cells whose relative interior lies in the interior of P:
        the cells carried by P, in ``ids`` order."""
        return self.carried(self.polytope.face_lattice().top)

    # -- posets ---------------------------------------------------------------

    def interval_faces(self, a: CellId, b: CellId):
        """The cell interval [a, b] as (lattice, lower, upper) faces.

        Every cell below b is a face of b (``_validate`` checks this), so the
        interval is [a, top] in b's validated face lattice, with a named by
        the bitmask of its vertices among those of ``b``.  The empty cell has
        no face lattice; [(), ()] is the one-point interval of P's lattice.
        """
        if not self.leq(a, b):
            raise ValueError("not an interval: cells are not nested")
        if b == ():
            return self.polytope.face_lattice(), 0, 0
        lattice = self.cells[b].face_lattice()
        return lattice, sum(1 << b.index(v) for v in a), lattice.top

    # -- derived complexes ------------------------------------------------------

    def restrict(self, face_id) -> "CellComplex":
        """The subdivision of a face Q of P by the cells contained in Q.

        Its maximal cells are the cells of dimension dim Q carried by Q, read
        off the cells grouped by carrier: a cell of dimension dim Q inside Q
        is carried by a face of Q of dimension at least dim Q, that is by Q.
        """
        lattice = self.polytope.face_lattice()
        if face_id not in lattice.faces:
            raise ValueError("restriction target is not a face of P")
        if not face_id:
            raise ValueError("cannot restrict to the empty face")
        if face_id == lattice.top:
            return self
        qdim = lattice.face_dim(face_id)
        kept = [self.cells[cid] for cid in self._carried[face_id] if self._dims[cid] == qdim]
        return CellComplex.interned(lattice.face_polytope(face_id), kept)

    def model(self) -> "CellComplex":
        """The complex rewritten in the lattice of P's affine span.

        A full-dimensional complex is its own model; otherwise the maximal
        cells are mapped by P's unimodular model map.
        """
        map_ = self.polytope._map
        if map_.is_identity:
            return self
        hull = LatticePolytope.convex_hull
        kept = [hull([map_.to_model(v) for v in cid]) for cid in self.maximal_cells]
        return CellComplex.interned(hull(self.polytope._model_vertices), kept)

    # -- validation ---------------------------------------------------------------

    def _validate(self):
        p = self.polytope
        if not self.maximal_cells:
            raise ValueError("subdivision has no full-dimensional cells")
        if any(self._dims[cid] != p.dim for cid in self.maximal_cells):
            raise ValueError("a maximal cell is not full-dimensional")
        vol = sum(self.cells[cid].normalized_volume() for cid in self.maximal_cells)
        if vol != p.normalized_volume():
            raise ValueError("maximal cells do not tile P: volume mismatch")
        # Relative interiors partition the lattice points of P.
        pts = sum(
            self.cells[cid].interior_lattice_point_count()
            for cid in self.ids
            if cid != ()
        )
        if pts != p.lattice_point_count(1):
            raise ValueError("cell interiors do not partition the lattice points of P")
        # Any two maximal cells meet, on vertex sets, in a common face.  This
        # covers every pair of cells, as each cell is a face of a maximal
        # one: if A ∩ B = F is a face of A and of B, then for faces a ≤ A and
        # b ≤ B, a ∩ b = (a ∩ F) ∩ (b ∩ F) is a face of F, so of a and of b.
        for a, b in combinations(self.maximal_cells, 2):
            common = tuple(sorted(self._vsets[a] & self._vsets[b]))
            if common and not (common in self._faces[a] and common in self._faces[b]):
                raise ValueError("cells intersect in a non-face")
        # A facet of a maximal cell lies in one maximal cell on the boundary
        # of P and in two inside it; overlaps and gaps break that count.
        top = p.face_lattice().top
        for f, tops in self._holders.items():
            if self._dims[f] == p.dim - 1 and len(tops) != (1 if self._carrier[f] != top else 2):
                raise ValueError("cells overlap or leave a gap at a facet")


def trivial_subdivision(polytope: LatticePolytope) -> CellComplex:
    """The subdivision whose cells are the faces of P."""
    if polytope.is_empty:
        raise ValueError("trivial subdivision of the empty polytope")
    return CellComplex.interned(polytope, [polytope])


def regular_subdivision(height_fn: HeightFunction) -> CellComplex:
    """Subdivision induced by a height function via the lower hull.

    Cells are the projections of the facets of conv{(a, h(a))} whose inner
    normal has positive last coordinate; affine height functions induce the
    trivial subdivision.
    """
    p = height_fn.polytope
    map_ = p._map
    scaled = height_fn.integer_scaled()
    lifted = [map_.to_model(a) + (h,) for a, h in scaled.items()]
    hull = LatticePolytope.convex_hull(lifted)
    if hull.dim <= p.dim:
        # Affine heights: every lifted point is on the one lower facet.
        return CellComplex.interned(p, [p], heights=height_fn)
    maximal = []
    for (a, b), mask in zip(hull._facets, hull._facet_masks):
        if a[-1] > 0:
            pts = [map_.from_model(hull._model_vertices[i][:-1]) for i in set_bits(mask)]
            maximal.append(LatticePolytope.convex_hull(pts))
    return CellComplex.interned(p, maximal, heights=height_fn)


def euler_relation_check(complex_: CellComplex, face_id: int = 0) -> bool:
    """Signed count of interior cells avoiding a proper face of P.

    Sums (-1)^dim over nonempty cells F with F disjoint from the face and
    with relative interior inside the interior of P; the result must equal
    (-1)^dim P when the face is empty and 0 otherwise.
    """
    p = complex_.polytope
    lattice = p.face_lattice()
    if face_id not in lattice.faces:
        raise ValueError("not a face of P")
    if face_id == lattice.top:
        raise ValueError("face must be proper")
    # A vertex v of a cell lies in the face iff the carrier of the 0-cell
    # (v,) does.
    total = 0
    for cid in complex_.interior_ids():
        if not any(lattice.leq(complex_.carrier((v,)), face_id) for v in cid):
            total += (-1) ** complex_.dim_of(cid)
    expected = (-1) ** p.dim if not face_id else 0
    return total == expected
