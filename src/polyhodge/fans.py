"""Truncated normal fans of lattice polytopes and their refinements.

Fans live in the polytope's own lattice: the lattice of its affine span, in
the coordinates of its unimodular model, so a face of a larger polytope has
the fan of its model.  The normal fan of P with its maximal cones removed has
cones indexed by the positive-dimensional faces Q of P (inclusion-reversing,
dim cone = dim P - dim Q), plus the zero cone for Q = P.  A face is named by
its vertex bitmask in P's face lattice.  Rays are the primitive inner facet
normals of the model.  Every membership question is answered by vertex
minima: with facets <a, x> >= b, the cone of Q is the set of y whose minimum
over P is attained on all of Q, so y lies in the cone of Q exactly when the
mask of Q lies in the mask of the face where <y, .> is least.  The smallest
cone holding a set of vectors of one cone is indexed by the intersection of
their minimizing faces; for a ray that face is its facet.

Simplicial refinements are produced by pulling triangulations with a global
deterministic ray order; every refinement carries its carrier map onto the
coarse fan.
"""

from __future__ import annotations

from . import linalg
from .laurent import power_sum
from .polytope import LatticePolytope


class TruncatedNormalFan:
    """Normal fan of a polytope in its own lattice, maximal cones removed."""

    def __init__(self, polytope: LatticePolytope):
        self.polytope = polytope
        self.lattice = polytope.face_lattice()
        self.dim = polytope.dim
        self.ray_facet = {a: t for (a, _), t in zip(polytope._facets, polytope._facet_masks)}
        self.face_ids = tuple(fid for fid, k in self.lattice.faces.items() if k >= 1)
        self.cone_rays = {}
        for fid in self.face_ids:
            rays = tuple(
                sorted(
                    ray
                    for ray, facet_id in self.ray_facet.items()
                    if self.lattice.leq(fid, facet_id)
                )
            )
            self.cone_rays[fid] = rays
            if linalg.rank(list(rays)) != self.dim - self.lattice.face_dim(fid):
                raise ValueError("normal cone dimension mismatch")

    def cone_dim(self, fid) -> int:
        return self.dim - self.lattice.face_dim(fid)

    def face_of(self, y) -> int:
        """Vertex bitmask of where <y, .> is least: the face of P whose
        normal cone has y in its relative interior."""
        values = [linalg.dot(y, v) for v in self.polytope._model_vertices]
        low = min(values)
        return sum(1 << i for i, x in enumerate(values) if x == low)

    def smallest_face_for_rays(self, rays) -> int:
        """Face id indexing the smallest cone containing the given vectors.

        The answer is the intersection of the faces where they are least
        (the top face for the empty set, i.e. the zero cone); it indexes a
        cone of the truncated fan when the vectors lie in a common cone.
        """
        face = self.lattice.top
        for ray in rays:
            face &= self.face_of(ray)
        if self.lattice.face_dim(face) < 1:
            raise ValueError("ray set does not lie in a cone of the truncated fan")
        return face

    def subfan(self, face_ids) -> frozenset:
        """Validate a cone selection (given by face ids) as a subfan.

        Cone faces correspond to larger polytope faces, so closure under
        taking cone faces means the id set is closed upward in the face
        lattice.  The zero cone (top face) is always required.
        """
        if not self.face_ids:
            # The zero cone of a point is its one maximal cone.
            raise ValueError("a point has an empty truncated normal fan, so it has no subfan")
        sel = frozenset(face_ids)
        if self.lattice.top not in sel:
            raise ValueError("a subfan always contains the zero cone")
        for fid in sel:
            if fid not in self.cone_rays:
                raise ValueError("subfan selection contains a non-cone")
            for other in self.face_ids:
                if self.lattice.leq(fid, other) and other not in sel:
                    raise ValueError("subfan selection is not closed under faces")
        return sel

    def full_subfan(self) -> frozenset:
        return frozenset(self.face_ids)


class Refinement:
    """A fan refinement of (a subfan of) a truncated normal fan.

    cones maps each refinement cone, canonically a sorted tuple of primitive
    rays, to the face id of the smallest coarse cone containing it.  Each
    cone's dimension is taken once, when the refinement is built: ``dims``
    lists (dimension, coarse face id) in ``cones`` order.
    """

    def __init__(self, fan: TruncatedNormalFan, cones: dict):
        self.fan = fan
        self.cones = dict(sorted(cones.items()))
        self.dims = [
            (linalg.rank(list(rays)) if rays else 0, fid) for rays, fid in self.cones.items()
        ]

    def multiplicity_polys(self, shifted):
        """For each coarse face id Q: sum over refinement cones carried by Q
        of shifted^(dim coarse cone - dim cone)."""
        codims = {}  # coarse face id -> the codimension of each cone it carries
        for d, fid in self.dims:
            codims.setdefault(fid, []).append((self.fan.cone_dim(fid) - d, 1))
        return {fid: power_sum(terms, shifted) for fid, terms in codims.items()}

    def total_poly(self, shifted):
        """Sum over all refinement cones of shifted^(dim P - dim cone)."""
        return power_sum(((self.fan.dim - d, 1) for d, _fid in self.dims), shifted)


def identity_refinement(fan: TruncatedNormalFan, subfan=None) -> Refinement:
    """Each selected cone refines itself (not necessarily simplicial)."""
    sel = fan.full_subfan() if subfan is None else fan.subfan(subfan)
    cones = {fan.cone_rays[fid]: fid for fid in sel if fid != fan.lattice.top}
    cones[()] = fan.lattice.top
    return Refinement(fan, cones)


def simplicial_refinement(fan: TruncatedNormalFan, ray_order=None) -> Refinement:
    """Pulling triangulation of each cone, using only existing rays.

    Cones are processed by increasing dimension; a non-simplicial cone is
    split by coning its pulled ray (the least ray in the given order) over
    the triangulations of the facets avoiding that ray.  A single global ray
    order makes the pieces agree on shared faces.
    """
    sel = fan.full_subfan()
    if ray_order is None:
        ray_order = sorted(fan.ray_facet)
    position = {ray: i for i, ray in enumerate(ray_order)}
    # Triangulations per coarse cone (face id), by increasing cone dimension.
    tri: dict[int, list] = {}
    order = sorted(sel, key=fan.cone_dim)
    for fid in order:
        rays = fan.cone_rays[fid]
        d = fan.cone_dim(fid)
        if len(rays) == d:
            tri[fid] = [rays]
            continue
        pivot = min(rays, key=lambda r: position[r])
        pieces = []
        for other in fan.face_ids:
            # Facets of the cone of fid are cones of faces covering fid.
            if fan.cone_dim(other) == d - 1 and fan.lattice.leq(fid, other):
                if pivot in fan.cone_rays[other]:
                    continue
                if other not in tri:
                    # Facet cone outside the subfan cannot happen: subfans are
                    # closed under faces.
                    raise ValueError("missing facet triangulation")
                for simplex in tri[other]:
                    pieces.append(tuple(sorted(set(simplex) | {pivot})))
        tri[fid] = sorted(set(pieces))
    cones: dict[tuple, int] = {(): fan.lattice.top}
    for fid, simplices in tri.items():
        for simplex in simplices:
            faces = [()]
            for ray in simplex:  # simplices are sorted, so their faces are too
                faces += [face + (ray,) for face in faces]
            for face in faces:
                if face not in cones:
                    cones[face] = fan.smallest_face_for_rays(face)
    return Refinement(fan, cones)
