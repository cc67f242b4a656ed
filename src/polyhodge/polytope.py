"""Exact lattice polytopes: hulls, face lattices, lattice point enumeration.

All geometry is exact integer arithmetic, and facet normals are primitive,
so the polar dual of a reflexive polytope is the hull of its facet normals.
Hulls are built by beneath-beyond: the points are inserted one at a time into
a triangulated boundary grown from a simplex, each boundary simplex carries
the hyperplane whose normal is the kernel of its d - 1 edge vectors, and the
simplices are merged by hyperplane into facets, each certified against all
points.

Lattice points of a dilate are counted fiber by fiber along the longest side
of its bounding box: on each line parallel to that axis through a lattice
point of the box's other sides, the facet inequalities cut out one interval,
found by integer floor and ceiling division, so a count costs one facet pass
per line rather than per point.  Point lists expand the intervals and sort.

Faces come from one vertex-facet incidence, one vertex bitmask per facet,
stored when the polytope is built: the face lattice is found level by level
from it.  A face is named by its vertex bitmask (bit i is vertex i), from
the lattice to the carriers, cones and restrictions built on it, so face
containment is a bitmask test.

Polytopes are immutable; derived data (face lattice, point counts, the
translation class ``shape`` that keys the lattice invariants' memo tables)
is cached on first use.  A lower-dimensional polytope carries a unimodular
affine model of itself in the saturated lattice of its affine span, with an
integer left inverse, so that lattice point counts and volumes are intrinsic
and model coordinates cost integer dot products only.

Beneath-beyond runs only on point sets: P, the lifted points of a
subdivision, a dual, user input.  Every other polytope is built from a
vertex-facet incidence it already has, by ``LatticePolytope.from_incidence``:
a face from the cuts of its polytope's facets (Kaibel and Pfetsch), a cell
of a subdivision from its lower facet's ridges in the lifted hull.  Its model
map, model vertices and facet normals are built when first read: the map from
its vertices, each facet's plane through that facet's vertices.

The invariants of a simplex are read off its box: the lattice points
sum_i l_i (v_i, 1) with 0 <= l_i < 1 of the cone over it, a group of order
its normalized volume, enumerated from a diagonal form of the cone matrix
(``linalg.diagonal_form``) in integers, with no model map, so a
lower-dimensional simplex needs none.  Each box point has a height sum_i l_i
and a support {i : l_i > 0}; h*, l* and h*(u, v) of a simplex are sums over
them (Betke and McMullen 1985; Katz and Stapledon, arXiv 1411.7736), and its
interior lattice points are those of full support at height 1.  A box of
more than ``BOX_LIMIT`` points is left to counting.  Every simplex reads its
volume and interior point count off its box, whichever constructor interned
it; ``pyramid_volume``, the sum of pyramids over the facets, stays a second
route, against which ``verify`` checks h*(P; 1).
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import reduce
from math import lcm, prod
from operator import and_, mul

from . import linalg
from .laurent import ONE, ZERO, LaurentPoly
from .memo import table
from .poset import EulerianPoset, set_bits

Point = tuple[int, ...]


class AffineUnimodularMap:
    """Lattice-preserving affine map between Z^d (model) and a coset in Z^n.

    ambient(x) = origin + sum_i x_i * basis_i.  The basis spans the saturated
    lattice of the affine span, and the integer rows of left_inverse satisfy
    left_inverse[k] . basis[j] == (k == j), so to_model/from_model are
    mutually inverse bijections on lattice points of the span, computed with
    integer dot products only.
    """

    __slots__ = ("origin", "basis", "_left_inverse", "is_identity")

    def __init__(self, origin: Point, basis: list[Point], left_inverse: list[Point]):
        self.origin = tuple(origin)
        self.basis = tuple(tuple(b) for b in basis)
        self._left_inverse = tuple(tuple(r) for r in left_inverse)
        d = len(self.basis)
        if len(self._left_inverse) != d or any(
            linalg.dot(r, b) != (k == j)
            for k, r in enumerate(self._left_inverse)
            for j, b in enumerate(self.basis)
        ):
            raise ValueError("left_inverse is not an integer left inverse of the basis")
        n = len(self.origin)
        self.is_identity = (
            not any(self.origin) and d == n and self.basis == tuple(_std_basis(n))
        )

    def to_model(self, pt) -> Point:
        """Model coordinates of a lattice point of the affine span."""
        if self.is_identity:
            return tuple(pt)
        diff = linalg.vec_sub(pt, self.origin)
        return tuple(linalg.dot(row, diff) for row in self._left_inverse)

    def from_model(self, coords) -> Point:
        pt = list(self.origin)
        for c, b in zip(coords, self.basis):
            for i in range(len(pt)):
                pt[i] += c * b[i]
        return tuple(pt)


_HULL_CACHE = table("HULL_CACHE")  # keyed by input points and by vertices

# The largest box that is enumerated: a simplex of larger normalized volume
# is counted fiber by fiber, which a long thin simplex needs.
BOX_LIMIT = 1 << 12


class LatticePolytope:
    """A lattice polytope given by its vertex set, with exact facet data."""

    __slots__ = (
        "ambient_dim",
        "vertices",
        "dim",
        "_hull",
        "_facet_masks",
        "_face_lattice",
        "_count_cache",
        "_nvol",
        "_box",
        "_hash",
        "_shape",
    )

    def __init__(self, ambient_dim, vertices, dim, facet_masks, hull=None):
        self.ambient_dim = ambient_dim
        self.vertices = vertices
        self.dim = dim
        # (model map, model vertices, facets), each facet (normal in Z^dim,
        # rhs) meaning <a, x> >= b; None until first read on a polytope built
        # from its incidence.
        self._hull = hull
        # The vertex-facet incidence: bit i of a facet's mask is vertex i.
        self._facet_masks = facet_masks
        self._face_lattice = None
        self._count_cache = {}  # (m, interior) -> lattice points of the m-th dilate
        self._nvol = None
        self._box = None
        # Polytopes key every memo and cell dict, so the hash of the key is
        # computed once.
        self._hash = hash((ambient_dim, vertices))
        self._shape = None

    # -- construction ------------------------------------------------------

    @staticmethod
    def empty(ambient_dim: int = 0) -> "LatticePolytope":
        key = ("empty", ambient_dim)
        if key not in _HULL_CACHE:
            _HULL_CACHE[key] = LatticePolytope(ambient_dim, (), -1, (), (None, (), ()))
        return _HULL_CACHE[key]

    @staticmethod
    def from_incidence(vertices, dim, facet_masks) -> "LatticePolytope":
        """The polytope of dimension dim on sorted, distinct lattice points
        whose facets are the given vertex bitmasks, interned under its
        vertices as a hull is; the rest of its hull is built when first read."""
        key = (len(vertices[0]), tuple(vertices))
        if key not in _HULL_CACHE:
            _HULL_CACHE[key] = LatticePolytope(*key, dim, tuple(facet_masks))
        return _HULL_CACHE[key]

    def _built(self):
        """(model map, model vertices, facets), ``_build_hull``'s: on a polytope
        built from its incidence, its masks are put in facet order."""
        if self._hull is None:
            map_ = _span_map(self.ambient_dim, self.vertices, self.dim)
            model = tuple(map_.to_model(v) for v in self.vertices)
            inside = tuple(map(sum, zip(*model)))
            planes = sorted(
                (_facet_plane([model[i] for i in set_bits(t)], inside, len(model)), t)
                for t in self._facet_masks
            )
            self._facet_masks = tuple(t for _, t in planes)
            self._hull = map_, model, tuple(plane for plane, _ in planes)
        return self._hull

    @property
    def _map(self) -> AffineUnimodularMap:
        return self._built()[0]

    @property
    def _model_vertices(self):
        return self._built()[1]

    @property
    def _facets(self):
        return self._built()[2]

    @property
    def is_empty(self) -> bool:
        return self.dim == -1

    @staticmethod
    def convex_hull(points) -> "LatticePolytope":
        """Convex hull of lattice points (vertices, facets, intrinsic dim)."""
        key = lattice_point_set(points)
        n, pts = key
        cached = _HULL_CACHE.get(key)
        if cached is not None:
            return cached
        poly = _build_hull(n, pts)
        # A hull of more points than its vertices keeps the interned object.
        poly = _HULL_CACHE.setdefault((n, poly.vertices), poly)
        _HULL_CACHE[key] = poly
        return poly

    @property
    def key(self):
        return (self.ambient_dim, self.vertices)

    @property
    def shape(self):
        """The translation class: the sorted vertices minus the first, or
        None for the empty polytope.  A translate by an integer vector keeps
        the lexicographic vertex order, so equal shapes are lattice
        equivalent and share every lattice invariant; lattice-equivalent
        polytopes that are not translates have different shapes."""
        if self._shape is None and not self.is_empty:
            v0 = self.vertices[0]
            self._shape = tuple(tuple(a - b for a, b in zip(v, v0)) for v in self.vertices[1:])
        return self._shape

    def contains(self, point) -> bool:
        """Whether a lattice point of the ambient space lies in the polytope:
        in its affine span and on the inner side of every facet."""
        if self.is_empty or len(point) != self.ambient_dim:
            return False
        x = self._map.to_model(point)
        return self._map.from_model(x) == tuple(point) and all(
            linalg.dot(a, x) >= b for a, b in self._facets
        )

    def __eq__(self, other):
        # Interned polytopes mostly meet themselves; one kept across a memo
        # clear still equals its rebuilt copy by key.
        return self is other or (isinstance(other, LatticePolytope) and self.key == other.key)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.is_empty:
            return "LatticePolytope(empty)"
        return f"LatticePolytope(dim={self.dim}, vertices={list(self.vertices)})"

    # -- lattice point enumeration -------------------------------------------

    def _fibers(self, m: int, interior: bool):
        """Lattice points of the m-th dilate (its interior if asked), as fibers.

        The fiber axis k is the longest side of the dilate's bounding box.
        For each point y of the box with axis k left out, every facet
        <a, x> >= m*b becomes a bound a_k * t >= m*b - <a', y> on x_k = t
        (strict for interior points), solved by exact floor and ceiling
        division; a facet with a_k = 0 holds or fails for the whole fiber.
        Yields (head, tail, lo, hi) for each nonempty fiber: its points are
        head + (t,) + tail for lo <= t <= hi.
        """
        verts = [tuple(m * c for c in v) for v in self._model_vertices]
        lo = [min(v[i] for v in verts) for i in range(self.dim)]
        hi = [max(v[i] for v in verts) for i in range(self.dim)]
        # Ties go to the last axis, along which the fibers come out sorted.
        k = max(range(self.dim), key=lambda i: (hi[i] - lo[i], i))
        strict = 1 if interior else 0
        # a_k * t >= m*b + strict - <a', y> for each facet, a' = a without a_k.
        bounds = [(a[k], a[:k] + a[k + 1 :], m * b + strict) for a, b in self._facets]
        ranges = [range(l, h + 1) for l, h in zip(lo, hi)]
        del ranges[k]
        for y in itertools.product(*ranges):
            t_lo, t_hi = lo[k], hi[k]
            for ak, rest, c in bounds:
                c -= sum(map(mul, rest, y))
                if ak > 0:
                    t_lo = max(t_lo, -(-c // ak))
                elif ak < 0:
                    t_hi = min(t_hi, c // ak)
                elif c > 0:
                    break
                if t_lo > t_hi:
                    break
            else:
                yield y[:k], y[k:], t_lo, t_hi

    def model_lattice_points(self, m: int = 1, interior: bool = False):
        """Lattice points of the m-th dilate (its relative interior if asked),
        in model coordinates and lexicographic order.

        The points are the expanded fibers of `_fibers`, sorted, since the
        fiber axis need not be the last one.
        """
        if self.is_empty:
            return []
        if self.dim == 0:
            return [self._model_vertices[0]]
        return sorted(
            head + (t,) + tail
            for head, tail, lo, hi in self._fibers(m, interior)
            for t in range(lo, hi + 1)
        )

    def lattice_point_count(self, m: int, interior: bool = False) -> int:
        """Number of lattice points in the m-th dilate (its relative interior
        if asked); 0 for the empty polytope."""
        if m < 0:
            raise ValueError("dilation factor must be nonnegative")
        return self._count(m, interior)

    def interior_lattice_point_count(self) -> int:
        """Lattice points in the relative interior (a point counts itself);
        on a simplex, its box points of full support at height 1."""
        if self.dim == 0:
            return 1
        box = self.box()[1] if len(self.vertices) == self.dim + 1 else None
        if box is None:
            return self._count(1, True)
        return box.get((1, self.dim + 1), 0)

    def _count(self, m: int, interior: bool) -> int:
        if self.is_empty:
            return 0
        if m == 0 or self.dim == 0:
            return 1
        key = (m, interior)
        if key not in self._count_cache:
            self._count_cache[key] = sum(hi - lo + 1 for _, _, lo, hi in self._fibers(m, interior))
        return self._count_cache[key]

    def lattice_points(self):
        """Ambient lattice points of the polytope."""
        if self.is_empty:
            return []
        return [self._map.from_model(x) for x in self.model_lattice_points(1)]

    # -- volume ----------------------------------------------------------------

    def normalized_volume(self) -> int:
        """dim! times the Euclidean volume w.r.t. the intrinsic lattice: the
        size of the box on a simplex, else ``pyramid_volume``."""
        if self.is_empty:
            raise ValueError("volume of the empty polytope")
        if self._nvol is None:
            simplex = len(self.vertices) == self.dim + 1
            self._nvol = self.box()[0] if simplex else self.pyramid_volume()
        return self._nvol

    def box(self):
        """(size, counts) of the box of a simplex: its box points counted by
        (height, support size), or None in place of the counts when the size,
        the normalized volume, exceeds ``BOX_LIMIT``.

        A box point is a lattice point sum_i l_i (v_i, 1) with 0 <= l_i < 1;
        they form the lattice points of the span of the cone matrix A, whose
        columns are the (v_i, 1), modulo its columns.  With U A V = D
        diagonal, the point k (0 <= k_j < d_j) has l = V (k / d) mod 1,
        computed in integers over the common denominator lcm(d).
        """
        if self._box is None:
            if len(self.vertices) != self.dim + 1:
                raise ValueError("the box is defined on a simplex")
            cone = [list(col) for col in zip(*self.vertices)] + [[1] * len(self.vertices)]
            diag, v = linalg.diagonal_form(cone)
            size = prod(diag)
            counts = None
            if size <= BOX_LIMIT:
                denom = lcm(*diag)
                steps = [(j, denom // d) for j, d in enumerate(diag) if d > 1]
                counts = Counter()
                for k in itertools.product(*(range(diag[j]) for j, _ in steps)):
                    scaled = [
                        sum(row[j] * kj * step for (j, step), kj in zip(steps, k)) % denom
                        for row in v
                    ]
                    counts[sum(scaled) // denom, len(scaled) - scaled.count(0)] += 1
            self._box = size, counts
        return self._box

    def pyramid_volume(self) -> int:
        """The normalized volume as a sum of pyramids: over the facets F not
        through the first vertex v0, the lattice distance of v0 from F times
        the normalized volume of F.  On a simplex it is a second route to
        the size of the box."""
        if self.dim == 0:
            return 1
        v0 = self._model_vertices[0]
        total = 0
        lattice = self.face_lattice()
        for (a, b), mask in zip(self._facets, self._facet_masks):
            h = linalg.dot(a, v0) - b
            if h > 0:
                total += h * lattice.face_polytope(mask).normalized_volume()
        return total

    # -- faces ---------------------------------------------------------------

    def face_lattice(self) -> "FaceLattice":
        if self._face_lattice is None:
            if self.is_empty:
                raise ValueError("face lattice of the empty polytope")
            self._face_lattice = FaceLattice(self)
        return self._face_lattice

    # -- duality ---------------------------------------------------------------

    def reflexive_check(self) -> bool:
        """True iff the polar dual is again a lattice polytope.

        Its vertices are a / -b for the facets <a, x> >= b, and a facet
        normal is primitive, so a / -b is a lattice point exactly when b = -1.
        """
        return self.dim == self.ambient_dim and all(b == -1 for _, b in self._facets)

    def dual_polytope(self) -> "LatticePolytope":
        """Polar dual {y : <y, x> >= -1 on P} for a reflexive polytope: the
        hull of its facet normals."""
        if self.dim != self.ambient_dim:
            raise ValueError("dual polytope requires a full-dimensional polytope")
        if not all(b < 0 for _, b in self._facets):
            raise ValueError("dual polytope requires the origin in the interior")
        if self.dim == 0:
            return self  # the polar dual of the origin of R^0 is itself
        if not self.reflexive_check():
            raise ValueError("polytope is not reflexive: dual has non-lattice vertices")
        return LatticePolytope.convex_hull([a for a, _ in self._facets])

    def dual_face_map(self):
        """Inclusion-reversing face correspondence of a reflexive polytope.

        Returns (dual polytope, map from face id of P to face id of the dual),
        with the conventions empty -> dual polytope and P -> empty.  The dual
        face has one vertex, the facet's normal, for each facet holding the face.
        """
        dual = self.dual_polytope()
        lat = self.face_lattice()
        dlat = dual.face_lattice()
        dual_index = {v: i for i, v in enumerate(dual.vertices)}
        facets = [(t, 1 << dual_index[a]) for (a, _), t in zip(self._facets, self._facet_masks)]
        mapping = {}
        for fid in lat.faces:
            # A point has no facet, so its empty face is mapped by convention.
            gid = sum(bit for facet, bit in facets if lat.leq(fid, facet))
            if gid not in dlat.faces:
                raise ValueError("dual face correspondence failed; polytope not reflexive?")
            mapping[fid] = gid if fid else dlat.top
        for fid, gid in mapping.items():
            if lat.face_dim(fid) + dlat.face_dim(gid) != self.dim - 1:
                raise ValueError("dual face dimensions are inconsistent")
        if set(mapping.values()) != set(dlat.faces):
            raise ValueError("dual face correspondence is not a bijection")
        ids = list(mapping)
        for a in ids:
            for b in ids:
                if lat.leq(a, b) and not dlat.leq(mapping[b], mapping[a]):
                    raise ValueError("dual face correspondence is not inclusion-reversing")
        return dual, mapping


def lattice_point_set(points) -> tuple[int, tuple]:
    """(n, the distinct points sorted) for a nonempty set of lattice points
    of Z^n, or ValueError."""
    pts = set()
    for p in points:
        p = tuple(p)
        if not all(type(c) is int for c in p):  # a bool is no coordinate
            raise ValueError(f"lattice point coordinates must be integers, got {p!r}")
        pts.add(p)
    pts = sorted(pts)
    if not pts:
        raise ValueError("convex hull of an empty point set")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise ValueError("points of mixed dimension")
    return n, tuple(pts)


def _std_basis(n):
    return [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]


def _span_map(n: int, pts, d: int) -> AffineUnimodularMap:
    """The model map of the d-dimensional affine span of sorted points in Z^n."""
    base = pts[0]
    # A full-dimensional span takes no equation: its map is the identity.
    eq_rows = linalg.kernel_basis([linalg.vec_sub(p, base) for p in pts] if d < n else [])
    # A span through 0 keeps 0 as the model's origin, so that a polytope
    # reflexive in its span has a reflexive model.
    origin = base if any(linalg.dot(r, base) for r in eq_rows) else (0,) * n
    return AffineUnimodularMap(origin, *linalg.integer_kernel_basis(eq_rows, n))


def _build_hull(n: int, pts: list[Point]) -> LatticePolytope:
    d = linalg.rank([linalg.vec_sub(p, pts[0]) for p in pts])
    map_ = _span_map(n, pts, d)
    facets, vertex_models = _hull_in_full_dim(d, [map_.to_model(p) for p in pts])
    # Canonical vertex order: lexicographic on ambient coordinates.
    verts_ambient = sorted(map_.from_model(v) for v in vertex_models)
    model_vertices = tuple(map_.to_model(v) for v in verts_ambient)
    masks = tuple(
        sum(1 << i for i, v in enumerate(model_vertices) if linalg.dot(a, v) == b)
        for a, b in facets
    )
    hull = (map_, model_vertices, tuple(facets))
    return LatticePolytope(n, tuple(verts_ambient), d, masks, hull)


def _hull_in_full_dim(d: int, pts: list[Point]):
    """Facets and vertices of a full-dimensional hull in Z^d, exactly.

    Beneath-beyond (Edelsbrunner, *Algorithms in Combinatorial Geometry*,
    1987): from a simplex of d + 1 affinely independent points, the other
    points are inserted in sorted order into a triangulated boundary of
    d-point facets.  A facet is visible from p when p lies strictly beneath
    it (a coplanar facet is not), and every horizon ridge, held by one
    visible and one hidden facet, is coned to p; a point that sees no facet
    is already in the hull.  The boundary simplices are merged by
    hyperplane into facets, and every facet is certified against all points.
    Every vertex is an input point and the intersection of the facets through
    it, so a point is a vertex exactly when no other point lies on all of
    its facets.
    """
    pts = sorted(set(pts))
    if d == 0:
        return [], [pts[0]]
    simplex, rows = [0], []
    for j in range(1, len(pts)):
        row = linalg.vec_sub(pts[j], pts[0])
        if linalg.rank(rows + [row]) > len(rows):
            rows.append(row)
            simplex.append(j)
            if len(simplex) == d + 1:
                break
    else:
        raise ValueError("points do not span Z^d")
    # d + 1 times the simplex centroid: strictly inside every later hull.
    inside = tuple(map(sum, zip(*(pts[i] for i in simplex))))
    facets: dict[tuple, tuple] = {}  # sorted point indices -> (normal, rhs)
    ridges: dict[tuple, list] = {}  # sorted point indices -> facets holding it

    def add(facet):
        facets[facet] = _facet_plane([pts[i] for i in facet], inside, d + 1)
        for k in range(d):
            ridges.setdefault(facet[:k] + facet[k + 1:], []).append(facet)

    for k in range(d + 1):
        add(tuple(simplex[:k] + simplex[k + 1:]))
    placed = set(simplex)
    for j, p in enumerate(pts):
        if j in placed:
            continue
        visible = {f for f, (a, b) in facets.items() if sum(map(mul, a, p)) < b}
        horizon = []
        for f in visible:
            del facets[f]
            for k in range(d):
                ridge = f[:k] + f[k + 1:]
                holders = ridges[ridge]
                holders.remove(f)
                if holders and holders[0] not in visible:
                    horizon.append(ridge)
                elif not holders:
                    del ridges[ridge]
        for ridge in horizon:
            add(tuple(sorted((*ridge, j))))
    facet_list = sorted(set(facets.values()))
    on_facet = []  # per facet, the bitmask of the points on it
    for a, b in facet_list:
        values = [sum(map(mul, a, p)) - b for p in pts]
        if min(values) < 0:
            raise RuntimeError("hull certification failed: a point lies beyond a facet")
        on_facet.append(sum(1 << i for i, v in enumerate(values) if not v))
    common = [reduce(and_, (m for m in on_facet if m >> i & 1), -1) for i in range(len(pts))]
    return facet_list, [p for i, p in enumerate(pts) if common[i] == 1 << i]


def _facet_plane(points, inside, scale):
    """Primitive normal a and rhs b of the hyperplane through d points, with
    <a, inside> > scale * b."""
    base = points[0]
    rows = [linalg.vec_sub(q, base) for q in points[1:]]
    normal = linalg.kernel_basis(rows)[0] if rows else (1,)
    if linalg.dot(normal, inside) < scale * linalg.dot(normal, base):
        normal = tuple(-x for x in normal)
    return normal, linalg.dot(normal, base)


def _renumber(masks, bits) -> tuple:
    """Vertex bitmasks over the vertices at ``bits``, renumbered in that order."""
    new = {b: 1 << k for k, b in enumerate(bits)}
    return tuple(sum(new[i] for i in set_bits(m)) for m in masks)


def _facets_of(face: int, facet_masks) -> list[int]:
    """The facets of a face of P, as vertex bitmasks: the inclusion-maximal
    nonempty sets face & t over the facets t of P that do not contain the
    face (Kaibel and Pfetsch, Comput. Geom. 23, 2002); a vertex has none."""
    cuts = sorted(
        {face & t for t in facet_masks if face & ~t} - {0}, key=int.bit_count, reverse=True
    )
    kept = []
    for cut in cuts:  # a cut inside another has fewer vertices, so comes later
        if all(cut & ~k for k in kept):
            kept.append(cut)
    return kept


class FaceLattice:
    """All faces of a polytope, graded by rho(Q) = dim Q + 1.

    A face is named by its vertex bitmask, bit i for vertex i of P: 0 is the
    empty face and ``top``, with every bit set, is P itself.  Faces are found
    level by level from P's vertex-facet incidence, so a face's dimension is
    its level.  ``poset()`` builds the lattice once as an ``EulerianPoset``
    from the masks, which checks gradedness and the Euler relation as it is
    built, so intervals and the dual need no check.  A face's polytope is
    looked up among the interned polytopes before any is built, so a face
    shared by several lattices is built once; it is built from its facets,
    the cuts of P's facets, renumbered to its own vertices, with no hull.
    """

    def __init__(self, polytope: LatticePolytope):
        self.polytope = polytope
        self.top = (1 << len(polytope.vertices)) - 1
        by_dim: dict[int, list] = {}
        level = {self.top}
        for dim in range(polytope.dim, -2, -1):
            level = level or {0}  # a vertex has no facet to cut its empty face
            by_dim[dim] = sorted(level)
            level = {f for mask in level for f in _facets_of(mask, polytope._facet_masks)}
        self.faces = {fid: k for k in sorted(by_dim) for fid in by_dim[k]}
        self._poset = None
        self._index: dict[int, int] = {}  # face id -> element of the poset
        self._polytopes: dict[int, LatticePolytope] = {}

    def face_dim(self, fid) -> int:
        return self.faces[fid]

    def all_faces(self):
        """Face ids sorted by (dim, id)."""
        return tuple(self.faces)

    def face_polytope(self, fid) -> LatticePolytope:
        face = self._polytopes.get(fid)
        if face is None:
            # The vertices of a face are sorted and distinct, and a polytope
            # is interned under its vertices, so a shared face is a lookup.
            p, n = self.polytope, self.polytope.ambient_dim
            bits = tuple(set_bits(fid))
            verts = tuple(p.vertices[i] for i in bits)
            face = _HULL_CACHE.get((n, verts)) if fid else LatticePolytope.empty(n)
            if face is None:
                ridges = _renumber(_facets_of(fid, p._facet_masks), bits)
                face = LatticePolytope.from_incidence(verts, self.faces[fid], ridges)
            self._polytopes[fid] = face
        return face

    def leq(self, f, g) -> bool:
        return not f & ~g

    def f_vector(self):
        dims = list(self.faces.values())
        return tuple(dims.count(k) for k in range(-1, self.polytope.dim + 1))

    def poset(self) -> EulerianPoset:
        if self._poset is None:
            faces = self.all_faces()
            # Faces come by dimension, so the faces above a face come after it.
            up = [
                sum(1 << j for j in range(i, len(faces)) if not a & ~faces[j])
                for i, a in enumerate(faces)
            ]
            self._poset = EulerianPoset.from_masks(faces, up)
            self._index = {fid: i for i, fid in enumerate(faces)}
        return self._poset

    def g(self, lower, upper, dual: bool = False) -> LaurentPoly:
        """g-polynomial (in t) of the interval [lower, upper], or of its dual.

        On a simplex every interval and its dual is Boolean, so g = 1
        (Stanley 1987) and no poset is built; the 2^(d+1) faces of a
        d-simplex are counted first, so a lattice that is not Boolean raises.
        Otherwise g is 1 up to rank 2, read off the poset's flag counts in
        closed form (``EulerianPoset.g_by_counts``) at rank 3 to 6, and
        computed by the poset's recursion above.
        """
        nverts = len(self.polytope.vertices)
        simplex = nverts == self.polytope.dim + 1
        if simplex and len(self.faces) != 1 << nverts:
            raise ValueError("simplex face lattice is not Boolean; face lattice bug")
        if not self.leq(lower, upper):
            raise ValueError("not an interval: elements are not nested")
        n = self.faces[upper] - self.faces[lower]
        if simplex or n <= 2:
            return ONE
        poset = self.poset()
        i, j = self._index[lower], self._index[upper]
        if dual:
            poset, i, j = poset.dual(), j, i
        return poset.g_by_counts(i, j) if n <= 6 else poset.g(i, j)

    def g_sum(self, upper, coeff, x: LaurentPoly, dual: bool = False) -> LaurentPoly:
        """Sum over the faces f <= upper of coeff(f) g([f, upper]; t = x), or
        of g of the dual interval with ``dual``: the alternating convolution
        with g that builds each level of the h*-tower.  ``coeff`` is called
        once per face, in (dim, id) order; a face whose coefficient is 0
        reads no g."""
        total = ZERO
        for f in self.faces:
            if not f & ~upper:
                c = coeff(f)
                if c:
                    total = total + c * self.g(f, upper, dual).substitute({"t": x})
        return total
