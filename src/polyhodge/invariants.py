"""The h*-polynomial tower of a lattice polytope with a subdivision.

Implements, with exact integer arithmetic throughout:

  * h*(P; u): Ehrhart series numerator,
  * l*(P; u): local h*-polynomial (alternating face sum against dual
    g-polynomials),
  * h*(P; u, v): mixed h*-polynomial, read off the face lattice of P, or
    with h* and l* off the box points of a simplex,
  * h*(P, S; u, v): limit mixed h*-polynomial of a subdivision,
  * l*(P, S; u, v): local limit mixed h*-polynomial,
  * h*(P, S; u, v, w): refined limit mixed h*-polynomial,
  * the Lambda/Phi pair attached to a simplicial refinement of the
    truncated normal fan,
  * the Lefschetz-forced intersection polynomial in one variable,
  * closed forms for the low refined coefficients in dimension <= 3.

h* of a simplex is read off its box.  Any other polytope counts half its
dilates, f_P(1..ceil(d/2)) and the interior counts f_P°(1..floor(d/2)), and
Ehrhart-Macdonald reciprocity f_P(-m) = (-1)^d f_P°(m) gives the rest of
f_P(0..d).  h*, l* and h*(u, v) are memoized by ``LatticePolytope.shape``,
the translation class, so translates share one entry.

All sums over faces or cells include the empty face with the conventions
dim(empty) = -1 and h* = l* = 1 on it.  Every division that the theory
asserts to be exact is checked and raises on failure.  Each alternating
convolution with g over face intervals is one ``FaceLattice.g_sum``, and
each cell sum weighted by (uv - 1)^codim one ``laurent.power_sum``.

The three subdivision levels are computed for every nonempty face Q of P
at once by ``face_tower``, in one memoized pass over S: the interior cells
of the restriction S|Q are the cells of S carried by Q, and an interval of
faces of Q is the same interval in P's face lattice, so the pass builds no
restricted complex and no link polynomial.  The per-complex functions read
the entry of P itself; ``limit_mixed_h_star_by_links``, the link form of
h*(P,S), is the independent side that ``verify`` compares it with.
"""

from __future__ import annotations

from collections import Counter
from math import comb
from typing import NamedTuple

from .laurent import (
    LaurentPoly,
    ONE,
    T,
    U,
    U_OVER_V,
    UV,
    UVW2,
    V,
    W,
    ZERO,
    from_univariate,
    power_sum,
    univariate,
)
from .polytope import LatticePolytope
from .subdivision import CellComplex, link_h_polynomial
from .fans import Refinement, TruncatedNormalFan, simplicial_refinement
from .memo import memo


def _box(p: LatticePolytope):
    """The box point counts of a simplex, or None: not a simplex, or a box
    above ``BOX_LIMIT``, which is left to counting and the face walk."""
    return p.box()[1] if len(p.vertices) == p.dim + 1 else None


@memo("H_STAR", key=lambda p: p.shape)
def h_star(p: LatticePolytope) -> LaurentPoly:
    """Ehrhart h*-polynomial of a lattice polytope, in u; h*(empty) = 1.

    Determined by 1 + sum_{m>0} f_P(m) u^m = h*(P;u) / (1-u)^(dim P + 1);
    the coefficients come from the finite alternating-binomial convolution
    of the counts f_P(0..dim P).  A simplex counts nothing unless its box
    exceeds ``BOX_LIMIT``: h* is the sum of u^height over its box points
    (Betke and McMullen 1985), which on a simplex of normalized volume 1 are
    the origin alone, so h* = 1.

    Otherwise only half the dilates are counted: f_P(1..ceil(d/2)) and the
    interior counts f_P°(1..floor(d/2)).  By Ehrhart-Macdonald reciprocity,
    f_P(-m) = (-1)^d f_P°(m) (Macdonald 1971; Stanley, EC1 4.6.26), so these
    are d + 1 values of the degree-d polynomial f_P at the consecutive
    points -floor(d/2)..ceil(d/2), and ``_extend`` carries them on to
    f_P(d) by forward differences.
    """
    if p.is_empty:
        return ONE
    d = p.dim
    box = _box(p)
    if box is not None:
        heights = Counter()
        for (height, _), count in box.items():
            heights[height] += count
        return from_univariate(heights, "u")
    up, down = (d + 1) // 2, d // 2
    values = [(-1) ** d * p.lattice_point_count(m, interior=True) for m in range(down, 0, -1)]
    values += [p.lattice_point_count(m) for m in range(up + 1)]
    counts = _extend(values, down)[down:]
    coeffs = {}
    for k in range(d + 1):
        coeffs[k] = sum((-1) ** j * comb(d + 1, j) * counts[k - j] for j in range(k + 1))
    return from_univariate(coeffs, "u")


def _extend(values: list[int], n: int) -> list[int]:
    """The d + 1 values of a polynomial of degree <= d at consecutive
    integers, followed by its next n values, in integers: the last entry of
    each forward-difference row moves one step at a time, and the d-th
    difference is constant."""
    tail, row = [], values
    while row:
        tail.append(row[-1])
        row = [b - a for a, b in zip(row, row[1:])]
    out = list(values)
    for _ in range(n):
        for r in range(len(tail) - 2, -1, -1):
            tail[r] += tail[r + 1]
        out.append(tail[0])
    return out


@memo("LOCAL_H_STAR", key=lambda p: p.shape)
def local_h_star(p: LatticePolytope) -> LaurentPoly:
    """Local h*-polynomial l*(P;u): alternating sum of h*(Q) g([Q,P]*;u)
    over all faces Q including the empty one; equals 1 on the empty
    polytope.  On a simplex it is the sum of u^height over the box points of
    full support (Katz and Stapledon, arXiv 1411.7736), so it vanishes on a
    unimodular one."""
    if p.is_empty:
        return ONE
    box = _box(p)
    if box is not None:
        return from_univariate(
            {height: count for (height, size), count in box.items() if size == p.dim + 1}, "u"
        )
    lattice = p.face_lattice()

    def signed_h_star(f):
        return (-1) ** (p.dim - lattice.face_dim(f)) * h_star(lattice.face_polytope(f))

    return lattice.g_sum(lattice.top, signed_h_star, U, dual=True)


def limit_mixed_h_star_by_links(s: CellComplex) -> LaurentPoly:
    """Limit mixed h*-polynomial h*(P,S;u,v) in its link form, independent of
    ``face_tower``'s interior-cell form.

    Sum over all cells F (including the empty cell) of
    v^(dim F + 1) l*(F; u v^-1) h(link_S(F); uv).
    """
    total = ZERO
    for cell in s.cells:
        local = local_h_star(cell).substitute({"u": U_OVER_V})
        link = link_h_polynomial(s, cell).substitute({"t": UV})
        total = total + V ** (cell.dim + 1) * local * link
    if not total.is_polynomial():
        raise ValueError("limit mixed h* failed to be polynomial; tower bug")
    return total


@memo("MIXED", key=lambda p: p.shape)
def mixed_h_star(p: LatticePolytope) -> LaurentPoly:
    """Mixed h*-polynomial h*(P;u,v), the limit mixed h* of the trivial
    subdivision.

    Sum over all faces Q of P (including the empty face) of
    v^(dim Q + 1) l*(Q; u v^-1) g([Q, P]; uv).  On a simplex, g = 1 and
    l*(Q) sums the box points of support Q, so a box point of height h and
    support size s adds u^h v^(s - h) (Katz and Stapledon, arXiv 1411.7736).
    """
    if p.is_empty:
        return ONE
    box = _box(p)
    if box is not None:
        return LaurentPoly(
            {(height, size - height, 0, 0, 0): count for (height, size), count in box.items()}
        )
    lattice = p.face_lattice()

    def shifted_local(f):
        q = lattice.face_polytope(f)
        return V ** (q.dim + 1) * local_h_star(q).substitute({"u": U_OVER_V})

    total = lattice.g_sum(lattice.top, shifted_local, UV)
    if not total.is_polynomial():
        raise ValueError("mixed h* failed to be polynomial; tower bug")
    return total


class Tower(NamedTuple):
    """The h*-tower of every nonempty face Q of P, keyed by face id:
    h*(Q, S|Q; u, v), l*(Q, S|Q; u, v) and h*(Q, S|Q; u, v, w)."""

    limit: dict
    local: dict
    refined: dict


@memo("TOWER", key=lambda s: s.key)
def face_tower(s: CellComplex) -> Tower:
    """The h*-tower of every nonempty face Q of P, in one pass over S.

    The interior cells of S|Q are the cells of S carried by Q, and an
    interval of faces of Q is the same interval in P's face lattice, so no
    restricted complex is built and every g is read off P's lattice.  For
    each nonempty face Q, in (dim, id) order:

      h*(Q, S|Q) = sum over the cells F carried by Q of
                   (uv - 1)^(dim Q - dim F) h*(F; u, v),
      l*(Q, S|Q) = sum over the faces Q' <= Q of
                   (-1)^(dim Q - dim Q') h*(Q', S|Q') g([Q', Q]*; uv),
      h*(Q, S|Q; w) = sum over the faces Q' <= Q of
                   w^(dim Q' + 1) l*(Q', S|Q') g([Q', Q]; uvw^2),

    with h* = l* = 1 on the empty face.
    """
    lattice = s.polytope.face_lattice()
    tower = Tower({}, {}, {})
    # Per face Q' <= Q, the factors of the two sums that do not depend on Q.
    signed_limit, w_local = {0: -ONE}, {0: ONE}
    for q in lattice.all_faces()[1:]:
        qdim = lattice.face_dim(q)
        limit = power_sum(((qdim - cell.dim, mixed_h_star(cell)) for cell in s.carried(q)), UV - 1)
        if not limit.is_polynomial():
            raise ValueError("limit mixed h* failed to be polynomial; tower bug")
        signed_limit[q] = (-1) ** qdim * limit
        local = (-1) ** qdim * lattice.g_sum(q, signed_limit.__getitem__, UV, dual=True)
        w_local[q] = W ** (qdim + 1) * local
        refined = lattice.g_sum(q, w_local.__getitem__, UVW2)
        if not refined.is_polynomial():
            raise ValueError("refined limit mixed h* failed to be polynomial; tower bug")
        tower.limit[q], tower.local[q], tower.refined[q] = limit, local, refined
    return tower


def limit_mixed_h_star(s: CellComplex) -> LaurentPoly:
    """Limit mixed h*-polynomial h*(P,S;u,v), read off ``face_tower``."""
    return face_tower(s).limit[s.polytope.face_lattice().top]


def local_limit_mixed_h_star(s: CellComplex) -> LaurentPoly:
    """Local limit mixed h*-polynomial l*(P,S;u,v): alternating face sum of
    h*(Q, S|Q; u,v) against dual-interval g-polynomials at uv, read off
    ``face_tower``."""
    return face_tower(s).local[s.polytope.face_lattice().top]


def refined_limit_mixed_h_star(s: CellComplex) -> LaurentPoly:
    """Refined limit mixed h*-polynomial h*(P,S;u,v,w): the sum over all
    faces Q of P (including the empty face) of
    w^(dim Q + 1) l*(Q, S|Q; u, v) g([Q, P]; uvw^2), read off ``face_tower``."""
    return face_tower(s).refined[s.polytope.face_lattice().top]


def lambda_phi(s: CellComplex, refinement: Refinement | None = None):
    """The pair (Lambda, Phi) attached to a simplicial refinement of the
    truncated normal fan of P.

    Phi weights refined h*-polynomials of faces by the cone multiplicities
    of the refinement; Lambda is the full cone sum minus Phi and satisfies
    the (uvw^2)^(dim P + 1) palindromy for any refinement.
    """
    p = s.polytope
    if refinement is None:
        refinement = simplicial_refinement(TruncatedNormalFan(p))
    elif refinement.fan.polytope.key != p.key:
        raise ValueError("refinement belongs to a different normal fan")
    shifted = UVW2 - 1
    mult = refinement.multiplicity_polys(shifted)
    phi = ZERO
    lattice = p.face_lattice()
    refined = face_tower(s).refined
    for fid, m in mult.items():
        phi = phi + (-1) ** lattice.face_dim(fid) * refined[fid] * m
    lam = refinement.total_poly(shifted) - phi
    return lam, phi


def lambda_mixed(lam: LaurentPoly) -> LaurentPoly:
    """Two-variable variant Lambda(u w^-1, 1, w) of a Lambda from ``lambda_phi``."""
    return lam.substitute({"u": U * W**-1, "v": 1})


def e_int_lef(p: LatticePolytope) -> LaurentPoly:
    """Lefschetz-forced intersection polynomial E(P;t): the unique polynomial
    with (t-1) E = t^dim g([empty,P]*;1/t) - g([empty,P]*;t).

    With g = sum g_i t^i of degree <= dim/2, which the g layer guarantees,
    t^dim g(1/t) - g(t) = sum g_i (t^(dim-i) - t^i), so E is the closed form
    sum g_i (t^i + ... + t^(dim-1-i)); a g_i at i = dim/2 adds nothing.
    """
    d = p.dim
    lattice = p.face_lattice()
    g = univariate(lattice.g(0, lattice.top, dual=True), "t")
    if 2 * max(g) > d:
        raise ValueError(f"dual g of degree {max(g)} exceeds dim/2 = {d}/2; g-layer bug")
    return power_sum(((k, c) for i, c in g.items() for k in range(i, d - i)), T)


def small_coeff_oracle(s: CellComplex) -> dict:
    """Closed forms for low coefficients of the refined polynomial.

    Writing h*(P,S;u,v,w) = 1 + uvw^2 sum h[p,q,r] u^p v^q w^r, returns the
    coefficients that have a direct lattice-point description: all (0,q,r),
    (0,0,r) and (0,0,0), plus (1,1,2) in dimension 3 (fixed by the volume).
    Computed from interior point counts and carriers only, independently of
    the tower itself.
    """
    p = s.polytope
    d = p.dim
    if d > 3:
        raise ValueError("closed forms only cover dimension <= 3")
    lattice = p.face_lattice()
    out: dict[tuple, int] = {}
    interior_low = 0
    for fid in lattice.all_faces():
        if fid and lattice.face_dim(fid) <= 1:
            interior_low += lattice.face_polytope(fid).interior_lattice_point_count()
    out[(0, 0, 0)] = interior_low - (d + 1)
    # Interior counts by (max(dim F - 1, 0), dim carrier(F) - 1): (0, 0, r)
    # sums the cells of dim <= 1, and (0, q, r) those of dim q + 1.
    counts = Counter()
    for cell in s.cells[1:]:
        key = (max(cell.dim - 1, 0), lattice.face_dim(s.carrier(cell)) - 1)
        counts[key] += cell.interior_lattice_point_count()
    for q in range(d):
        for r in range(1, d):
            out[(0, q, r)] = counts[q, r]
    if d == 3:
        known = (
            out[(0, 0, 0)]
            + 2 * out[(0, 0, 1)]
            + 2 * out[(0, 1, 1)]
            + 2 * out[(0, 0, 2)]
            + 4 * out[(0, 1, 2)]
            + 2 * out[(0, 2, 2)]
        )
        out[(1, 1, 2)] = p.normalized_volume() - 1 - known
    return out

