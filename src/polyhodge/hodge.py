"""Hodge-theoretic polynomial invariants of a Newton polytope with a
regular subdivision.

Everything is emitted as an exact Laurent polynomial realization: the
one-variable Lefschetz characteristic, the two-variable Hodge-Deligne
polynomial of the generic hypersurface, the nearby-fiber realization at
w = 1, the full three-variable refined polynomial, intersection-cohomology
and stringy variants, partial compactifications along subfans of the
truncated normal fan, and a reconstruction algorithm that re-derives the
refined polynomial from weak Lefschetz, Poincare duality, and the w = 1
specialization without touching the refined h*-tower (so the two paths are
genuinely independent).

A polytope of any dimension is measured in the lattice of its own affine
span, so the stratum of a face Q is that of the restriction S|Q, whose
refined h*-polynomial ``invariants.face_tower`` reads off S itself.  Only
``dk_reconstruct`` and ``partial_compactification_psi``, the independent
sides of ``verify`` identities, build ``s.restrict(Q)``.

Each E is taken from its h*-polynomial by the one Danilov-Khovanskii
transform ``_e_from_h``, x E = (x - 1)^dim + (-1)^(dim+1) h* at x = u, uw,
uv or uvw^2, whose (x - 1)^dim and x^-1 are kept per pair (x, dim), and
each cell sum weighted by (1 - uv)^codim is a ``laurent.power_sum``.  The E
of a cell is kept per translation class, the nearby fiber per complex.

Grothendieck-ring classes are never represented; a class in Z[L] is
reported in the L-variable exactly when the (u,v)-realization happens to
be a polynomial in the product uv.
"""

from __future__ import annotations

from typing import NamedTuple

from .laurent import LaurentPoly, ONE, U, UV, UVW2, V, W, ZERO, power_sum
from .polytope import LatticePolytope
from .subdivision import CellComplex
from .fans import Refinement, TruncatedNormalFan, identity_refinement, simplicial_refinement
from .memo import memo
from . import invariants as inv


# -- realization helpers ------------------------------------------------------


def as_class_polynomial(p: LaurentPoly) -> LaurentPoly | None:
    """Rewrite a (u,v)-realization lying in Z[uv] as a polynomial in L.

    Returns None when some monomial has unequal u- and v-exponents (the
    value is then not of Tate type and has no L-form).
    """
    terms = {}
    for exps, c in p.terms():
        eu, ev, ew, et, el = exps
        if ew or et:
            return None
        if eu != ev:
            return None
        terms[(0, 0, 0, 0, el + eu)] = terms.get((0, 0, 0, 0, el + eu), 0) + c
    return LaurentPoly(terms)


# -- hypersurface invariants of a single polytope -------------------------------


@memo("TORUS", key=lambda xd: xd)
def _torus(xd: tuple[LaurentPoly, int]) -> tuple[LaurentPoly, LaurentPoly]:
    """(x - 1)^d and x^-1 for a pair (x, d): few pairs, read by every E."""
    x, d = xd
    return (x - 1) ** d, x**-1


def _e_from_h(d: int, h: LaurentPoly, x: LaurentPoly) -> LaurentPoly:
    """The E of dimension d >= 0 with x E = (x - 1)^d + (-1)^(d+1) h, for an
    h*-polynomial h realized at the monomial x: u, uw, uv or uvw^2."""
    if d < 0:
        raise ValueError("requires a nonempty polytope")
    torus, inverse = _torus((x, d))
    e = (torus + (-1) ** (d + 1) * h) * inverse
    if not e.is_polynomial():
        raise ValueError("E is not polynomial; invariant-tower bug")
    return e


def chi_y(p: LatticePolytope) -> LaurentPoly:
    """Lefschetz characteristic in u: the E with
    u E = (u-1)^dim + (-1)^(dim+1) h*(P;u)."""
    return _e_from_h(p.dim, inv.h_star(p), U)


def euler_characteristic(p: LatticePolytope) -> int:
    """(-1)^(dim+1) times the normalized volume; 0 for a point, whose
    hypersurface is empty."""
    if p.is_empty:
        raise ValueError("requires a nonempty polytope")
    if p.dim == 0:
        return 0
    return (-1) ** (p.dim + 1) * inv.h_star(p).substitute({"u": 1}).coeff({})


def hodge_deligne(p: LatticePolytope) -> LaurentPoly:
    """Hodge-Deligne polynomial in (u, w) of the generic hypersurface:
    uw E = (uw-1)^dim + (-1)^(dim+1) h*(P;u,w), the (u, v) polynomial with
    v renamed to w."""
    return hodge_deligne_uv(p).substitute({"v": W})


@memo("HODGE_DELIGNE_UV", key=lambda p: p.shape)
def hodge_deligne_uv(p: LatticePolytope) -> LaurentPoly:
    """Hodge-Deligne polynomial with the weight variable renamed to v."""
    return _e_from_h(p.dim, inv.mixed_h_star(p), UV)


@memo("NEARBY_FIBER_E", key=lambda s: s.key)
def nearby_fiber_E(s: CellComplex) -> LaurentPoly:
    """Limit Hodge-Deligne realization of the nearby fiber, in (u, v).

    Sum over interior cells F of E(V_F; u, v) (1 - uv)^(dim P - dim F);
    agrees with the refined polynomial at w = 1.
    """
    d = s.polytope.dim
    terms = ((d - cell.dim, hodge_deligne_uv(cell)) for cell in s.interior_cells())
    return power_sum(terms, 1 - UV)


# -- refined invariants ----------------------------------------------------------


def refined_E(s: CellComplex) -> LaurentPoly:
    """Refined limit Hodge-Deligne polynomial in (u, v, w):
    uvw^2 E = (uvw^2 - 1)^dim + (-1)^(dim+1) h*(P,S;u,v,w), exactly."""
    return _e_from_h(s.polytope.dim, inv.refined_limit_mixed_h_star(s), UVW2)


class HodgeNumberTable(NamedTuple):
    """Refined limit mixed Hodge numbers of middle-degree primitive
    cohomology, read off the refined h*-polynomial, together with the
    w-aggregated limit table and the top-weight local table."""

    dim: int
    refined: dict
    limit: dict
    local: dict

    def symmetric(self) -> bool:
        for (p_, q, r), value in self.refined.items():
            if self.refined.get((q, p_, r), 0) != value:
                return False
            if self.refined.get((r - p_, r - q, r), 0) != value:
                return False
        return True


def refined_hodge_numbers(s: CellComplex) -> HodgeNumberTable:
    """Extract h[p,q,r] from h*(P,S) = 1 + uvw^2 sum h[p,q,r] u^p v^q w^r.

    Also returns the limit table from the w = 1 polynomial and the local
    table from the top w-coefficient; raises when the constant term is not
    1 or any entry comes out negative.
    """
    refined = inv.refined_limit_mixed_h_star(s)
    if refined.coeff({}) != 1:
        raise ValueError("refined h* must have constant term 1")
    out = HodgeNumberTable(
        s.polytope.dim,
        _hodge_table("refined", (refined - 1) * UVW2**-1, 3),
        _hodge_table("limit", (inv.limit_mixed_h_star(s) - 1) * UV**-1, 2),
        _hodge_table("local", inv.local_limit_mixed_h_star(s) * UV**-1, 2),
    )
    if not out.symmetric():
        raise ValueError("refined Hodge numbers violate their symmetries")
    return out


def _hodge_table(name: str, body: LaurentPoly, width: int) -> dict:
    """The coefficients of body, keyed by their first ``width`` exponents;
    raises unless body is a polynomial with no negative coefficient."""
    table = {}
    for exps, c in body.terms():
        if min(exps) < 0 or c < 0:
            raise ValueError(f"{name} Hodge numbers must be nonnegative")
        table[exps[:width]] = c
    return table


# -- intersection cohomology ------------------------------------------------------


def intersection_E(s: CellComplex) -> LaurentPoly:
    """Intersection-cohomology refined E of the compactified family:
    uvw^2 E = uvw^2 E_Lef(P; uvw^2) + (-1)^(dim+1) l*(P,S;u,v) w^(dim+1)."""
    d = s.polytope.dim
    local = inv.local_limit_mixed_h_star(s) * W ** (d + 1) * UVW2**-1
    e = inv.e_int_lef(s.polytope).substitute({"t": UVW2}) + (-1) ** (d + 1) * local
    if not e.is_polynomial():
        raise ValueError("intersection E is not polynomial; tower bug")
    return e


def sum_over_strata_E_int(s: CellComplex) -> LaurentPoly:
    """Stratum-sum form of the intersection-cohomology polynomial:
    sum over nonempty faces Q of refined E of the stratum times
    g([Q,P]*; uvw^2).  Must agree with intersection_E."""
    lattice = s.polytope.face_lattice()
    refined = inv.face_tower(s).refined

    def stratum(f):
        qdim = lattice.face_dim(f)
        # The empty face and the point strata carry no hypersurface.
        return _e_from_h(qdim, refined[f], UVW2) if qdim > 0 else 0

    return lattice.g_sum(lattice.top, stratum, UVW2, dual=True)


# -- partial compactifications ------------------------------------------------------


def _checked_refinement(s: CellComplex, refinement) -> Refinement:
    """The refinement, which must refine the normal fan of s.polytope, or
    the identity refinement of the whole fan when none is given."""
    if refinement is None:
        return identity_refinement(TruncatedNormalFan(s.polytope))
    if refinement.fan.polytope.key != s.polytope.key:
        raise ValueError("refinement belongs to a different normal fan")
    return refinement


def partial_compactification_E(
    s: CellComplex, refinement: Refinement | None = None
) -> LaurentPoly:
    """Refined E of the closure of the open hypersurface along a subfan of
    the truncated normal fan, given by a refinement of the subfan.

    The identity refinement of the zero subfan returns the open refined E;
    the default, the identity refinement of the full fan, gives the
    (possibly singular) compactification.
    """
    mult = _checked_refinement(s, refinement).multiplicity_polys(UVW2 - 1)
    lattice = s.polytope.face_lattice()
    refined = inv.face_tower(s).refined
    total = ZERO
    for fid, m in mult.items():
        total = total + _e_from_h(lattice.face_dim(fid), refined[fid], UVW2) * m
    return total


def partial_compactification_psi(
    s: CellComplex, refinement: Refinement | None = None
) -> LaurentPoly:
    """Nearby-fiber realization of the partial compactification, in (u, v)."""
    mult = _checked_refinement(s, refinement).multiplicity_polys(UV - 1)
    total = ZERO
    for fid, m in mult.items():
        total = total + nearby_fiber_E(s.restrict(fid)) * m
    return total


def compactified_psi_face_sum(s: CellComplex) -> LaurentPoly:
    """Cell-sum form of the full compactification's nearby fiber:
    sum over nonempty cells F of E(V_F;u,v) (1-uv)^(dim carrier - dim F)."""
    face_dim = s.polytope.face_lattice().face_dim
    terms = (
        (face_dim(s.carrier(cell)) - cell.dim, hodge_deligne_uv(cell)) for cell in s.cells[1:]
    )
    return power_sum(terms, 1 - UV)


# -- stringy invariants ---------------------------------------------------------------


def stringy_E(s: CellComplex) -> LaurentPoly:
    """Stringy refined E of the compactified family over a reflexive P:
    uvw^2 E_st = sum over faces Q (including empty and P) of
    (-w)^(dim Q + 1) l*(Q, S|Q; u, v) l*(Q*; uvw^2)."""
    p = s.polytope
    if not p.reflexive_check():
        raise ValueError("stringy E requires a reflexive polytope")
    dual, face_map = p.dual_face_map()
    dlattice = dual.face_lattice()
    lattice = p.face_lattice()
    local = inv.face_tower(s).local
    total = ZERO
    for fid in lattice.all_faces():
        qdim = lattice.face_dim(fid)
        local2 = local[fid] if fid else ONE
        dual_poly = dlattice.face_polytope(face_map[fid])
        local1 = inv.local_h_star(dual_poly).substitute({"u": UVW2})
        total = total + (-W) ** (qdim + 1) * local2 * local1
    e = total * UVW2**-1
    if not e.is_polynomial():
        raise ValueError("stringy E is not polynomial; tower bug")
    return e


def stringy_E_generic(s: CellComplex, e_st: LaurentPoly | None = None) -> LaurentPoly:
    """Stringy E of the generic fiber, in (u, w); ``e_st`` is stringy_E(s)
    when the caller has already computed it."""
    if e_st is None:
        e_st = stringy_E(s)
    return e_st.substitute({"u": U * W**-1, "v": 1})


# -- reconstruction (independent of the refined tower) ------------------------------


@memo("DK_CACHE", key=lambda s: s.key)
def dk_reconstruct(s: CellComplex) -> LaurentPoly:
    """Reconstruct the refined E polynomial without the refined h*-tower.

    The w-degrees above dim P - 1 are forced by weak Lefschetz (they match
    the torus contribution (uvw^2 - 1)^dim / uvw^2); the degrees below
    dim P - 1 come from Poincare duality of the simplicial partial
    compactification, whose high degrees are known by recursion over the
    proper faces; the middle degree is fixed by the w = 1 specialization.
    This is the independent oracle for refined_E.
    """
    p = s.polytope
    d = p.dim
    if d == 0:
        return ZERO
    # Step 1: high w-degrees (> d-1) of E from the weak Lefschetz constraint.
    torus = (UVW2 - 1) ** d
    high = {}
    for k in range(d + 2, 2 * d + 1):
        c = torus.coeff_in("w", k)
        if c:
            high[k - 2] = c * UV**-1
    # Step 2: high degrees of the simplicial partial compactification.
    fan = TruncatedNormalFan(p)
    refinement = simplicial_refinement(fan)
    mult = refinement.multiplicity_polys(UVW2 - 1)
    lattice = p.face_lattice()
    proper_sum = ZERO
    for fid, m in mult.items():
        if fid == lattice.top:
            continue
        proper_sum = proper_sum + dk_reconstruct(s.restrict(fid)) * m
    known_e = dict(high)  # degrees >= d of E(X_infty)
    # Step 3: Poincare duality of the compactification gives every degree
    # <= d-2 of E from the degrees >= d.
    e_parts = dict(known_e)
    for low_k in range(0, d - 1):
        k = 2 * (d - 1) - low_k  # the dual degree, >= d
        comp_val = known_e.get(k, ZERO) + proper_sum.coeff_in("w", k)
        flipped = comp_val.substitute({"u": U**-1, "v": V**-1}) * UV ** (d - 1)
        part = flipped - proper_sum.coeff_in("w", low_k)
        if part:
            e_parts[low_k] = part
    # Step 4: the middle degree d-1 from the w = 1 specialization.
    middle = nearby_fiber_E(s)
    for k, poly in e_parts.items():
        middle = middle - poly
    e_parts[d - 1] = middle
    # Duality fixes the middle degree of the compactification; a mismatch
    # means some ingredient (recursion, weak Lefschetz or the w = 1 value)
    # is wrong, so report the degree instead of returning garbage.
    comp_middle = middle + proper_sum.coeff_in("w", d - 1)
    flipped_middle = comp_middle.substitute({"u": U**-1, "v": V**-1}) * UV ** (d - 1)
    if flipped_middle != comp_middle:
        raise ValueError(f"reconstruction inconsistent at w-degree {d - 1}")
    return power_sum(e_parts.items(), W)
