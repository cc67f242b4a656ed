"""Exact combinatorial Hodge-theoretic invariants of lattice polytopes with
regular subdivisions: the h*-polynomial tower, nearby-fiber and refined
Hodge-Deligne realizations, intersection-cohomology and stringy variants,
all in exact integer arithmetic."""

from .laurent import LaurentPoly, L, T, U, V, W
from .polytope import LatticePolytope
from .poset import EulerianPoset, stanley_inversion_check
from .subdivision import (
    CellComplex,
    HeightFunction,
    euler_relation_check,
    link_h_polynomial,
    regular_subdivision,
    trivial_subdivision,
)
from .fans import Refinement, TruncatedNormalFan, identity_refinement, simplicial_refinement
from .invariants import (
    e_int_lef,
    h_star,
    lambda_mixed,
    lambda_phi,
    limit_mixed_h_star,
    local_h_star,
    local_limit_mixed_h_star,
    mixed_h_star,
    refined_limit_mixed_h_star,
    small_coeff_oracle,
)
from .hodge import (
    HodgeNumberTable,
    as_class_polynomial,
    chi_y,
    dk_reconstruct,
    euler_characteristic,
    hodge_deligne,
    intersection_E,
    nearby_fiber_E,
    partial_compactification_E,
    partial_compactification_psi,
    refined_E,
    refined_hodge_numbers,
    stringy_E,
    sum_over_strata_E_int,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
