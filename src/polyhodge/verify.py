"""Property suite run by the command-line `verify` command.

Each check is exact; a failing check reports the first counterexample datum.
The unimodality diagnostic is reported as a warning rather than a failure,
since it is only guaranteed for inputs realizable by an actual degeneration.
"""

from __future__ import annotations

from typing import NamedTuple

from . import hodge, invariants as inv
from .laurent import VARS, U, UVW2, V, W, power_sum
from .poset import stanley_inversion_check
from .subdivision import CellComplex, euler_relation_check, regular_subdivision


class CheckResult(NamedTuple):
    name: str
    status: str  # "pass" | "fail" | "warn"
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "fail"


def _result(name, ok, detail=""):
    return CheckResult(name, "pass" if ok else "fail", detail if not ok else "")


def run_checks(s: CellComplex) -> list[CheckResult]:
    """Run every exact property check on one subdivided polytope."""
    out: list[CheckResult] = []
    p = s.polytope
    d = p.dim
    lattice = p.face_lattice()

    # Eulerian face lattice and inversion identities.
    try:
        poset = lattice.poset()  # raises unless graded and Eulerian
    except ValueError as exc:
        out.append(CheckResult("face_lattice_eulerian", "fail", str(exc)))
        out.append(CheckResult("stanley_inversion_faces", "fail", str(exc)))
    else:
        out.append(_result("face_lattice_eulerian", True))
        # Every [F, P] is checked on a copy of the lattice's poset, whose g
        # table is its own, so the recursion is checked apart from the g values
        # (and the simplex shortcut) that the tower reads off the lattice; the
        # maximal cells' lattices likewise, one copy per distinct relation.
        copy = poset.copy()
        bad = None
        for i, fid in enumerate(copy.elements):
            if i != copy.top and not stanley_inversion_check(copy, (i, copy.top)):
                bad = fid
                break
        out.append(_result("stanley_inversion_faces", bad is None, f"interval [{bad}, P]"))
    bad = _first_cell_failing_inversion(s)
    out.append(_result("stanley_inversion_cells", bad is None, f"interval [(), {bad}]"))

    # Euler relation for the empty face and every proper face.
    bad = None
    for fid in lattice.all_faces():
        if fid == lattice.top:
            continue
        if not euler_relation_check(s, fid):
            bad = fid
            break
    out.append(_result("euler_relation", bad is None, f"face {bad}"))

    # Regularity idempotence when the producing heights are known.
    if s.heights is not None:
        again = regular_subdivision(s.heights)
        out.append(_result("regular_subdivision_idempotent", again.cells == s.cells))

    refined = inv.refined_limit_mixed_h_star(s)
    out.append(
        _result(
            "refined_symmetric_uv",
            refined.substitute({"u": V, "v": U}) == refined,
        )
    )
    out.append(
        _result(
            "refined_involution",
            refined.substitute({"u": U**-1, "v": V**-1, "w": U * V * W}) == refined,
        )
    )
    out.append(
        _result(
            "specializes_to_limit_mixed",
            refined.substitute({"w": 1}) == inv.limit_mixed_h_star(s),
        )
    )
    out.append(
        _result(
            "specializes_to_mixed",
            refined.substitute({"u": U * W**-1, "v": 1})
            == inv.mixed_h_star(p).substitute({"v": W}),
        )
    )
    out.append(
        _result(
            "specializes_to_h_star",
            refined.substitute({"v": 1, "w": 1}) == inv.h_star(p),
        )
    )
    out.append(
        _result(
            "h_star_at_one_is_volume",
            inv.h_star(p).substitute({"u": 1}) == p.pyramid_volume(),
        )
    )
    wdeg = refined.degree_in("w")
    out.append(_result("w_degree_bound", wdeg <= d + 1, f"w-degree {wdeg}"))
    out.append(
        _result(
            "top_w_coefficient_is_local",
            refined.coeff_in("w", d + 1) == inv.local_limit_mixed_h_star(s),
        )
    )
    out.append(
        _result(
            "limit_mixed_two_forms",
            inv.limit_mixed_h_star(s) == inv.limit_mixed_h_star_by_links(s),
        )
    )
    negative = [(e, c) for e, c in refined.terms() if c < 0]
    out.append(_result("refined_nonnegative", not negative, f"term {negative[:1]}"))

    # Unimodality of the vertical strips (diagnostic only).
    warn = _unimodality_warning(s, refined)
    if warn:
        out.append(CheckResult("unimodality_diagnostic", "warn", warn))
    else:
        out.append(CheckResult("unimodality_diagnostic", "pass"))

    e_ref = hodge.refined_E(s)
    psi = hodge.nearby_fiber_E(s)
    out.append(_result("refined_E_at_w1_is_nearby", e_ref.substitute({"w": 1}) == psi))
    out.append(
        _result(
            "refined_E_specializes_to_hodge_deligne",
            e_ref.substitute({"u": U * W**-1, "v": 1}) == hodge.hodge_deligne(p),
        )
    )
    out.append(
        _result(
            "euler_characteristic_specialization",
            e_ref.substitute({"u": 1, "v": 1, "w": 1}) == hodge.euler_characteristic(p),
        )
    )
    out.append(
        _result(
            "refined_E_symmetries",
            e_ref.substitute({"u": V, "v": U}) == e_ref
            and e_ref.substitute({"u": U**-1, "v": V**-1, "w": U * V * W}) == e_ref,
        )
    )
    out.append(_result("weak_lefschetz_refined", _weak_lefschetz(e_ref, UVW2, d, ("w",))))
    out.append(
        _result(
            "weak_lefschetz_hodge_deligne",
            _weak_lefschetz(hodge.hodge_deligne(p), U * W, d, ("u", "w")),
        )
    )
    out.append(
        _result(
            "chi_y_valuation",
            hodge.chi_y(p) == psi.substitute({"v": 1})
            and _chi_y_inclusion_exclusion(s),
        )
    )
    out.append(_result("dk_reconstruction", hodge.dk_reconstruct(s) == e_ref))
    out.append(
        _result(
            "strata_sum_is_intersection_E",
            hodge.sum_over_strata_E_int(s) == hodge.intersection_E(s),
        )
    )
    out.append(
        _result(
            "compactified_psi_two_forms",
            hodge.partial_compactification_psi(s)
            == hodge.compactified_psi_face_sum(s),
        )
    )
    try:
        hodge.refined_hodge_numbers(s)
        out.append(CheckResult("hodge_number_tables", "pass"))
    except ValueError as exc:
        out.append(CheckResult("hodge_number_tables", "fail", str(exc)))
    if d <= 3:
        oracle = inv.small_coeff_oracle(s)
        body = (refined - 1) * UVW2**-1
        bad = None
        for (a, b, c), value in oracle.items():
            if body.coeff({"u": a, "v": b, "w": c}) != value:
                bad = (a, b, c)
                break
        out.append(_result("small_coefficient_oracle", bad is None, f"index {bad}"))
    lam, _ = inv.lambda_phi(s)
    pal = UVW2 ** (d + 1) * lam.substitute({"u": U**-1, "v": V**-1, "w": W**-1})
    out.append(_result("lambda_palindromy", pal == lam))
    lam_mixed = inv.lambda_mixed(lam)
    palm = (U * W) ** (d + 1) * lam_mixed.substitute({"u": U**-1, "w": W**-1})
    out.append(_result("lambda_mixed_palindromy", palm == lam_mixed))
    return out


def _first_cell_failing_inversion(s: CellComplex):
    """The vertices of the first maximal cell whose face lattice fails the
    inversion identity, or None.

    The check is a pure function of the lattice's relation, and cells share
    relations (every d-simplex has the same one), so it runs on a copy of
    one poset per distinct relation; the cells are read in order, so the
    first failing cell named is the one a check of every cell would name.
    """
    verdicts = {}
    for cell in s.maximal_cells:
        poset = cell.face_lattice().poset()
        relation = (poset.elements, poset.up)
        if relation not in verdicts:
            interval = poset.copy()
            verdicts[relation] = interval.rank < 1 or stanley_inversion_check(interval)
        if not verdicts[relation]:
            return cell.vertices
    return None


def _weak_lefschetz(e, x, d: int, graded: tuple[str, ...]) -> bool:
    """x E agrees with (x - 1)^d in every degree above d + 1, where the degree
    of a term is the sum of its exponents of the variables in ``graded``: w
    for x = uvw^2, u and w for x = uw."""
    axes = [VARS.index(name) for name in graded]
    diff = x * e - (x - 1) ** d
    return all(sum(exps[i] for i in axes) <= d + 1 for exps, _ in diff.terms())


def _chi_y_inclusion_exclusion(s: CellComplex) -> bool:
    p = s.polytope
    terms = ((p.dim - cell.dim, hodge.chi_y(cell)) for cell in s.interior_cells())
    return power_sum(terms, 1 - U) == hodge.chi_y(p)


def _unimodality_warning(s: CellComplex, refined) -> str:
    """Check that each vertical strip of each weight-graded piece of the
    refined coefficients is symmetric and unimodal; returns a description of
    the first violation (empty string if none)."""
    if refined.coeff({}) != 1:
        return "constant term differs from 1"
    body = (refined - 1) * UVW2**-1
    if not body.is_polynomial():
        return "refined polynomial not of the expected shape"
    rmax = int(body.degree_in("w")) if body else -1
    for r in range(0, rmax + 1):
        strip_poly = body.coeff_in("w", r)
        for k in range(0, r + 1):
            seq = [strip_poly.coeff({"u": k + i, "v": i}) for i in range(0, r - k + 1)]
            if seq != seq[::-1]:
                return f"strip r={r}, k={k} not symmetric: {seq}"
            half = (len(seq) + 1) // 2
            if any(seq[i] > seq[i + 1] for i in range(half - 1)):
                return f"strip r={r}, k={k} not unimodal: {seq}"
    return ""
