"""Command-line front end.

Reads a polytope (and optional heights / subfan / refinement) from a JSON
file, dispatches one of the computation commands, and emits a deterministic
report in JSON or plain text.  Exit codes: 0 success, 1 input error,
2 computation error, 3 verification failure.  ``entry`` runs a command as a
process and ends it once the report is flushed; ``main(argv)`` is the same
command as a library call.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import sys

try:
    # hashlib is pretty heavy to load, try lean internal module first
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        # fallback to official implementation
        from hashlib import sha256

from . import hodge, invariants as inv
from .fans import Refinement, TruncatedNormalFan, identity_refinement
from .generators import instance_corpus
from .laurent import ONE, ZERO, LaurentPoly
from .linalg import primitive
from .polytope import LatticePolytope
from .subdivision import CellComplex, HeightFunction, regular_subdivision, trivial_subdivision
from .verify import _result, run_checks

SCHEMA_VERSION = 1
MAX_DILATION = 12  # largest dilate that `hstar --max-dilation` may ask for


class InputError(Exception):
    pass


class ParsedInput:
    def __init__(self, polytope, height_fn, subfan, refinement, raw_bytes):
        self.polytope = polytope
        self.height_fn = height_fn
        self.subfan = subfan
        self.refinement = refinement
        self.raw_bytes = raw_bytes


def _parse_height(value, where):
    # fractions (with numbers and decimal) loads only for input with heights.
    from fractions import Fraction

    if isinstance(value, bool):
        raise InputError(f"{where}: height must be an integer or 'p/q' string")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{where}: bad height {value!r}: {exc}") from None
    raise InputError(f"{where}: height must be an integer or 'p/q' string")


def parse_input(path: str) -> ParsedInput:
    """Parse and validate the JSON input file.

    Lower-dimensional input is rewritten, points and heights alike, into the
    lattice of its span, so that stringy E can see a reflexive polytope and
    reports use the coordinates of that lattice.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InputError(f"{path}: top level must be an object")
    if "dim" not in data or "points" not in data:
        raise InputError(f"{path}: required fields: dim, points")
    dim = data["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise InputError(f"{path}: dim must be a nonnegative integer")
    points = data["points"]
    if not isinstance(points, list) or not points:
        raise InputError(f"{path}: points must be a nonempty list")
    coords = []
    heights = {}
    first_index = {}
    any_height = False
    for i, entry in enumerate(points):
        where = f"{path}: points[{i}]"
        if not isinstance(entry, dict) or "coords" not in entry:
            raise InputError(f"{where}: expected an object with 'coords'")
        c = entry["coords"]
        if (
            not isinstance(c, list)
            or len(c) != dim
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in c)
        ):
            raise InputError(
                f"{where}: coords must be a list of {dim} integers (lattice points only)"
            )
        pt = tuple(c)
        coords.append(pt)
        if "height" in entry:
            any_height = True
            height = _parse_height(entry["height"], where)
        else:
            height = 0
        if pt in heights and heights[pt] != height:
            raise InputError(
                f"{path}: points[{first_index[pt]}] and points[{i}] give the point "
                f"{c} the different heights {heights[pt]} and {height}"
            )
        heights[pt] = height
        first_index.setdefault(pt, i)
    try:
        to_model = LatticePolytope.convex_hull(coords)._map.to_model
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None
    heights = {to_model(pt): h for pt, h in heights.items()}
    polytope = LatticePolytope.convex_hull(list(heights))
    height_fn = None
    if any_height:
        try:
            height_fn = HeightFunction(polytope, heights)
        except ValueError as exc:
            raise InputError(f"{path}: {exc}") from None
    subfan = data.get("subfan")
    refinement = data.get("refinement")
    if refinement is not None and subfan is None:
        raise InputError(f"{path}: refinement needs a subfan (each sigma indexes the subfan list)")
    return ParsedInput(polytope, height_fn, subfan, refinement, raw)


def build_complex(parsed: ParsedInput) -> CellComplex:
    """Subdivision from the input, in the lattice of its span."""
    if parsed.height_fn is None:
        return trivial_subdivision(parsed.polytope)
    return regular_subdivision(parsed.height_fn)


def _parse_rays(rays, dim: int, where: str) -> list[tuple[int, ...]]:
    """Primitive integer rays from a JSON ray list; ``where`` is its JSON path."""
    if not isinstance(rays, list):
        raise InputError(f"{where} must be a list of rays")
    out = []
    for j, r in enumerate(rays):
        if (
            not isinstance(r, list)
            or len(r) != dim
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in r)
        ):
            raise InputError(f"{where}[{j}] must be a list of {dim} integers")
        if not any(r):
            raise InputError(f"{where}[{j}] is the zero vector, which spans no ray")
        out.append(primitive(tuple(r)))
    return out


def _resolve_subfan(fan: TruncatedNormalFan, cone_list, path: str):
    """Map a user cone list (ray lists) to face ids of the truncated fan.

    Returns the subfan (the zero cone added if the list leaves it out) and
    the face ids of the user's list, which refinement sigmas index.
    """
    if not isinstance(cone_list, list):
        raise InputError(f"{path}: subfan must be a list of cones")
    by_rays = {rays: fid for fid, rays in fan.cone_rays.items()}
    ids = []
    for i, cone in enumerate(cone_list):
        if isinstance(cone, dict):
            rays = _parse_rays(cone.get("rays"), fan.dim, f"{path}: subfan[{i}].rays")
        else:
            rays = _parse_rays(cone, fan.dim, f"{path}: subfan[{i}]")
        key = tuple(sorted(rays))
        if key == ():
            ids.append(fan.lattice.top)
            continue
        if key not in by_rays:
            raise InputError(f"{path}: subfan[{i}] is not a cone of the truncated normal fan")
        ids.append(by_rays[key])
    top = fan.lattice.top
    try:
        return fan.subfan(ids if top in ids else ids + [top]), ids
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None


def _resolve_refinement(fan: TruncatedNormalFan, subfan_ids, cone_list, path: str):
    """Build a refinement from user cones carrying sigma indices.

    The cones carried by a subfan cone sigma must subdivide it, so their
    relative interiors partition its interior, and by the Euler relation
    the sum of (-1)^(dim sigma - dim tau) over those cones tau is 1.  A cone
    left out, or a ray repeated within a cone, breaks that sum, and the input
    is rejected.  Then, as ``CellComplex._validate`` counts the cells at a
    facet, each cone tau of dimension dim sigma - 1 inside sigma must lie in
    exactly two of sigma's full-dimensional refinement cones when sigma
    carries it, and in exactly one when a facet of sigma does, which rejects
    cones that overlap across tau.  Both checks are necessary, not sufficient.
    """
    if not isinstance(cone_list, list):
        raise InputError(f"{path}: refinement must be a list of cones")
    cones = {(): fan.lattice.top}
    for i, cone in enumerate(cone_list):
        if not isinstance(cone, dict) or "rays" not in cone or "sigma" not in cone:
            raise InputError(f"{path}: refinement[{i}] needs 'rays' and 'sigma'")
        rays = tuple(
            sorted(_parse_rays(cone["rays"], fan.dim, f"{path}: refinement[{i}].rays"))
        )
        sigma = cone["sigma"]
        if type(sigma) is not int or not 0 <= sigma < len(subfan_ids):  # bool is no index
            raise InputError(
                f"{path}: refinement[{i}].sigma must be an index 0..{len(subfan_ids) - 1} "
                "into the subfan list"
            )
        fid = subfan_ids[sigma]
        # A vector lies in the cone of a face exactly when it is least on
        # all of the face; the smallest cone holding every ray is then the
        # cone of the face where all of them are least.
        for r in rays:
            if fid & ~fan.face_of(r):
                raise InputError(
                    f"{path}: refinement[{i}] has a ray outside its sigma cone"
                )
        if fan.smallest_face_for_rays(rays) != fid:
            raise InputError(
                f"{path}: refinement[{i}].sigma is not the smallest containing cone"
            )
        cones[rays] = fid
    refinement = Refinement(fan, cones)
    signed = refinement.multiplicity_polys(-ONE)
    for k, fid in enumerate(subfan_ids):
        total = signed.get(fid, ZERO)
        if total != 1:
            raise InputError(
                f"{path}: refinement does not subdivide subfan[{k}]: the sum of "
                f"(-1)^(dim sigma - dim tau) over its refinement cones tau is {total}, not 1"
            )
    dims = dict(zip(refinement.cones, refinement.dims))  # rays -> (dim, carrier)
    for k, sigma in enumerate(subfan_ids):
        d = fan.cone_dim(sigma)
        full = [set(rays) for rays, (dim, fid) in dims.items() if fid == sigma and dim == d]
        for tau, (dim, fid) in dims.items():
            if dim == d - 1 and fan.lattice.leq(sigma, fid):
                count = sum(set(tau) <= rays for rays in full)
                expected = 2 if fid == sigma else 1
                if count != expected:
                    raise InputError(
                        f"{path}: refinement does not subdivide subfan[{k}]: the cone "
                        f"{[list(r) for r in tau]} lies in {count} of its {d}-dimensional "
                        f"refinement cones, not {expected}"
                    )
    return refinement


# -- report assembly ----------------------------------------------------------


def _poly(p: LaurentPoly):
    return {"terms": p.to_json_obj(), "pretty": str(p)}


def _table(table: dict):
    return {",".join(map(str, k)): str(v) for k, v in sorted(table.items())}


def _report(command: str, parsed: ParsedInput, results, tables=None, checks=()):
    """The report of a command; each ``CheckResult`` becomes a dict."""
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "input_hash": sha256(parsed.raw_bytes).hexdigest(),
        "results": results,
        "tables": tables or {},
        "checks": [c._asdict() for c in checks],
    }


def _emit(report: dict, fmt: str) -> None:
    out = sys.stdout
    if fmt == "json":
        json.dump(report, out, indent=2)
        out.write("\n")
        return
    out.write(f"# {report['command']} (input {report['input_hash'][:12]})\n")
    for name, value in report["results"].items():
        if isinstance(value, dict) and "pretty" in value:
            out.write(f"{name} = {value['pretty']}\n")
        else:
            out.write(f"{name} = {value}\n")
    for name, table in report["tables"].items():
        out.write(f"[{name}]\n")
        for k, v in table.items():
            out.write(f"  {k}: {v}\n")
    for check in report["checks"]:
        detail = f"  ({check['detail']})" if check.get("detail") else ""
        out.write(f"check {check['name']}: {check['status']}{detail}\n")


# -- commands -------------------------------------------------------------------


def cmd_hstar(parsed: ParsedInput, args) -> dict:
    p = parsed.polytope
    results = {
        "h_star": _poly(inv.h_star(p)),
        "local_h_star": _poly(inv.local_h_star(p)),
        "mixed_h_star": _poly(inv.mixed_h_star(p)),
        "normalized_volume": str(p.normalized_volume()),
    }
    ehrhart = {str(m): str(p.lattice_point_count(m)) for m in range(args.max_dilation + 1)}
    return _report("hstar", parsed, results, tables={"ehrhart": ehrhart})


def cmd_gpoly(parsed: ParsedInput, args) -> dict:
    p = parsed.polytope
    lattice = p.face_lattice()
    g = lattice.g(0, lattice.top)
    gd = lattice.g(0, lattice.top, dual=True)
    results = {
        "g": _poly(g),
        "g_dual": _poly(gd),
        "f_vector": str(list(lattice.f_vector())),
        "intersection_lefschetz": _poly(inv.e_int_lef(p)),
    }
    return _report("gpoly", parsed, results)


def cmd_invariants(parsed: ParsedInput, args) -> dict:
    s = build_complex(parsed)
    p = s.polytope
    results = {
        "h_star": _poly(inv.h_star(p)),
        "local_h_star": _poly(inv.local_h_star(p)),
        "mixed_h_star": _poly(inv.mixed_h_star(p)),
        "limit_mixed_h_star": _poly(inv.limit_mixed_h_star(s)),
        "local_limit_mixed_h_star": _poly(inv.local_limit_mixed_h_star(s)),
        "refined_limit_mixed_h_star": _poly(inv.refined_limit_mixed_h_star(s)),
        "maximal_cells": str(len(s.maximal_cells)),
    }
    return _report("invariants", parsed, results)


def cmd_hodge(parsed: ParsedInput, args) -> dict:
    s = build_complex(parsed)
    e_ref = hodge.refined_E(s)
    psi = hodge.nearby_fiber_E(s)
    cls = hodge.as_class_polynomial(psi)
    table = hodge.refined_hodge_numbers(s)
    results = {
        "refined_E": _poly(e_ref),
        "nearby_fiber_E": _poly(psi),
        "hodge_deligne": _poly(hodge.hodge_deligne(s.polytope)),
        "chi_y": _poly(hodge.chi_y(s.polytope)),
        "euler_characteristic": str(hodge.euler_characteristic(s.polytope)),
    }
    if cls is not None:
        results["nearby_fiber_class"] = _poly(cls)
    tables = {
        "refined_hodge_numbers": _table(table.refined),
        "limit_hodge_numbers": _table(table.limit),
        "local_hodge_numbers": _table(table.local),
    }
    if parsed.subfan is not None:
        fan = TruncatedNormalFan(s.polytope)
        sel, ids = _resolve_subfan(fan, parsed.subfan, args.input)
        if parsed.refinement is not None:
            refinement = _resolve_refinement(fan, ids, parsed.refinement, args.input)
        else:
            refinement = identity_refinement(fan, sel)
        results["partial_compactification_E"] = _poly(
            hodge.partial_compactification_E(s, refinement=refinement)
        )
        results["partial_compactification_psi"] = _poly(
            hodge.partial_compactification_psi(s, refinement=refinement)
        )
    return _report("hodge", parsed, results, tables=tables)


def cmd_intersection(parsed: ParsedInput, args) -> dict:
    s = build_complex(parsed)
    e_int = hodge.intersection_E(s)
    strata = hodge.sum_over_strata_E_int(s)
    results = {
        "intersection_E": _poly(e_int),
        "intersection_lefschetz": _poly(inv.e_int_lef(s.polytope)),
        "strata_sum": _poly(strata),
    }
    checks = [_result("strata_sum_is_intersection_E", strata == e_int)]
    return _report("intersection", parsed, results, checks=checks)


def cmd_stringy(parsed: ParsedInput, args) -> dict:
    s = build_complex(parsed)
    if not s.polytope.reflexive_check():
        raise InputError(f"{args.input}: stringy E requires a reflexive polytope")
    e_st = hodge.stringy_E(s)
    results = {
        "stringy_E": _poly(e_st),
        "stringy_E_generic": _poly(hodge.stringy_E_generic(s, e_st)),
        "dual_polytope_vertices": str(
            [list(v) for v in s.polytope.dual_polytope().vertices]
        ),
    }
    return _report("stringy", parsed, results)


def cmd_nearby(parsed: ParsedInput, args) -> dict:
    s = build_complex(parsed)
    psi = hodge.nearby_fiber_E(s)
    cls = hodge.as_class_polynomial(psi)
    results = {
        "nearby_fiber_E": _poly(psi),
        "euler_characteristic": str(hodge.euler_characteristic(s.polytope)),
    }
    if cls is not None:
        results["nearby_fiber_class"] = _poly(cls)
    return _report("nearby", parsed, results)


def cmd_dk_check(parsed: ParsedInput, args) -> dict:
    s = build_complex(parsed)
    direct = hodge.refined_E(s)
    reconstructed = hodge.dk_reconstruct(s)
    ok = direct == reconstructed
    results = {
        "refined_E": _poly(direct),
        "reconstructed_E": _poly(reconstructed),
    }
    checks = [_result("reconstruction_matches", ok, "independent reconstruction disagrees")]
    return _report("dk-check", parsed, results, checks=checks)


def cmd_verify(parsed: ParsedInput, args) -> dict:
    s = build_complex(parsed)
    checks = run_checks(s)
    if args.random:
        for i, instance in enumerate(instance_corpus(args.seed, args.random)):
            try:
                found = run_checks(instance)
            except Exception as exc:
                raise ValueError(f"random[{i}] (seed {args.seed}): {_describe(exc)}") from exc
            checks += [c._replace(name=f"random[{i}].{c.name}") for c in found]
    return _report("verify", parsed, {}, checks=checks)


_COMMANDS = {
    "hstar": cmd_hstar,
    "gpoly": cmd_gpoly,
    "invariants": cmd_invariants,
    "hodge": cmd_hodge,
    "intersection": cmd_intersection,
    "stringy": cmd_stringy,
    "nearby": cmd_nearby,
    "dk-check": cmd_dk_check,
    "verify": cmd_verify,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyhodge",
        description=(
            "Exact combinatorial Hodge-theoretic invariants of lattice polytopes "
            "with regular subdivisions"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("input", help="JSON input file")
        p.add_argument("--format", choices=("json", "text"), default="json")
        if name == "hstar":
            p.add_argument(
                "--max-dilation",
                type=int,
                default=6,
                help=f"largest dilate whose point count is reported (0..{MAX_DILATION})",
            )
        if name == "verify":
            p.add_argument(
                "--random",
                type=int,
                default=0,
                metavar="N",
                help="also verify N >= 0 random instances",
            )
            p.add_argument("--seed", type=int, default=0)
    return parser


def _describe(exc: Exception) -> str:
    """What ``computation error:`` reports: a ValueError's message, or any
    other exception's type name and message."""
    return str(exc) if isinstance(exc, ValueError) else f"{type(exc).__name__}: {exc}"


def _check_counts(args) -> None:
    """Reject a count flag out of its range rather than clamp or ignore it."""
    dilation = getattr(args, "max_dilation", 0)
    if not 0 <= dilation <= MAX_DILATION:
        raise InputError(f"--max-dilation must be in 0..{MAX_DILATION}, got {dilation}")
    if getattr(args, "random", 0) < 0:
        raise InputError(f"--random must be >= 0, got {args.random}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_counts(args)
        parsed = parse_input(args.input)
        report = _COMMANDS[args.command](parsed, args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a bug or a resource limit, never a traceback
        print(f"computation error: {_describe(exc)}", file=sys.stderr)
        return 2
    failed = any(c["status"] == "fail" for c in report.get("checks", []))
    try:
        _emit(report, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone: the flush at exit must not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 3 if failed else 0


def _exit_flushed(code: int) -> None:
    """Flush stdout and stderr and end the process with ``code`` at once,
    skipping interpreter finalization, which would only free the memo
    tables.  A stream that fails to flush otherwise than on a closed pipe
    raises here, and finalization then runs and reports it as usual."""
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except BrokenPipeError:
            pass
    os._exit(code)


def entry() -> None:
    """Process entry point of ``python -m polyhodge.cli`` and the
    ``polyhodge`` console script: ``main()``, then an exit that ends the
    process once its output is flushed.

    The exit still goes through ``SystemExit``, so a wrapper that runs this
    module, such as ``python -m cProfile``, finishes its own work first; the
    handler that ends the process runs at interpreter exit.  An argparse
    error or ``--help`` leaves ``main`` as ``SystemExit`` and exits as usual.
    """
    code = main()
    atexit.register(_exit_flushed, code)
    sys.exit(code)


if __name__ == "__main__":
    entry()
