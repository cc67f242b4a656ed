"""Traced CLI run: time the calls into each polyhodge module from outside.

Usage: python perfbench/tracer.py SPANS_OUT COMMAND_ID CLI_ARG...

Runs ``polyhodge.cli.main(CLI_ARG...)`` in this fresh process after
replacing the public functions listed in TARGETS with timing wrappers.  Every
module attribute, class attribute and CLI dispatch entry that *is* the
original function is rebound, so calls through names imported elsewhere
(``from .poset import g_polynomial``) are timed as well.  Hot leaf helpers
(``linalg.dot``, ``CellComplex.leq``, ``Fraction``) are left alone.

Spans (name, start, end, parent) stay in memory while the command runs.
Afterwards the span list, per-name aggregates and the growth of the memo
dicts are written as gzipped JSON to SPANS_OUT; the time spent on that is
written to SPANS_OUT.post, so the caller can subtract it from the wall time.
The memo dicts are only read, never changed.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from math import comb

# (module, attribute path, span name)
TARGETS = (
    ("polyhodge.cli", "main", "cli.main"),
    ("polyhodge.cli", "parse_input", "cli.parse_input"),
    ("polyhodge.cli", "build_complex", "cli.build_complex"),
    ("polyhodge.cli", "cmd_hstar", "cli.command"),
    ("polyhodge.cli", "cmd_gpoly", "cli.command"),
    ("polyhodge.cli", "cmd_invariants", "cli.command"),
    ("polyhodge.cli", "cmd_hodge", "cli.command"),
    ("polyhodge.cli", "cmd_intersection", "cli.command"),
    ("polyhodge.cli", "cmd_stringy", "cli.command"),
    ("polyhodge.cli", "cmd_nearby", "cli.command"),
    ("polyhodge.cli", "cmd_dk_check", "cli.command"),
    ("polyhodge.cli", "cmd_verify", "cli.command"),
    ("polyhodge.polytope", "LatticePolytope.convex_hull", "polytope.convex_hull"),
    ("polyhodge.polytope", "_hull_in_full_dim", "polytope.hull_build"),
    ("polyhodge.polytope", "LatticePolytope.lattice_point_count", "polytope.lattice_point_count"),
    ("polyhodge.polytope", "LatticePolytope.face_lattice", "polytope.face_lattice"),
    ("polyhodge.polytope", "LatticePolytope.dual_face_map", "polytope.dual_face_map"),
    ("polyhodge.linalg", "rref", "linalg.rref"),
    ("polyhodge.subdivision", "regular_subdivision", "subdivision.regular_subdivision"),
    ("polyhodge.subdivision", "trivial_subdivision", "subdivision.trivial_subdivision"),
    ("polyhodge.subdivision", "CellComplex.__init__", "subdivision.complex_init"),
    ("polyhodge.subdivision", "CellComplex.interval_poset", "subdivision.interval_poset"),
    ("polyhodge.subdivision", "CellComplex.restrict", "subdivision.restrict"),
    ("polyhodge.poset", "g_polynomial", "poset.g_polynomial"),
    ("polyhodge.poset", "EulerianPoset.from_leq", "poset.from_leq"),
    ("polyhodge.poset", "link_h_polynomial", "poset.link_h_polynomial"),
    ("polyhodge.laurent", "LaurentPoly.__mul__", "laurent.mul"),
    ("polyhodge.laurent", "LaurentPoly.substitute", "laurent.substitute"),
    ("polyhodge.invariants", "h_star", "invariants.h_star"),
    ("polyhodge.invariants", "local_h_star", "invariants.local_h_star"),
    ("polyhodge.invariants", "mixed_h_star", "invariants.mixed_h_star"),
    ("polyhodge.invariants", "limit_mixed_h_star", "invariants.limit_mixed_h_star"),
    ("polyhodge.invariants", "local_limit_mixed_h_star", "invariants.local_limit_mixed_h_star"),
    ("polyhodge.invariants", "refined_limit_mixed_h_star", "invariants.refined_limit_mixed_h_star"),
    ("polyhodge.hodge", "refined_E", "hodge.refined_E"),
    ("polyhodge.hodge", "nearby_fiber_E", "hodge.nearby_fiber_E"),
    ("polyhodge.hodge", "intersection_E", "hodge.intersection_E"),
    ("polyhodge.hodge", "stringy_E", "hodge.stringy_E"),
    ("polyhodge.hodge", "dk_reconstruct", "hodge.dk_reconstruct"),
    ("polyhodge.fans", "TruncatedNormalFan.__init__", "fans.TruncatedNormalFan"),
    ("polyhodge.fans", "simplicial_refinement", "fans.simplicial_refinement"),
    ("polyhodge.verify", "run_checks", "verify.run_checks"),
    ("polyhodge.generators", "instance_corpus", "generators.instance_corpus"),
)

MEMO_DICTS = (
    ("polyhodge.polytope", "_HULL_CACHE"),
    ("polyhodge.poset", "_G_CACHE"),
    ("polyhodge.subdivision", "_COMPLEX_INTERN"),
    ("polyhodge.invariants", "_H_STAR"),
    ("polyhodge.invariants", "_LOCAL_H_STAR"),
    ("polyhodge.invariants", "_MIXED"),
    ("polyhodge.invariants", "_LIMIT_MIXED"),
    ("polyhodge.invariants", "_LOCAL_LIMIT_MIXED"),
    ("polyhodge.invariants", "_REFINED"),
    ("polyhodge.hodge", "_DK_CACHE"),
)


class Recorder:
    """Spans of one command as parallel lists; index order is start order."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.stack = [-1]
        self.hull_candidates = 0

    def wrap(self, fn, name: str):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        span_name, start, end, parent, stack = (
            self.span_name, self.start, self.end, self.parent, self.stack
        )
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return wrapper

    def count_hull_candidates(self, fn):
        """Outside the span: C(#points, d) candidate facets per hull build."""

        def wrapper(d, pts):
            if d > 0:
                self.hull_candidates += comb(len(set(pts)), d)
            return fn(d, pts)

        return wrapper

    def columns(self) -> dict:
        """Spans as columns; times in integer ns after the first span starts."""
        t0 = self.start[0] if self.start else 0.0
        return {
            "t0_s": t0,
            "name": self.span_name,
            "start_ns": [round((t - t0) * 1e9) for t in self.start],
            "end_ns": [round((t - t0) * 1e9) for t in self.end],
            "parent": self.parent,
        }

    def aggregate(self) -> dict:
        """Per span name: calls, self_s and s (outermost calls, inclusive)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "self_s": 0.0, "s": 0.0} for name in self.names}
        # Walk spans in start order keeping the open chain and how often each
        # name occurs on it; a span is outermost when its name is not open.
        chain: list[int] = []
        open_count = [0] * len(self.names)
        for i in range(n):
            while chain and chain[-1] != self.parent[i]:
                open_count[self.span_name[chain.pop()]] -= 1
            nid = self.span_name[i]
            agg = out[self.names[nid]]
            agg["calls"] += 1
            agg["self_s"] += dur[i] - child[i]
            if not open_count[nid]:
                agg["s"] += dur[i]
            chain.append(i)
            open_count[nid] += 1
        return out


def _original(module, path):
    """The function at ``module.path``, or None if the program no longer has it."""
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    raw = vars(owner).get(parts[-1]) if owner is not None else None
    return raw.__func__ if isinstance(raw, staticmethod) else raw


def install(rec: Recorder) -> list[str]:
    """Replace every reference to each target function by its wrapper.

    Returns the targets this version of the program no longer has; their
    metrics read 0 instead of failing the run.
    """
    import polyhodge.cli  # noqa: F401  (imports every module of the package)

    modules = {
        name: mod for name, mod in sys.modules.items()
        if name == "polyhodge" or name.startswith("polyhodge.")
    }
    replace, missing = {}, []
    for mod_name, path, span in TARGETS:
        fn = _original(modules[mod_name], path) if mod_name in modules else None
        if not callable(fn):
            missing.append(f"{mod_name}:{path}")
            continue
        wrapped = rec.wrap(fn, span)
        if path == "_hull_in_full_dim":
            wrapped = rec.count_hull_candidates(wrapped)
        replace[id(fn)] = (fn, wrapped)

    def swap(value):
        hit = replace.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else None

    classes = {
        id(v): v for mod in modules.values() for v in vars(mod).values()
        if isinstance(v, type) and v.__module__.startswith("polyhodge")
    }
    for ns in [*modules.values(), *classes.values()]:
        for attr, value in list(vars(ns).items()):
            static = isinstance(value, staticmethod)
            wrapped = swap(value.__func__ if static else value)
            if wrapped is not None:
                setattr(ns, attr, staticmethod(wrapped) if static else wrapped)
    dispatch = getattr(modules["polyhodge.cli"], "_COMMANDS", {})
    for key, fn in list(dispatch.items()):
        dispatch[key] = swap(fn) or fn
    return missing


def memo_sizes() -> dict:
    """Entries of each memo dict the program still has (read only)."""
    sizes = {}
    for mod_name, name in MEMO_DICTS:
        memo = getattr(sys.modules.get(mod_name), name, None)
        if isinstance(memo, dict):
            sizes[name.lstrip("_")] = len(memo)
    return sizes


def main(argv: list[str]) -> int:
    out_path, command_id, cli_args = argv[0], int(argv[1]), argv[2:]
    rec = Recorder()
    missing = install(rec)
    before = memo_sizes()
    code = sys.modules["polyhodge.cli"].main(cli_args)
    sys.stdout.flush()
    post_start = time.perf_counter()
    after = memo_sizes()
    record = {
        "command_id": command_id,
        "argv": cli_args,
        "exit_code": code,
        "untraced_targets": missing,
        "aggregates": rec.aggregate(),
        "hull_candidates": rec.hull_candidates,
        "memo_new_entries": {k: after[k] - before[k] for k in after if k in before},
        "names": rec.names,
        "spans": rec.columns(),
    }
    with gzip.open(out_path, "wt", compresslevel=1) as fh:
        json.dump(record, fh)
    with open(out_path + ".post", "w") as fh:
        fh.write(repr(time.perf_counter() - post_start))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
