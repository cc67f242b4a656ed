"""Seeded inputs, command lists and output checks of the benchmark workloads.

A workload is a list of CLI commands over JSON input files that this module
writes.  Each command is run by ``run.py`` in a fresh process.  The same seed
always gives the same files, and every check here reads only the command's
own stdout, so the program under test is never imported by the benchmark
process itself.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass

# Acceptance corpus of the project's test suite: instance_corpus(20240, 25).
VERIFY_CORPUS_SEED = 20240
VERIFY_CORPUS_SIZE = 25


@dataclass(frozen=True)
class Command:
    label: str  # stable name of the command within its workload
    argv: tuple  # CLI arguments after ``python -m polyhodge.cli``
    instances: int  # (P, S) instances the command processes


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: tuple  # input file paths, parsed by the set-up measurement
    commands: tuple


def _dump(path: str, dim: int, points) -> str:
    """Write an input file; ``points`` yields (coords, height or None)."""
    entries = []
    for coords, height in points:
        entry = {"coords": list(coords)}
        if height is not None:
            entry["height"] = height
        entries.append(entry)
    with open(path, "w") as fh:
        json.dump({"dim": dim, "points": entries}, fh)
    return path


def _dilated_simplex(k: int, d: int):
    return [p for p in itertools.product(range(k + 1), repeat=d) if sum(p) <= k]


def unimodular_map(rng: random.Random, d: int) -> list[list[int]]:
    """A signed permutation followed by one elementary shear x_i += s x_j.

    Entries stay in {-1, 0, 1} with one shear, so the bounding box that
    lattice-point enumeration scans grows by the same factor for every seed.
    """
    perm = list(range(d))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(d)]
    m = [[signs[i] if perm[i] == j else 0 for j in range(d)] for i in range(d)]
    if d >= 2:
        i, j = rng.sample(range(d), 2)
        s = rng.choice((1, -1))
        m[i] = [m[i][c] + s * m[j][c] for c in range(d)]
    return m


def _apply(m, p):
    return tuple(sum(row[j] * p[j] for j in range(len(p))) for row in m)


def subdivide(tmp: str, seed: int) -> Workload:
    rng = random.Random(seed)
    inputs = []
    for k, d in ((8, 2), (3, 3)):
        pts = _dilated_simplex(k, d)
        heights = [7 * sum(c * c for c in p) + rng.randint(0, 3) for p in pts]
        path = os.path.join(tmp, f"simplex{k}x{d}.json")
        inputs.append(_dump(path, d, zip(pts, heights)))
    commands = tuple(
        Command(f"hodge:{os.path.basename(p)}", ("hodge", p), 1) for p in inputs
    )
    return Workload("subdivide", tuple(inputs), commands)


def verify_corpus(tmp: str, seed: int) -> Workload:
    rng = random.Random(seed)
    # The quartic triangle with three interior points at height 0, moved by a
    # seeded unimodular map; the random corpus is the pinned acceptance corpus.
    base = [((0, 0), 1), ((4, 0), 1), ((0, 4), 1), ((1, 1), 0), ((2, 1), 0), ((1, 2), 0)]
    m = unimodular_map(rng, 2)
    path = _dump(
        os.path.join(tmp, "quartic.json"), 2, [(_apply(m, p), h) for p, h in base]
    )
    argv = (
        "verify", path,
        "--random", str(VERIFY_CORPUS_SIZE), "--seed", str(VERIFY_CORPUS_SEED),
    )
    commands = (Command("verify:quartic.json", argv, VERIFY_CORPUS_SIZE),)
    return Workload("verify_corpus", (path,), commands)


def reflexive4(tmp: str, seed: int) -> Workload:
    rng = random.Random(seed)
    cross = [tuple(s * (i == k) for k in range(4)) for i in range(4) for s in (1, -1)]
    cube = list(itertools.product((-1, 1), repeat=4))
    inputs = []
    for name, pts in (("cross4", cross), ("cube4", cube)):
        m = unimodular_map(rng, 4)
        path = os.path.join(tmp, f"{name}.json")
        inputs.append(_dump(path, 4, [(_apply(m, p), None) for p in pts]))
    cross_path, cube_path = inputs
    commands = tuple(
        Command(f"{cmd}:{os.path.basename(p)}", (cmd, p), 1)
        for p, cmds in (
            (cross_path, ("stringy", "dk-check", "intersection")),
            (cube_path, ("stringy", "dk-check")),
        )
        for cmd in cmds
    )
    return Workload("reflexive4", tuple(inputs), commands)


BUILDERS = {"subdivide": subdivide, "verify_corpus": verify_corpus, "reflexive4": reflexive4}


# -- output checks -------------------------------------------------------------


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _is_poly(value) -> bool:
    return isinstance(value, dict) and "terms" in value


def seed_invariant_view(workload: str, report: dict):
    """The part of a report that must be identical for every seed.

    subdivide: invariants of P alone (P is fixed, only the heights move).
    verify_corpus: every check; the corpus is pinned and the base instance
    only moves by a unimodular map.  reflexive4: every result polynomial and
    check, since unimodular maps preserve all invariants.
    """
    results = report.get("results", {})
    if workload == "subdivide":
        keep = ("hodge_deligne", "chi_y", "euler_characteristic")
        return {k: results.get(k) for k in keep}
    if workload == "verify_corpus":
        return report.get("checks")
    return {
        "results": {k: v for k, v in results.items() if _is_poly(v)},
        "checks": report.get("checks"),
    }


def _at_w_one(terms) -> dict:
    out: dict = {}
    for term in terms:
        e = list(term["exponents"])
        e[2] = 0
        key = tuple(e)
        out[key] = out.get(key, 0) + int(term["coeff"])
    return {k: c for k, c in out.items() if c}


def relation_errors(workload: str, report: dict) -> list[str]:
    """Identities between the fields of one report that hold for any seed."""
    if workload != "subdivide":
        return []
    results = report.get("results", {})
    refined = _at_w_one(results["refined_E"]["terms"])
    nearby = _at_w_one(results["nearby_fiber_E"]["terms"])
    return [] if refined == nearby else ["refined_E at w=1 != nearby_fiber_E"]


def check_output(workload: str, returncode: int, stdout: bytes, stderr: bytes,
                 reference: dict | None) -> list[str]:
    """Reasons the command counts as failed; empty when it succeeded.

    ``reference`` holds the recorded digests of this command, or None when
    none were recorded yet.  ``stdout_sha256`` is compared only when present,
    that is on the pinned seed.
    """
    errors = []
    if returncode != 0:
        errors.append(f"exit code {returncode}")
    if b"Traceback" in stderr:
        errors.append("traceback on stderr")
    try:
        report = json.loads(stdout)
    except ValueError:
        return errors + ["stdout is not JSON"]
    if any(c.get("status") == "fail" for c in report.get("checks", [])):
        errors.append("a check failed")
    try:
        errors += relation_errors(workload, report)
    except (KeyError, TypeError, ValueError) as exc:
        errors.append(f"malformed results: {exc!r}")
    if reference is not None:
        if _digest(seed_invariant_view(workload, report)) != reference["invariant_sha256"]:
            errors.append("seed-invariant results differ from the reference")
        expected = reference.get("stdout_sha256")
        if expected is not None and hashlib.sha256(stdout).hexdigest() != expected:
            errors.append("stdout differs from the pinned-seed reference")
    return errors


def reference_entry(workload: str, stdout: bytes) -> dict:
    """Digests of one command's output on the pinned seed."""
    return {
        "invariant_sha256": _digest(seed_invariant_view(workload, json.loads(stdout))),
        "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
    }
