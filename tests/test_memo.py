import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polyhodge
from polyhodge import invariants as inv, memo
from polyhodge.polytope import LatticePolytope
from polyhodge.subdivision import HeightFunction, regular_subdivision, trivial_subdivision
from polyhodge.verify import run_checks

from conftest import quartic_triangle_pair
from test_invariants import QUARTIC_REFINED

# Runs in a fresh interpreter, so no earlier test has warmed any cache: every
# module-level dict of every polyhodge module that grows while the quartic is
# verified is reported, with whether it is a registered memo table.
GROWTH_PROBE = """
import json, sys
import polyhodge
from polyhodge import memo
from polyhodge.verify import run_checks
from conftest import quartic_triangle_pair

def module_dicts():
    return {
        f"{mod}.{name}": value
        for mod, module in list(sys.modules.items())
        if mod == "polyhodge" or mod.startswith("polyhodge.")
        for name, value in vars(module).items()
        if isinstance(value, dict)
    }

before = {k: len(v) for k, v in module_dicts().items()}
run_checks(quartic_triangle_pair())
registered = [id(t) for t in memo.TABLES.values()]
print(json.dumps({
    name: id(d) in registered
    for name, d in module_dicts().items()
    if len(d) > before.get(name, 0)
}))
"""


def test_only_registered_memo_tables_grow():
    src = str(Path(polyhodge.__file__).parents[1])
    tests = str(Path(__file__).parent)
    proc = subprocess.run(
        [sys.executable, "-c", GROWTH_PROBE],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": os.pathsep.join((src, tests))},
    )
    grown = json.loads(proc.stdout)
    assert grown, "verifying the quartic filled no table"
    assert [name for name, registered in grown.items() if not registered] == []


def test_clear_empties_every_table_and_values_recompute():
    s = quartic_triangle_pair()
    inv.refined_limit_mixed_h_star(s)
    assert memo.TABLES["TOWER"]
    memo.clear()
    assert set(memo.TABLES) == {
        "HULL_CACHE", "FACE_LATTICE", "COMPLEX_INTERN", "BOX", "VOLUME", "COUNT", "H_STAR",
        "LOCAL_H_STAR", "MIXED", "TOWER", "DK_CACHE", "TORUS", "HODGE_DELIGNE_UV",
        "NEARBY_FIBER_E",
    }
    assert all(len(t) == 0 for t in memo.TABLES.values())
    assert inv.refined_limit_mixed_h_star(quartic_triangle_pair()) == QUARTIC_REFINED
    assert memo.TABLES["TOWER"]


@pytest.mark.xfail(
    strict=True,
    reason="CellComplex.interned writes the heights of a later regular "
    "subdivision onto the shared trivial complex",
)
def test_trivial_subdivision_checks_do_not_depend_on_later_subdivisions():
    memo.clear()
    p = LatticePolytope.convex_hull([(0, 0), (2, 0), (0, 2), (2, 2)])
    before = [c.name for c in run_checks(trivial_subdivision(p))]
    regular_subdivision(HeightFunction(p, {v: v[0] for v in p.vertices}))
    after = [c.name for c in run_checks(trivial_subdivision(p))]
    assert after == before
