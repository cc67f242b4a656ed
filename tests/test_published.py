"""Values from the literature, read off the CLI's output.

The golden tests pin digests of the program's own output: they catch a
change but cannot tell a right value from a wrong one.  Each value here is a
Hodge number from a cited paper, read off `stringy` or `hodge` on a file.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from polyhodge import cli, memo
from polyhodge.laurent import LaurentPoly

DATA = Path(__file__).parent / "data"


def simplex_points(d, n, shift=0):
    """The vertices of d * Delta_n, moved by -(shift, ..., shift)."""
    pts = [(0,) * n] + [tuple(d if j == i else 0 for j in range(n)) for i in range(n)]
    return [tuple(c - shift for c in p) for p in pts]


def cli_result(tmp_path, command, name, points=None):
    """A command's JSON results on tests/data/<name>, or on the given points."""
    path = DATA / name
    if points is not None:
        path = tmp_path / name
        coords = [{"coords": p} for p in points]
        path.write_text(json.dumps({"dim": len(points[0]), "points": coords}))
    memo.clear()
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main([command, str(path)]) == 0
    return json.loads(buf.getvalue())["results"]


def poly(results, name):
    return LaurentPoly.from_json_obj(results[name]["terms"])


def h11_h21(e_st):
    """h^{1,1} and -h^{2,1} of a Calabi-Yau threefold from its stringy E:
    the coefficients of u*v*w^2 and u*v^2*w^3."""
    return e_st.coeff({"u": 1, "v": 1, "w": 2}), e_st.coeff({"u": 1, "v": 2, "w": 3})


QUINTIC = simplex_points(5, 4, shift=1)
QUINTIC_MIRROR = [tuple(1 if j == i else 0 for j in range(4)) for i in range(4)] + [(-1,) * 4]
CROSS4 = [tuple(s if j == i else 0 for j in range(4)) for i in range(4) for s in (1, -1)]


@pytest.mark.parametrize(
    "name, points, expected",
    [
        # The quintic threefold in P^4: h^{1,1} = 1, h^{2,1} = 101 (Candelas,
        # de la Ossa, Green and Parkes, Nucl. Phys. B 359, 1991), and the
        # reverse on its mirror, the dual simplex.
        ("quintic.json", QUINTIC, (1, -101)),
        ("quintic_mirror.json", QUINTIC_MIRROR, (101, -1)),
        # The tetraquadric in (P^1)^4, from [-1, 1]^4: h^{1,1} = 4,
        # h^{2,1} = 68, and the reverse on the mirror from the 4-cross-polytope
        # (Batyrev, J. Alg. Geom. 3, 1994).
        ("cube4.json", None, (4, -68)),
        ("cross4.json", CROSS4, (68, -4)),
    ],
)
def test_stringy_hodge_numbers_of_calabi_yau_threefolds(tmp_path, name, points, expected):
    assert h11_h21(poly(cli_result(tmp_path, "stringy", name, points), "stringy_E")) == expected


def test_stringy_e_of_the_quartic_k3(tmp_path):
    # The quartic K3 surface in P^3, from 4 * Delta_3 - (1, 1, 1): the
    # h^{1,1} = 20 of every K3 surface (Barth, Hulek, Peters and Van de Ven,
    # Compact Complex Surfaces, 2nd ed. 2004, chapter VIII).
    results = cli_result(tmp_path, "stringy", "quartic.json", simplex_points(4, 3, shift=1))
    e_st = poly(results, "stringy_E")
    assert e_st.coeff({"u": 1, "v": 1, "w": 2}) == 20
    assert str(e_st) == "1 + v^2*w^2 + 20*u*v*w^2 + u^2*w^2 + u^2*v^2*w^4"


@pytest.mark.parametrize("d", [3, 4, 5])
def test_a_plane_curve_of_degree_d_has_genus_d_minus_1_choose_2(tmp_path, d):
    # A smooth plane curve of degree d, from d * Delta_2, has genus
    # g = (d - 1)(d - 2)/2 (Hartshorne, Algebraic Geometry, Ex. I.7.2).  Its
    # part in the torus misses 3d points, so its Hodge-Deligne polynomial in
    # (u, w) is u*w - g*u - g*w + 1 - 3d (Danilov and Khovanskii, Math. USSR
    # Izv. 29, 1987).
    e = poly(cli_result(tmp_path, "hodge", f"tri{d}.json", simplex_points(d, 2)), "hodge_deligne")
    g = (d - 1) * (d - 2) // 2
    assert e.coeff({"u": 1}) == e.coeff({"w": 1}) == -g
