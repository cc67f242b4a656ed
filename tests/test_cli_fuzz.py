"""Hypothesis fuzz of the CLI on malformed and valid JSON input.

Every input must end in a documented exit code (0 success, 1 input error,
2 computation error, 3 verification failure) with no traceback.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings, strategies as st

from polyhodge import cli

COORD = st.integers(-3, 3)
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.lists(COORD, max_size=2),
    st.lists(st.lists(COORD, max_size=2), max_size=2),
    st.dictionaries(st.text(max_size=2), COORD, max_size=1),
)
HEIGHT = st.one_of(COORD, st.sampled_from(["1/2", "-3/4", "x", "1/0", ""]), JUNK)
# Short primitive vectors, so that some subfan rays are rays of the fan.
RAYS = {
    0: [[]],
    1: [[1], [-1]],
    2: [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, -1], [1, -1], [-1, 1]],
}
CORRUPTIONS = (
    "dim", "points", "entry", "coords", "height", "missing", "subfan", "refinement",
)


@st.composite
def cli_inputs(draw):
    """A valid input, or one with a single field corrupted."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.one_of(JUNK, st.lists(JUNK, max_size=2)))  # non-object top
    dim = draw(st.integers(0, 2))
    point = st.lists(COORD, min_size=dim, max_size=dim)
    points = [{"coords": c} for c in draw(st.lists(point, min_size=1, max_size=6))]
    if draw(st.booleans()):
        for entry in points:
            entry["height"] = draw(st.integers(0, 3))
    data = {"dim": dim, "points": points}
    if draw(st.booleans()):
        cones = draw(st.lists(st.lists(st.sampled_from(RAYS[dim]), max_size=2), max_size=4))
        data["subfan"] = [[]] + [
            {"rays": c} if draw(st.booleans()) else c for c in cones
        ]
        if draw(st.booleans()):
            data["refinement"] = [
                {"rays": c, "sigma": draw(st.sampled_from([i + 1, i + 1, True, "1", -1, 9]))}
                for i, c in enumerate(cones)
                if len(c) == 1
            ]
    corruption = draw(st.sampled_from((None,) * len(CORRUPTIONS) + CORRUPTIONS))
    if corruption in ("dim", "points", "subfan", "refinement"):
        data[corruption] = draw(JUNK)
    elif corruption == "missing":
        del data[draw(st.sampled_from(["dim", "points"]))]
    elif corruption == "entry":
        points[draw(st.integers(0, len(points) - 1))] = draw(JUNK)
    elif corruption == "coords":
        points[draw(st.integers(0, len(points) - 1))]["coords"] = draw(JUNK)
    elif corruption == "height":
        points[draw(st.integers(0, len(points) - 1))]["height"] = draw(HEIGHT)
    return data


@settings(max_examples=40, deadline=None)
@given(data=cli_inputs(), command=st.sampled_from(["hstar", "nearby", "hodge"]))
def test_cli_never_raises_on_fuzzed_input(tmp_path_factory, data, command):
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([command, str(path)])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code in (1, 2):
        assert err.getvalue().startswith(("input error: ", "computation error: "))
    assert (code in (0, 3)) == (out.getvalue() != ""), err.getvalue()
