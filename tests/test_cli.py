import hashlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import polyhodge
from polyhodge import cli, hodge, memo
from polyhodge.fans import TruncatedNormalFan, identity_refinement, simplicial_refinement
from polyhodge.laurent import LaurentPoly
from polyhodge.polytope import FaceLattice, LatticePolytope

from conftest import cross_polytope, cube

DATA = Path(__file__).parent / "data"
CONCRETE = str(DATA / "concrete_curve.json")


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def write_input(tmp_path, obj, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_parse_worked_example():
    parsed = cli.parse_input(CONCRETE)
    assert parsed.polytope.vertices == ((0, 0), (0, 4), (4, 0))
    s = cli.build_complex(parsed)
    assert len(s.maximal_cells) == 4


def test_parse_vertices_only_gives_trivial_subdivision(tmp_path):
    path = write_input(
        tmp_path,
        {"dim": 2, "points": [{"coords": [0, 0]}, {"coords": [2, 0]}, {"coords": [0, 2]}]},
    )
    parsed = cli.parse_input(path)
    assert parsed.height_fn is None
    s = cli.build_complex(parsed)
    assert len(s.maximal_cells) == 1


def test_parse_rejects_rational_coordinates(tmp_path):
    path = write_input(
        tmp_path,
        {"dim": 2, "points": [{"coords": [0, 0]}, {"coords": [1.5, 0]}, {"coords": [0, 1]}]},
    )
    code, _ = run_cli(["hstar", path])
    assert code == 1


def test_parse_rejects_bad_schema(tmp_path):
    for bad in (
        {"points": []},
        {"dim": 2, "points": "nope"},
        {"dim": 2, "points": [{"coords": [1]}]},
        {"dim": 2, "points": [{"coords": [0, 0], "height": 1.25}]},
    ):
        path = write_input(tmp_path, bad)
        code, _ = run_cli(["hstar", path])
        assert code == 1
    code, _ = run_cli(["hstar", str(tmp_path / "missing.json")])
    assert code == 1


def test_parse_rejects_bool_dim(tmp_path, capsys):
    # true is an int in Python; it must not be read as dim 1.
    path = write_input(tmp_path, {"dim": True, "points": [{"coords": [0]}, {"coords": [2]}]})
    for command in (
        "hstar", "gpoly", "invariants", "hodge", "intersection",
        "stringy", "nearby", "dk-check", "verify",
    ):
        code, out = run_cli([command, path])
        assert (command, code, out) == (command, 1, "")
        assert "dim must be a nonnegative integer" in capsys.readouterr().err


def test_hodge_command_on_worked_example():
    code, out = run_cli(["hodge", CONCRETE])
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 1
    e = LaurentPoly.from_json_obj(report["results"]["refined_E"]["terms"])
    from polyhodge.laurent import U, V, W

    assert e == -11 - 3 * (1 + U * V) * W + U * V * W**2
    assert report["results"]["euler_characteristic"] == "-16"
    assert report["results"]["nearby_fiber_class"]["pretty"] == "-14 - 2*L"
    assert report["tables"]["refined_hodge_numbers"] == {
        "0,0,0": "9",
        "0,0,1": "3",
        "1,1,1": "3",
    }


def test_output_is_deterministic():
    code1, out1 = run_cli(["invariants", CONCRETE])
    code2, out2 = run_cli(["invariants", CONCRETE])
    assert code1 == code2 == 0
    assert out1 == out2


def test_polynomials_round_trip_through_schema():
    _, out = run_cli(["invariants", CONCRETE])
    report = json.loads(out)
    for value in report["results"].values():
        if isinstance(value, dict) and "terms" in value:
            p = LaurentPoly.from_json_obj(value["terms"])
            assert p.to_json_obj() == value["terms"]


def test_verify_on_unimodular_simplex(tmp_path):
    path = write_input(
        tmp_path,
        {"dim": 2, "points": [{"coords": [0, 0]}, {"coords": [1, 0]}, {"coords": [0, 1]}]},
    )
    code, out = run_cli(["verify", path])
    assert code == 0
    report = json.loads(out)
    assert report["checks"]
    assert all(c["status"] != "fail" for c in report["checks"])


def test_verify_with_random_instances(tmp_path):
    path = write_input(
        tmp_path,
        {"dim": 1, "points": [{"coords": [0]}, {"coords": [2]}]},
    )
    code, out = run_cli(["verify", path, "--random", "2", "--seed", "5"])
    assert code == 0
    report = json.loads(out)
    assert any(c["name"].startswith("random[") for c in report["checks"])


@pytest.mark.parametrize(
    "error, message",
    [(ValueError("boom"), "boom"), (KeyError(7), "KeyError: 7")],
    ids=["ValueError", "KeyError"],
)
def test_an_error_in_a_random_instance_names_the_instance_and_the_seed(
    monkeypatch, capsys, error, message
):
    # The input's own checks are call 1, so random[1] is call 3.
    calls = []

    def run_checks(s):
        calls.append(s)
        if len(calls) == 3:
            raise error
        return []

    monkeypatch.setattr(cli, "run_checks", run_checks)
    assert run_cli(["verify", CONCRETE, "--random", "3", "--seed", "7"]) == (2, "")
    assert capsys.readouterr().err == f"computation error: random[1] (seed 7): {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["hstar", CONCRETE, "--max-dilation", "20"], "--max-dilation must be in 0..12, got 20"),
        (["hstar", CONCRETE, "--max-dilation", "-3"], "--max-dilation must be in 0..12, got -3"),
        (["verify", CONCRETE, "--random", "-4"], "--random must be >= 0, got -4"),
    ],
)
def test_count_flags_out_of_range_are_rejected(argv, message, capsys, monkeypatch):
    # Rejected before the input is read, rather than clamped or ignored.
    def unreachable(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(cli, "parse_input", unreachable)
    assert run_cli(argv) == (1, "")
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_count_flags_at_their_bounds_are_accepted():
    code, out = run_cli(["hstar", CONCRETE, "--max-dilation", "12"])
    assert code == 0
    assert list(json.loads(out)["tables"]["ehrhart"]) == [str(m) for m in range(13)]
    code, out = run_cli(["hstar", CONCRETE, "--max-dilation", "0"])
    assert (code, json.loads(out)["tables"]["ehrhart"]) == (0, {"0": "1"})
    code, out = run_cli(["verify", CONCRETE, "--random", "0"])
    assert code == 0
    assert not any(c["name"].startswith("random[") for c in json.loads(out)["checks"])


def test_dk_check_command():
    code, out = run_cli(["dk-check", CONCRETE])
    assert code == 0
    report = json.loads(out)
    assert report["checks"][0]["status"] == "pass"
    assert report["results"]["refined_E"] == report["results"]["reconstructed_E"]


def test_stringy_command(tmp_path, monkeypatch):
    calls = []
    stringy_E = hodge.stringy_E
    monkeypatch.setattr(hodge, "stringy_E", lambda s: calls.append(s) or stringy_E(s))
    path = write_input(
        tmp_path,
        {
            "dim": 2,
            "points": [
                {"coords": [1, 1]},
                {"coords": [1, -1]},
                {"coords": [-1, 1]},
                {"coords": [-1, -1]},
            ],
        },
    )
    code, out = run_cli(["stringy", path])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["stringy_E"]["pretty"] == "1 - v*w - u*w + u*v*w^2"
    assert report["results"]["stringy_E_generic"]["pretty"] == "1 - w - u + u*w"
    assert len(calls) == 1


def test_stringy_rejects_non_reflexive(tmp_path, capsys):
    path = write_input(
        tmp_path,
        {"dim": 2, "points": [{"coords": [0, 0]}, {"coords": [1, 0]}, {"coords": [0, 1]}]},
    )
    assert run_cli(["stringy", path]) == (1, "")
    err = capsys.readouterr().err
    assert err == f"input error: {path}: stringy E requires a reflexive polytope\n"


def test_stringy_sees_a_reflexive_polytope_in_a_larger_lattice(tmp_path):
    # The square [-1, 1]^2 at z = 0 in Z^3, and the segment from (-1, -1) to
    # (1, 1) in Z^2: each is reflexive in the lattice of its span, so each
    # gives the stringy output of the same polytope given in its own lattice.
    def points(*coords):
        return {"dim": len(coords[0]), "points": [{"coords": c} for c in coords]}

    cases = [
        (
            str(DATA / "square_in_space.json"),
            write_input(tmp_path, points([-1, -1], [-1, 1], [1, -1], [1, 1]), "square.json"),
        ),
        (
            write_input(tmp_path, points([-1, -1], [1, 1]), "diagonal.json"),
            write_input(tmp_path, points([-1], [1]), "segment.json"),
        ),
    ]
    for embedded, full in cases:
        code, out = run_cli(["stringy", embedded])
        assert code == 0, embedded
        assert json.loads(out)["results"] == json.loads(run_cli(["stringy", full])[1])["results"]


def test_a_closed_stdout_ends_quietly():
    # The reader of stdout is gone before the command writes a byte.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "polyhodge.cli", "gpoly", CONCRETE, "--format", "text"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={"PYTHONPATH": str(Path(polyhodge.__file__).parents[1])},
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr and "BrokenPipe" not in proc.stderr
    assert proc.returncode == 0


def test_the_cli_does_not_import_dataclasses():
    # dataclasses imports inspect, ast, dis and tokenize, a cost that every
    # CLI process would pay at start-up.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, polyhodge.cli; print('dataclasses' in sys.modules)"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(Path(polyhodge.__file__).parents[1])},
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n")


def test_input_without_heights_loads_no_fractions():
    # fractions imports numbers and decimal, about 5 ms of every CLI
    # process's start-up; only heights and random instances need it.
    script = (
        "import contextlib, io, sys\n"
        "import polyhodge.cli\n"
        "loaded = lambda: [m for m in ('fractions', 'decimal', 'numbers') if m in sys.modules]\n"
        "print(loaded())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = polyhodge.cli.main(['stringy', sys.argv[1]])\n"
        "print(code, loaded())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(DATA / "cube4.json")],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(Path(polyhodge.__file__).parents[1])},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n0 []\n", "")
    # A profiler that runs the CLI as a module still gets to print its stats.
    proc = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "polyhodge.cli", "hstar", CONCRETE],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(Path(polyhodge.__file__).parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("{\n")
    assert re.search(r"ncalls +tottime +percall +cumtime +percall", proc.stdout)


# Adds 1 to dk-check's direct side, refined E, which nothing else in the
# command reads, so that its one check fails.
_BREAK_REFINED_E = "hodge.refined_E = lambda s, f=hodge.refined_E: f(s) + 1\n"


def _fresh_process(argv, stdout=subprocess.PIPE, fault=False):
    """(stdout bytes, stderr, exit code) of the command in a new interpreter,
    run as ``python -m polyhodge.cli``, or with ``fault`` through
    ``cli.entry`` after breaking dk-check's direct side."""
    if fault:
        script = "from polyhodge import cli, hodge\n" + _BREAK_REFINED_E + "cli.entry()\n"
        head = [sys.executable, "-c", script]
    else:
        head = [sys.executable, "-m", "polyhodge.cli"]
    proc = subprocess.run(
        [*head, *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env={"PYTHONPATH": str(Path(polyhodge.__file__).parents[1])},
    )
    return proc.stdout, proc.stderr.decode(), proc.returncode


def _in_process(argv, capsys):
    """(stdout bytes, stderr, exit code) of ``main(argv)`` on cold memo tables."""
    memo.clear()
    capsys.readouterr()
    try:
        code, out = run_cli(argv)
    except SystemExit as exc:  # argparse
        code, out = exc.code, ""
    return out.encode(), capsys.readouterr().err, code


_PARITY_CASES = [
    *([command, CONCRETE] for command in cli._COMMANDS),  # stringy: not reflexive, exit 1
    ["stringy", str(DATA / "square_in_space.json"), "--format", "text"],
    ["hodge", str(DATA / "cross4_refinement.json"), "--format", "text"],
    ["verify", str(DATA / "reeve5.json")],
    ["hstar", str(DATA / "no_such_input.json")],  # exit 1
    ["hstar", CONCRETE, "--max-dilation", "x"],  # argparse, exit 2
]


@pytest.mark.parametrize("argv", _PARITY_CASES, ids=lambda argv: " ".join(Path(a).name for a in argv))
def test_a_fresh_process_prints_what_main_returns(argv, capsys):
    assert _fresh_process(argv) == _in_process(argv, capsys)


def test_a_fresh_process_reports_a_computation_error_as_main_does(tmp_path, capsys):
    # The triangle of test_unexpected_exceptions_exit_2_without_traceback.
    points = [{"coords": [0, 0]}, {"coords": [10**30, 0]}, {"coords": [0, 10**30]}]
    argv = ["hodge", write_input(tmp_path, {"dim": 2, "points": points})]
    fresh = _fresh_process(argv)
    assert fresh == _in_process(argv, capsys)
    assert fresh[2] == 2 and fresh[1].startswith("computation error: OverflowError: ")


def test_a_failed_check_exits_3_through_the_entry_point(capsys, monkeypatch):
    argv = ["dk-check", CONCRETE, "--format", "text"]
    fresh = _fresh_process(argv, fault=True)
    refined_E = hodge.refined_E
    monkeypatch.setattr(hodge, "refined_E", lambda s: refined_E(s) + 1)
    assert fresh == _in_process(argv, capsys)
    assert fresh[2] == 3 and b"check reconstruction_matches: fail" in fresh[0]


def test_a_report_larger_than_a_pipe_buffer_reaches_a_file_whole(tmp_path, capsys):
    # Sent to a file, stdout is block-buffered, so a final flush that the
    # exit skipped would cut the report short.
    argv = ["verify", CONCRETE, "--random", "25", "--seed", "7"]
    path = tmp_path / "report.json"
    with open(path, "wb") as fh:
        _, err, code = _fresh_process(argv, stdout=fh)
    out = path.read_bytes()
    assert len(out) > 65536
    assert (out, err, code) == _in_process(argv, capsys)
    json.loads(out)


# A fresh interpreter runs one command, then says whether OpenSSL's hashlib
# binding was loaded that was not there at start.
_HASHLIB_PROBE = (
    "import sys\n"
    "preloaded = '_hashlib' in sys.modules\n"
    "from polyhodge import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "print(code, '_hashlib' in sys.modules and not preloaded, file=sys.stderr)\n"
)


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_no_command_loads_openssl_for_the_input_hash(command):
    # hashlib maps OpenSSL's libcrypto, 1.3-3.6 MB of RSS in every CLI
    # process; the input hash takes CPython's built-in SHA-256 instead.
    # pytest and hypothesis import hashlib, so this cannot run in-process.
    argv = [command, str(DATA / "square_in_space.json")]
    if command == "verify":
        argv += ["--random", "2"]
    proc = subprocess.run(
        [sys.executable, "-c", _HASHLIB_PROBE, *argv],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(Path(polyhodge.__file__).parents[1])},
    )
    assert (proc.returncode, proc.stderr) == (0, "0 False\n")


@given(st.binary(max_size=300))
@example(b"")
@example(bytes(55))  # the longest message padded within one 64-byte block
@example(bytes(56))
@example(bytes(64))
def test_input_hash_of_any_bytes_is_their_sha256(data):
    assert cli.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


DATA_FILES = sorted(str(path) for path in DATA.glob("*.json"))


def test_input_hash_of_every_data_file_is_the_sha256_of_its_bytes():
    for path in DATA_FILES:
        memo.clear()
        code, out = run_cli(["gpoly", path])
        assert code == 0, path
        assert json.loads(out)["input_hash"] == hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_input_hash_falls_back_to_hashlib_with_the_same_digest():
    # With neither built-in SHA-256 module importable, the CLI takes hashlib's.
    script = (
        "import contextlib, hashlib, io, json, sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from polyhodge import cli\n"
        "assert cli.sha256 is hashlib.sha256\n"
        "digests = []\n"
        "for path in sys.argv[1:]:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        assert cli.main(['gpoly', path]) == 0\n"
        "    digests.append(json.loads(out.getvalue())['input_hash'])\n"
        "print(json.dumps(digests))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *DATA_FILES],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(Path(polyhodge.__file__).parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    expected = [hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in DATA_FILES]
    assert json.loads(proc.stdout) == expected


def test_intersection_command():
    code, out = run_cli(["intersection", CONCRETE])
    assert code == 0
    report = json.loads(out)
    assert report["checks"][0]["status"] == "pass"
    assert report["results"]["intersection_E"]["pretty"] == "1 - 3*w - 3*u*v*w + u*v*w^2"


def test_gpoly_and_hstar_commands():
    code, out = run_cli(["gpoly", CONCRETE])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["g"]["pretty"] == "1"
    assert report["results"]["intersection_lefschetz"]["pretty"] == "1 + t"
    code, out = run_cli(["hstar", CONCRETE, "--max-dilation", "3"])
    report = json.loads(out)
    assert report["tables"]["ehrhart"] == {"0": "1", "1": "15", "2": "45", "3": "91"}
    assert report["results"]["h_star"]["pretty"] == "1 + 12*u + 3*u^2"


def test_subfan_input(tmp_path):
    data = json.loads(Path(CONCRETE).read_text())
    # the zero cone alone: partial compactification equals the open E
    data["subfan"] = [{"rays": []}]
    path = write_input(tmp_path, data)
    code, out = run_cli(["hodge", path])
    assert code == 0
    report = json.loads(out)
    assert (
        report["results"]["partial_compactification_E"]
        == report["results"]["refined_E"]
    )
    # the full fan
    data["subfan"] = [
        {"rays": []},
        {"rays": [[1, 0]]},
        {"rays": [[0, 1]]},
        {"rays": [[-1, -1]]},
    ]
    path = write_input(tmp_path, data, "full.json")
    code, out = run_cli(["hodge", path])
    assert code == 0
    report = json.loads(out)
    assert (
        report["results"]["partial_compactification_E"]["pretty"]
        == "1 - 3*w - 3*u*v*w + u*v*w^2"
    )


def test_refinement_input(tmp_path):
    data = json.loads(Path(CONCRETE).read_text())
    data["subfan"] = [{"rays": []}, {"rays": [[1, 0]]}]
    data["refinement"] = [
        {"rays": [[1, 0]], "sigma": 1},
    ]
    path = write_input(tmp_path, data)
    code, out = run_cli(["hodge", path])
    assert code == 0
    # a refinement ray outside its sigma cone is rejected
    data["refinement"] = [{"rays": [[0, 1]], "sigma": 1}]
    path = write_input(tmp_path, data, "bad.json")
    code, _ = run_cli(["hodge", path])
    assert code == 1


def test_refinement_sigma_rejects_bool(tmp_path, capsys):
    data = json.loads(Path(CONCRETE).read_text())
    data["subfan"] = [{"rays": []}, {"rays": [[1, 0]]}]
    data["refinement"] = [{"rays": [[1, 0]], "sigma": True}]
    path = write_input(tmp_path, data)
    code, out = run_cli(["hodge", path])
    assert code == 1
    assert out == ""
    assert "refinement[0].sigma" in capsys.readouterr().err


def test_refinement_without_subfan_is_rejected(tmp_path, capsys):
    data = json.loads(Path(CONCRETE).read_text())
    data["refinement"] = [{"rays": [[1, 0]], "sigma": 1}]
    path = write_input(tmp_path, data)
    code, out = run_cli(["hodge", path])
    assert code == 1
    assert out == ""
    assert "refinement needs a subfan" in capsys.readouterr().err


def test_refinement_sigma_indexes_the_user_subfan_list(tmp_path, capsys):
    # The zero cone is added to a subfan that leaves it out, but sigma may
    # only index the cones the user listed.
    data = json.loads(Path(CONCRETE).read_text())
    data["subfan"] = [{"rays": [[1, 0]]}]
    data["refinement"] = [{"rays": [], "sigma": 1}]
    path = write_input(tmp_path, data)
    code, out = run_cli(["hodge", path])
    assert code == 1
    assert out == ""
    assert "refinement[0].sigma must be an index 0..0" in capsys.readouterr().err


def test_subfan_and_refinement_errors_name_the_input_file(tmp_path, capsys):
    data = json.loads(Path(CONCRETE).read_text())
    data["subfan"] = [{"rays": [[1, 1]]}]
    path = write_input(tmp_path, data)
    assert run_cli(["hodge", path]) == (1, "")
    assert capsys.readouterr().err == (
        f"input error: {path}: subfan[0] is not a cone of the truncated normal fan\n"
    )
    data["subfan"] = [{"rays": []}, {"rays": [[1, 0]]}]
    data["refinement"] = [{"rays": [[0, 1]], "sigma": 1}]
    path = write_input(tmp_path, data, "refined.json")
    assert run_cli(["hodge", path]) == (1, "")
    assert capsys.readouterr().err.startswith(f"input error: {path}: refinement[0] ")


# Exit code and sha256 of the JSON stdout of every command on the worked
# example.  The triangle is not reflexive, an input error for stringy, which
# exits 1 and prints nothing.
GOLDEN = {
    "hstar": (0, "39030d869fb6afeb5378e5a2bd5724bac22a2668ae0ff0b577e42d360e887e88"),
    "gpoly": (0, "20876f1170d2ed75b946827369f320a209829e7ee551b237680000bad73e1527"),
    "invariants": (0, "499abd6a8fea6ae21a2e13f74ee72db858be4a849508934b647222d8ccca68db"),
    "hodge": (0, "0acf5abaf6fd85b06d72411608b1356b10dbc501c52c0e59d2a05668970686da"),
    "intersection": (0, "0687ff13633bbd799f5bb0c6834bd86e0c716a13f7efb40b153c354c9ff12ea1"),
    "stringy": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "nearby": (0, "facf91e2bbb123907c425929ea4cf6c4b356b2aac55e502350ccff231a0eadbe"),
    "dk-check": (0, "4b76c0f7a90307c07eb28d81a90d8f04a0cc4573e83741d65c4f7efedbba7286"),
    "verify": (0, "1f8301ed61d54924d72936d863de9e0d617343657a48af47c2369bd58bb1f217"),
}


def test_golden_outputs_on_worked_example():
    assert set(GOLDEN) == set(cli._COMMANDS)
    for command, expected in GOLDEN.items():
        code, out = run_cli([command, CONCRETE])
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == expected, command


# The same table for the worked example placed in the plane z = x of 3-space.
# The CLI rewrites lower-dimensional input, points and heights, into the
# lattice of its span before it subdivides, so every command reports on that
# rewrite, and verify runs regular_subdivision_idempotent as on the worked
# example.  The memo tables are emptied before each command, as in a fresh
# process: the rewrite interns the same complex as the worked example, and an
# interned complex keeps the heights it was first built with (see
# tests/test_memo.py).
IN_PLANE = str(DATA / "concrete_curve_in_plane.json")
GOLDEN_IN_PLANE = {
    "hstar": (0, "19cfca8e3dfca5b27b0a726a53e6eb076c3e221f9e411a63ef2bfcad5089021b"),
    "gpoly": (0, "3f33871387466a809b200208fb306012acc8a100df16b94b5ae92b92094bd5a4"),
    "invariants": (0, "cbbd262c8db4e712b84e924485c8f88fd3253a95aaebe33a5edd81a7e553e9ba"),
    "hodge": (0, "747b5b8c6198d13f479cd535847cbe301ce34224e5c9c5270def1b127d09e747"),
    "intersection": (0, "0f51a7d89976987f7d1342de14d88d1656f16ab08040c18bf07e3a1b00cfcdb5"),
    "stringy": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "nearby": (0, "d0db1783783a33e11a4547e97b9ed79e179ce883408c0be54d3b658d636e642a"),
    "dk-check": (0, "37ed3a8d9ad2508405008cb530f0728c5edae08910c4ceb1f1cdca2c736799ac"),
    "verify": (0, "5fd89e2e81a72f0eebe24c63517b1b6e9afba82666138fc6b046bf2485d5d894"),
}


def test_golden_outputs_on_lower_dimensional_input():
    assert set(GOLDEN_IN_PLANE) == set(cli._COMMANDS)
    for command, expected in GOLDEN_IN_PLANE.items():
        memo.clear()
        code, out = run_cli([command, IN_PLANE])
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == expected, command


def test_lower_dimensional_input_keeps_its_heights():
    # The points and their heights are rewritten into the lattice of their
    # span before the subdivision is built, so the complex carries its
    # heights and verify runs the same checks as on the worked example.
    memo.clear()
    assert cli.build_complex(cli.parse_input(IN_PLANE)).heights is not None
    names = []
    for path in (IN_PLANE, CONCRETE):
        memo.clear()
        code, out = run_cli(["verify", path])
        assert code == 0, path
        names.append([c["name"] for c in json.loads(out)["checks"]])
    assert names[0] == names[1]
    assert "regular_subdivision_idempotent" in names[0]


# sha256 of the JSON stdout of hodge on the k*D_d ladders in tests/data
# (6*D3 with 84 points, 3*D4 with 35, 5*D4 with 126), whose lifted hulls and
# cell complexes are the largest in the suite.
GOLDEN_LADDERS = {
    "ladder_6x3.json": "647363245e3bf45dec0d707adac99745bb583f1dbf5dd1a8cb69cbbe024bbcea",
    "ladder_3x4.json": "42e79555cdb81e9f9894eccd1f6792013a5bab9b3ef99def67c5d376b20084e5",
    "ladder_5x4.json": "d7fa6f87bc03ad33727ac40e5995d3c5d95e30dd7f1ebff2b2f03c884ebbc820",
}


def test_golden_hodge_on_ladders():
    for name, digest in GOLDEN_LADDERS.items():
        memo.clear()
        code, out = run_cli(["hodge", str(DATA / name)])
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest), name


# Exit code and sha256 of the JSON stdout of every command on a triangulation
# (6*D3 with heights, 169 maximal cells), on the trivial subdivision of
# [-1, 1]^4, the reflexive input with the most faces in tests/data, on the
# 4-cross-polytope with a refinement of a non-simplicial subfan, on a
# reflexive square in a plane of 3-space, and on the trivial subdivision of
# the Reeve tetrahedron conv{0, e1, e2, (1, 1, 5)}: volume 5, h* = 1 + 4u^2
# and no interior point, a simplex whose box has points of height 2 only;
# and on a subdivided curve in a plane of 3-space, whose points and heights
# are mapped into the lattice of their span.  6*D3, the Reeve tetrahedron
# and the curve are not reflexive, so stringy exits 1 on them and prints
# nothing.
GOLDEN_EVERY_COMMAND = {
    "ladder_6x3.json": {
        "hstar": (0, "428013a6ee43b5803870402c4a3294b43c8844f71d8a00cad7d3bd882d19b1e8"),
        "gpoly": (0, "c56a0882173fb308419987779ab8a2a5e3311f4bf7eb44867fcc827c40ca78c5"),
        "invariants": (0, "f3827efd9a83893104ad8d36e09608f9a0c2a69d68e47fcb6c5286090583a1a9"),
        "hodge": (0, "647363245e3bf45dec0d707adac99745bb583f1dbf5dd1a8cb69cbbe024bbcea"),
        "intersection": (0, "93c6adbe3b24bfa3c379dfa88bce75efd9c2941fce0990f0f1037be2a0d53b3c"),
        "stringy": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "nearby": (0, "144e201f4f1180dca50f078cc07b3c5f721e07742508a179b087a037539ed6e8"),
        "dk-check": (0, "24958193b90cb2ed0922ba56111f6fb53cd26732dbbea182e760149b399d9bf3"),
        "verify": (0, "b4b2d290e02f2dc3f5c2e26a4c65c479d95daa98ef56dd2d02d58e31a776138f"),
    },
    "cube4.json": {
        "hstar": (0, "c4d500f291843a8a51fe8fe52a3234cfa9699fa39858b3b9bcab803efa051052"),
        "gpoly": (0, "e27904dcd335b89771212afff1d8fa5570d50ac7a9ded119861edd66c14bf5bc"),
        "invariants": (0, "7e9586add1c1bf2aad26f38e2bc35d1dba7f42235a3e59687e1b8e208485622c"),
        "hodge": (0, "c6369fba813e873ef55f13dd6a344bdf6be50b184b105735f80a781ae19bbd85"),
        "intersection": (0, "bd5b5c03e130ce4d66f5804dc27dcde593c5f43ca4a247ded6213f54e2fbf534"),
        "stringy": (0, "3a13e299841e9172f2b44981c77cde8ed49b73a968bc06d803a110fac9592a07"),
        "nearby": (0, "4487b08d12f06905106b161020d01a331f21202a0fc9f76d805ef6f42e51ce65"),
        "dk-check": (0, "286012e4ff201cf8e822ee5f75b62c58538e1aeda64ff3d3948c896e229cd663"),
        "verify": (0, "e635a45171bfd4b494317d83c10d8e9352469a646483955602338b3cd94840b0"),
    },
    "cross4_refinement.json": {
        "hstar": (0, "63d77c6471d66c4d6daef45fa6e5568c7593090e64a812a26cf26f2fe077d66a"),
        "gpoly": (0, "2a1c7fb7985b849445f56ee8fada6dae307e612f8b05b7416af7fa0679ec305f"),
        "invariants": (0, "3d6744c81133a362d004c137f91e6a85dda2fbce4dacd9f8989df66928613de2"),
        "hodge": (0, "520870ec8c921ee4ca6357255248d4d1b79442a7de8aa2db6afeb1acc7e423a7"),
        "intersection": (0, "534216dd6626697b79e67288cb639f83259fac6d2e4f515e52d1a816ea9cf447"),
        "stringy": (0, "a93177bce81d236d53091ef61f72a4de2fdf577590b318655ae5f1198a765a9d"),
        "nearby": (0, "199541aa79aad0234855a3cb17e6d090f8b4545dd2f8abfe25fa5ade9f237353"),
        "dk-check": (0, "523cbe92a702a40aaee88464bb700cda7da8e7360a5ee1076bbaef9b2b29605f"),
        "verify": (0, "c5859418accb7c2e1ae6d575a1428a085ee7e134d944dbaf146a172dee25cb03"),
    },
    "square_in_space.json": {
        "hstar": (0, "f6ccf8909e20af6256d755d0cd2776c7352534bb51b50b9addbfb60c1b00cbc8"),
        "gpoly": (0, "08599e61995cd206e7d158780ee5302d91dc2def225b6df99a6262987b17bc03"),
        "invariants": (0, "e34991676390210ac4240a5f7459342b28793d965e4918087aa6d3bfde5d6cfc"),
        "hodge": (0, "36d10c949a5e3ae1aff239c66a47704d5ec5fcb96735aec07411a7afd65be7a2"),
        "intersection": (0, "c365f4c879e68643cfb4f696ad1c96d03dba1a80ea5b9cbcdcaab4aae6e196eb"),
        "stringy": (0, "66bf4555ee891df77ec1463c599622e08a2e36b299d91dc55174827fce27b7cb"),
        "nearby": (0, "8d42e5925ed2aba69fbae66b6393c829e6371b0e641b65971f5d66b94a85913e"),
        "dk-check": (0, "62ace9d6cb9ecd64f1c7bda551d56c74e4db178f95d3894c2961eefb15769c1e"),
        "verify": (0, "6118df6cc186355228c234cef6c4ba3693353b7ec55ac9eefa4ee8f20447f2c0"),
    },
    "reeve5.json": {
        "hstar": (0, "64fbbb4976e07ee446a020ff4fe609f1825f0b7fb2a9e26686ab038a3a00d03b"),
        "gpoly": (0, "7702da1e42ddfbc08fa73bba1b276b9714dabafaac463430a73b3da357ca6d7d"),
        "invariants": (0, "a69acbc58e575b48a3751d8665691a3fc8527ad60a8747bf67a077566df4bf0d"),
        "hodge": (0, "3ebd63992be62e79f2011f8437e73759c934a508bc0b95945f928a0b47976ee7"),
        "intersection": (0, "f776342b46d7ed1ad124252f6fdc4332331366fd5977c9ebfe63070cdbb76d0e"),
        "stringy": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "nearby": (0, "28ff13777467e5828074355ea8c11b506d1c355ba5dcdf690d214f0e0651eafb"),
        "dk-check": (0, "57ab13757b6dd41838b26e7adc1e4bb00afb99691e79eab0b95cc0263edb513b"),
        "verify": (0, "85a51a120132bd6ee1ad21efcde668f1127891399a8125cadeb0bf029a5a85ee"),
    },
    "concrete_curve_in_plane.json": {
        "hstar": (0, "19cfca8e3dfca5b27b0a726a53e6eb076c3e221f9e411a63ef2bfcad5089021b"),
        "gpoly": (0, "3f33871387466a809b200208fb306012acc8a100df16b94b5ae92b92094bd5a4"),
        "invariants": (0, "cbbd262c8db4e712b84e924485c8f88fd3253a95aaebe33a5edd81a7e553e9ba"),
        "hodge": (0, "747b5b8c6198d13f479cd535847cbe301ce34224e5c9c5270def1b127d09e747"),
        "intersection": (0, "0f51a7d89976987f7d1342de14d88d1656f16ab08040c18bf07e3a1b00cfcdb5"),
        "stringy": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "nearby": (0, "d0db1783783a33e11a4547e97b9ed79e179ce883408c0be54d3b658d636e642a"),
        "dk-check": (0, "37ed3a8d9ad2508405008cb530f0728c5edae08910c4ceb1f1cdca2c736799ac"),
        "verify": (0, "5fd89e2e81a72f0eebe24c63517b1b6e9afba82666138fc6b046bf2485d5d894"),
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_EVERY_COMMAND))
def test_golden_outputs_of_every_command(name):
    golden = GOLDEN_EVERY_COMMAND[name]
    assert set(golden) == set(cli._COMMANDS)
    for command, expected in golden.items():
        memo.clear()
        code, out = run_cli([command, str(DATA / name)])
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == expected, command


# sha256 of the JSON stdout of gpoly, whose intersection_lefschetz is E_Lef,
# on a long segment, on the 3*D4 and 5*D4 ladders, and on [-1, 1]^6.  The
# face lattice of [-1, 1]^6 has rank 7, so its g runs the EulerianPoset
# recursion, and its dual g has a t^3 term at half the dimension.
GOLDEN_GPOLY = {
    "long_segment.json": "51c65e39627e96016d05b4c074f47432a9c7a6ee85f379ce3d4cbafb4e9cea10",
    "ladder_3x4.json": "b5c9b7ac67d0712418c2ac6aa3ead44eeb5c3bd7ba6dd624a9abfd8a4ec0ee1d",
    "ladder_5x4.json": "6f97bb54a59bedbd5034ced348dfcc8cb1b1a6ee3b666b18544d626cad040652",
    "cube6.json": "af348d47544a36888d5511a88edee965ec32e4309afbc7ee3788376718609f81",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_GPOLY))
def test_golden_gpoly(name):
    memo.clear()
    code, out = run_cli(["gpoly", str(DATA / name)])
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, GOLDEN_GPOLY[name])


# The 4-dim cross-polytope with the subfan of the cones of the faces that
# hold the edge from (1, 0, 0, 0) to (0, 1, 0, 0).  That edge's cone has four
# rays and is not simplicial; the refinement is its pulling triangulation, so
# one refinement cone, [[-1, -1, -1, -1], [-1, -1, 1, 1]], splits the edge's
# cone along a diagonal and is carried by it.
CROSS4 = DATA / "cross4_refinement.json"
CROSS4_HODGE = "520870ec8c921ee4ca6357255248d4d1b79442a7de8aa2db6afeb1acc7e423a7"


def test_golden_hodge_on_a_non_simplicial_refinement():
    memo.clear()
    code, out = run_cli(["hodge", str(CROSS4)])
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, CROSS4_HODGE)


@pytest.mark.parametrize(
    "cone, message",
    [
        # (1, 1, 1, 1) is least on the facet opposite the edge.
        ({"rays": [[1, 1, 1, 1]], "sigma": 1}, " has a ray outside its sigma cone"),
        # Both rays lie in the edge's cone, but also in the smaller cone of
        # the triangle on (0, 0, 1, 0): their facets meet there.
        (
            {"rays": [[-1, -1, -1, -1], [-1, -1, -1, 1]], "sigma": 1},
            ".sigma is not the smallest containing cone",
        ),
    ],
)
def test_refinement_errors_on_a_non_simplicial_cone(tmp_path, capsys, cone, message):
    data = json.loads(CROSS4.read_text())
    data["refinement"].append(cone)
    path = write_input(tmp_path, data)
    assert run_cli(["hodge", path]) == (1, "")
    assert capsys.readouterr().err == f"input error: {path}: refinement[11]{message}\n"


# The cone of the edge's triangulation that lies inside the edge's cone.
DIAGONAL = [[-1, -1, -1, -1], [-1, -1, 1, 1]]


@pytest.mark.parametrize(
    "edit, message",
    [
        # (-2, -2, -2, -2) is (-1, -1, -1, -1) once made primitive, so the
        # ray's cone is there twice.
        (
            lambda cones: cones + [{"rays": [[-1, -1, -1, -1], [-2, -2, -2, -2]], "sigma": 9}],
            "refinement does not subdivide subfan[9]: the sum of (-1)^(dim sigma - dim tau) "
            "over its refinement cones tau is 2, not 1",
        ),
        (
            lambda cones: cones + [{"rays": [[0, 0, 0, 0]], "sigma": 0}],
            "refinement[11].rays[0] is the zero vector, which spans no ray",
        ),
        (
            lambda cones: [c for c in cones if c["rays"] != DIAGONAL],
            "refinement does not subdivide subfan[1]: the sum of (-1)^(dim sigma - dim tau) "
            "over its refinement cones tau is 2, not 1",
        ),
        (
            lambda cones: [],
            "refinement does not subdivide subfan[1]: the sum of (-1)^(dim sigma - dim tau) "
            "over its refinement cones tau is 0, not 1",
        ),
        # The other triangulation's cone over the shipped one: the Euler sum
        # stays 1, but the edge cone on (-1,-1,-1,-1) and (-1,-1,-1,1), in a
        # facet of sigma, now lies in two of sigma's 3-dimensional cones.
        (
            lambda cones: cones + [
                {"rays": [[-1, -1, -1, -1], [-1, -1, -1, 1], [-1, -1, 1, -1]], "sigma": 1},
                {"rays": [[-1, -1, -1, 1], [-1, -1, 1, -1]], "sigma": 1},
            ],
            "refinement does not subdivide subfan[1]: the cone "
            "[[-1, -1, -1, -1], [-1, -1, -1, 1]] lies in 2 of its 3-dimensional "
            "refinement cones, not 1",
        ),
    ],
    ids=["repeated-ray", "zero-ray", "cone-left-out", "nothing-covered", "overlapping-cones"],
)
def test_refinement_that_does_not_subdivide_the_subfan_is_rejected(
    tmp_path, capsys, edit, message
):
    data = json.loads(CROSS4.read_text())
    data["refinement"] = edit(data["refinement"])
    path = write_input(tmp_path, data)
    assert run_cli(["hodge", path]) == (1, "")
    assert capsys.readouterr().err == f"input error: {path}: {message}\n"


@pytest.mark.parametrize(
    "polytope",
    [cross_polytope(4), LatticePolytope.convex_hull(list(itertools.product((-1, 1), repeat=4))),
     cube(3)],
    ids=["4-cross", "[-1,1]^4", "[0,1]^3"],
)
def test_refinements_of_the_whole_fan_pass_the_euler_check(polytope):
    fan = TruncatedNormalFan(polytope)
    ids = sorted(fan.full_subfan())
    for refinement in (simplicial_refinement(fan), identity_refinement(fan)):
        cones = [
            {"rays": [list(r) for r in rays], "sigma": ids.index(fid)}
            for rays, fid in refinement.cones.items()
            if rays
        ]
        assert cli._resolve_refinement(fan, ids, cones, "input").cones == refinement.cones


def test_a_face_lattice_that_is_not_eulerian_fails_its_checks(monkeypatch):
    quartic = LatticePolytope.convex_hull([(0, 0), (4, 0), (0, 4)]).key
    original = FaceLattice.poset

    def poset(self):
        if self.polytope.key == quartic:
            raise ValueError("poset is not Eulerian")
        return original(self)

    monkeypatch.setattr(FaceLattice, "poset", poset)
    code, out = run_cli(["verify", CONCRETE, "--format", "text"])
    assert code == 3
    assert "check face_lattice_eulerian: fail  (poset is not Eulerian)\n" in out
    assert "check stanley_inversion_faces: fail  (poset is not Eulerian)\n" in out
    # Every other check still runs, and passes.
    failed = [line for line in out.splitlines() if ": fail" in line]
    assert len(failed) == 2 and "check dk_reconstruction: pass\n" in out


def test_text_format():
    code, out = run_cli(["nearby", CONCRETE, "--format", "text"])
    assert code == 0
    assert "nearby_fiber_E = -14 - 2*u*v" in out
    assert "nearby_fiber_class = -14 - 2*L" in out


def test_lower_dimensional_input_is_normalized(tmp_path):
    # The same quartic triangle embedded in a plane of 3-space: every
    # invariant must agree with the 2-dimensional computation.
    def lift(v):
        return [v[0], v[1], v[0] + 2 * v[1]]

    data = json.loads(Path(CONCRETE).read_text())
    lifted = {
        "dim": 3,
        "points": [
            {"coords": lift(e["coords"]), "height": e["height"]}
            for e in data["points"]
        ],
    }
    path = write_input(tmp_path, lifted)
    code, out = run_cli(["hodge", path])
    assert code == 0
    report = json.loads(out)
    _, flat = run_cli(["hodge", CONCRETE])
    flat_report = json.loads(flat)
    assert report["results"]["refined_E"] == flat_report["results"]["refined_E"]
    assert report["results"]["euler_characteristic"] == "-16"
    code, out = run_cli(["gpoly", path])
    assert code == 0
    assert json.loads(out)["results"]["intersection_lefschetz"]["pretty"] == "1 + t"


def test_unexpected_exceptions_exit_2_without_traceback(tmp_path, capsys):
    # A triangle long on two axes: each fiber is solved exactly, but the
    # fibers are indexed by a range too long for a C index, which raises
    # OverflowError, neither an input error nor a ValueError.
    points = [{"coords": [0, 0]}, {"coords": [10**30, 0]}, {"coords": [0, 10**30]}]
    path = write_input(tmp_path, {"dim": 2, "points": points})
    for command in ("hstar", "hodge", "verify", "stringy", "dk-check", "intersection"):
        assert run_cli([command, path]) == (2, ""), command
        err = capsys.readouterr().err
        assert err.startswith("computation error: OverflowError: "), command
        assert "Traceback" not in err


def test_hstar_counts_a_segment_longer_than_a_c_index():
    code, out = run_cli(["hstar", str(DATA / "long_segment.json")])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["h_star"]["pretty"] == f"1 + {10**30 - 1}*u"
    assert report["tables"]["ehrhart"]["1"] == str(10**30 + 1)


def test_hstar_of_a_thin_triangle(tmp_path):
    # Pick: area 50000 = I + B/2 - 1 with B = 100002 boundary points, I = 0.
    points = [{"coords": [0, 0]}, {"coords": [100000, 1]}, {"coords": [0, 1]}]
    path = write_input(tmp_path, {"dim": 2, "points": points})
    code, out = run_cli(["hstar", path])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["h_star"]["pretty"] == "1 + 99999*u"
    assert report["tables"]["ehrhart"]["1"] == "100002"


def test_conflicting_duplicate_heights_are_rejected(tmp_path, capsys):
    points = [
        {"coords": [0, 0], "height": 0},
        {"coords": [1, 0], "height": 0},
        {"coords": [0, 1], "height": 0},
        {"coords": [0, 0], "height": 5},
    ]
    path = write_input(tmp_path, {"dim": 2, "points": points})
    code, out = run_cli(["hodge", path])
    assert code == 1
    assert out == ""
    err = capsys.readouterr().err
    assert "points[0]" in err and "points[3]" in err
    # The same height twice (also written differently) is not a conflict.
    points[3] = {"coords": [0, 0], "height": "0/7"}
    path = write_input(tmp_path, {"dim": 2, "points": points}, "same.json")
    code, _ = run_cli(["hodge", path])
    assert code == 0


def test_subfan_rays_are_type_checked(tmp_path, capsys):
    fan = TruncatedNormalFan(cli.parse_input(CONCRETE).polytope)
    for bad, where in (
        ([[["a"]]], "subfan[0][0]"),
        ([{"rays": [[1, 0], [True, 0]]}], "subfan[0].rays[1]"),
        ([{"rays": [[1, 0, 0]]}], "subfan[0].rays[0]"),
        ([{"rays": 3}], "subfan[0].rays"),
        (5, "subfan must be a list"),
    ):
        with pytest.raises(cli.InputError, match=re.escape(where)):
            cli._resolve_subfan(fan, bad, CONCRETE)
    data = json.loads(Path(CONCRETE).read_text())
    data["subfan"] = [[["a"]]]
    path = write_input(tmp_path, data)
    code, _ = run_cli(["hodge", path])
    assert code == 1
    assert "subfan[0][0]" in capsys.readouterr().err


def test_refinement_rays_are_type_checked(tmp_path, capsys):
    fan = TruncatedNormalFan(cli.parse_input(CONCRETE).polytope)
    _, ids = cli._resolve_subfan(fan, [{"rays": []}, {"rays": [[1, 0]]}], CONCRETE)
    for bad, where in (
        ([{"rays": [["a"]], "sigma": 0}], "refinement[0].rays[0]"),
        ([{"rays": [[1, 0]], "sigma": 1}, {"rays": [[1.5, 0]], "sigma": 1}],
         "refinement[1].rays[0]"),
        ([{"rays": "x", "sigma": 1}], "refinement[0].rays"),
        ({"rays": [], "sigma": 1}, "refinement must be a list"),
    ):
        with pytest.raises(cli.InputError, match=re.escape(where)):
            cli._resolve_refinement(fan, ids, bad, CONCRETE)
    data = json.loads(Path(CONCRETE).read_text())
    data["subfan"] = [{"rays": []}, {"rays": [[1, 0]]}]
    data["refinement"] = [{"rays": [["a"]], "sigma": 0}]
    path = write_input(tmp_path, data)
    code, _ = run_cli(["hodge", path])
    assert code == 1
    assert "refinement[0].rays[0]" in capsys.readouterr().err


def test_subfan_on_a_point_says_the_fan_is_empty(tmp_path, capsys):
    # The normal fan of a point is its zero cone, which is maximal, so the
    # truncated fan has no cones and no subfan can be selected.
    for dim in (0, 2):
        point = {"coords": [1] * dim}
        for subfan in ([[]], []):
            path = write_input(tmp_path, {"dim": dim, "points": [point], "subfan": subfan})
            assert run_cli(["hodge", path]) == (1, "")
            err = capsys.readouterr().err
            assert err.startswith(f"input error: {path}: ")
            assert "a point has an empty truncated normal fan" in err


def test_dimension_zero_input(tmp_path):
    # A single point: the hypersurface is empty, so every E polynomial and
    # the Euler characteristic are 0, and the point is its own polar dual.
    path = write_input(tmp_path, {"dim": 0, "points": [{"coords": []}]})
    code, out = run_cli(["verify", path])
    assert code == 0
    checks = json.loads(out)["checks"]
    assert checks and all(c["status"] == "pass" for c in checks)
    code, out = run_cli(["stringy", path])
    assert code == 0
    results = json.loads(out)["results"]
    assert results["stringy_E"]["pretty"] == "0"
    assert results["dual_polytope_vertices"] == "[[]]"
    code, out = run_cli(["hodge", path])
    assert code == 0
    assert json.loads(out)["results"]["euler_characteristic"] == "0"
