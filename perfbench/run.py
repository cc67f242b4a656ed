"""Outside-in benchmark of the polyhodge CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload subdivide --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table each
    python3 perfbench/run.py --record-reference      # rewrite perfbench/reference.json

One client runs the workload's commands as a closed loop: each command is
``python -m polyhodge.cli ...`` in a fresh process, one at a time, so every
call pays the cold memo caches a CLI user pays.  Passes over the command list
repeat until the next command would overrun ``--seconds``; end-to-end times
are means over the run.  ``--trace 1`` alternates untraced passes with passes
run under ``tracer.py`` and reports per-layer metrics instead.

The metric names, units and bounds come from BENCHMARK.json.  The last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable report.  Per-run records and
span files go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gzip
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
PINNED_SEED = 1
SETUP_PER_PASS = 3  # set-up repeats before each untraced pass
COMMAND_TIMEOUT_S = 120
# Children see the caller's environment without its PYTHON* settings, so
# that, for example, unbuffered stdout or disabled bytecode caching in the
# caller's shell does not change what is measured.
CHILD_ENV = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
CHILD_ENV["PYTHONPATH"] = os.path.join(ROOT, "src")
SETUP_SNIPPET = (
    "import sys\n"
    "from polyhodge.cli import parse_input\n"
    "for path in sys.argv[1:]:\n"
    "    parse_input(path)\n"
)


class Launcher:
    """The fork server of ``launcher.py``, which runs every child process.

    Children are forked from it rather than from this process, so that
    their ``ru_maxrss`` does not include the memory of this one.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=CHILD_ENV,
            text=True,
        )
        self.busy = False

    def run(self, argv, stdout_path, stderr_path) -> dict:
        request = {"argv": argv, "stdout": stdout_path, "stderr": stderr_path,
                   "timeout": COMMAND_TIMEOUT_S}
        self.busy = True
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited")
        self.busy = False
        return json.loads(line)

    def close(self):
        """End the launcher; if a child is still running, kill it first."""
        if self.busy:
            self.proc.terminate()
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class Child:
    """Outcome of one fresh process: wall time, peak RSS, exit code, output."""

    def __init__(self, launcher, argv, tmp, tag):
        self.stdout_path = os.path.join(tmp, tag + ".out")
        self.stderr_path = os.path.join(tmp, tag + ".err")
        done = launcher.run(argv, self.stdout_path, self.stderr_path)
        self.wall_s = done["wall_s"]
        self.returncode = os.waitstatus_to_exitcode(done["status"])
        self.rss_mb = done["maxrss_kb"] / 1024.0

    def output(self):
        with open(self.stdout_path, "rb") as fh:
            stdout = fh.read()
        with open(self.stderr_path, "rb") as fh:
            stderr = fh.read()
        return stdout, stderr


class Run:
    """One benchmark run of one workload: passes, samples and failures."""

    def __init__(self, name, seed, tmp, out_dir, reference, launcher):
        self.name = name
        self.launcher = launcher
        self.seed = seed
        self.tmp = tmp
        self.out_dir = out_dir
        self.workload = workloads.BUILDERS[name](tmp, seed)
        self.reference = reference
        self.attempted = 0
        self.failed = 0  # commands with at least one failure
        self.failures: list[str] = []
        self.setup: list[float] = []
        # Untraced samples per command id: wall times and peak RSS.
        self.wall: list[list[float]] = [[] for _ in self.workload.commands]
        self.rss: list[list[float]] = [[] for _ in self.workload.commands]
        self.traced: list[dict] = []
        self.outputs: dict = {}  # label -> stdout of the last untraced run

    def measure_setup(self):
        argv = [sys.executable, "-c", SETUP_SNIPPET, *self.workload.inputs]
        child = Child(self.launcher, argv, self.tmp, "setup")
        if child.returncode != 0:
            raise RuntimeError(f"set-up process failed: {child.output()[1][-400:]!r}")
        self.setup.append(child.wall_s)

    def run_command(self, cid):
        """Run command ``cid`` untraced and record its wall time and peak RSS."""
        cmd = self.workload.commands[cid]
        argv = [sys.executable, "-m", "polyhodge.cli", *cmd.argv]
        child = Child(self.launcher, argv, self.tmp, f"u-c{cid}")
        self.check(cmd, child, traced=False)
        self.wall[cid].append(child.wall_s)
        self.rss[cid].append(child.rss_mb)

    def run_traced_pass(self):
        index = len(self.traced)
        commands, wall = [], 0.0
        for cid, cmd in enumerate(self.workload.commands):
            spans = os.path.join(self.out_dir, f"spans-p{index}-c{cid}.json.gz")
            argv = [sys.executable, os.path.join(HERE, "tracer.py"), spans, str(cid)]
            child = Child(self.launcher, argv + list(cmd.argv), self.tmp, f"t{index}-c{cid}")
            self.check(cmd, child, traced=True)
            if os.path.exists(spans + ".post"):
                with open(spans + ".post") as fh:
                    child.wall_s -= float(fh.read())
                with gzip.open(spans, "rt") as fh:
                    record = json.load(fh)
                record.pop("spans")
                record["wall_s"] = child.wall_s
                commands.append(record)
            wall += child.wall_s
        self.traced.append({"wall_s": wall, "commands": commands})

    def pass_wall_s(self) -> float:
        """Wall time of one pass: the sum of the commands' mean wall times."""
        return sum(statistics.fmean(w) for w in self.wall)

    def check(self, cmd, child, traced):
        self.attempted += 1
        stdout, stderr = child.output()
        ref = None
        if self.reference is not None:
            ref = self.reference["commands"].get(self.name, {}).get(cmd.label)
            if ref is None:
                self.failed += 1
                self.failures.append(f"{cmd.label}: no reference recorded")
                return
            if self.seed != self.reference["pinned_seed"]:
                ref = {"invariant_sha256": ref["invariant_sha256"]}
        errors = workloads.check_output(
            self.name, child.returncode, stdout, stderr, ref
        )
        kind = "traced" if traced else "untraced"
        self.failed += bool(errors)
        self.failures += [f"{cmd.label} ({kind}): {e}" for e in errors]
        if not traced:
            self.outputs[cmd.label] = stdout


def _median(values):
    return statistics.median(values) if values else float("nan")


def _mean(values):
    return statistics.fmean(values) if values else float("nan")


def layer_metrics(sample: dict, names) -> dict:
    """Per-layer metrics of one traced pass, summed over its commands."""
    agg: dict = {}
    memo: dict = {}
    candidates = 0
    for record in sample["commands"]:
        for span, values in record["aggregates"].items():
            into = agg.setdefault(span, {"calls": 0, "self_s": 0.0, "s": 0.0})
            for key, value in values.items():
                into[key] += value
        for dict_name, grown in record["memo_new_entries"].items():
            memo[dict_name] = memo.get(dict_name, 0) + grown
        candidates += record["hull_candidates"]

    def span(name, field):
        return agg.get(name, {}).get(field, 0)

    g_calls = span("poset.g_polynomial", "calls")
    special = {
        "polytope.hull_builds": span("polytope.hull_build", "calls"),
        "polytope.hull_candidates": candidates,
        "subdivision.complex_builds": span("subdivision.complex_init", "calls"),
        "poset.g_cache_hit_ratio": 1 - memo.get("G_CACHE", 0) / g_calls if g_calls else 0.0,
        "invariants.memo_entries": sum(
            memo.get(k, 0)
            for k in ("H_STAR", "LOCAL_H_STAR", "MIXED", "LIMIT_MIXED",
                      "LOCAL_LIMIT_MIXED", "REFINED")
        ),
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
        elif name.startswith("memo.") and name.endswith(".entries"):
            out[name] = memo.get(name[len("memo."):-len(".entries")], 0)
        elif name != "trace.overhead_s":
            base, field = name.rsplit(".", 1)
            out[name] = span(base, field)
    return out


def self_time_violations(sample: dict) -> list[str]:
    """Commands whose layer self times add up to more than their wall time."""
    bad = []
    for record in sample["commands"]:
        total = sum(v["self_s"] for v in record["aggregates"].values())
        if total > record["wall_s"]:
            bad.append(
                f"command {record['command_id']}: layer self times {total:.4f}s"
                f" > traced wall {record['wall_s']:.4f}s"
            )
    return bad


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def run_untraced(run, deadline):
    """Cycle through the set-up repeats and the commands until the deadline.

    The first cycle always runs whole.  After it, each step runs only if a
    step of its kind, at its average length so far, ends before the deadline,
    so the run stops within one command of ``--seconds`` rather than within
    one pass.  The set-up repeats are spread over the run, so they sample the
    same stretch of time as the commands.
    """
    steps = [None] * SETUP_PER_PASS + list(range(len(run.workload.commands)))
    lengths: dict = {}  # step -> durations; None is a set-up repeat
    for i in itertools.count():
        step = steps[i % len(steps)]
        if i >= len(steps) and time.perf_counter() + statistics.fmean(lengths[step]) > deadline:
            return
        began = time.perf_counter()
        if step is None:
            run.measure_setup()
        else:
            run.run_command(step)
        lengths.setdefault(step, []).append(time.perf_counter() - began)


def run_workload(name, seed, seconds, trace, reference, spec) -> dict:
    out_dir = os.path.join(OUT, f"{name}-trace{trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    tmp = tempfile.mkdtemp(prefix="inputs-", dir=out_dir)
    start = time.perf_counter()
    deadline = start + seconds
    launcher = Launcher()
    try:
        run = Run(name, seed, tmp, out_dir, reference, launcher)
        # Warm-up, not timed: the first process of a fresh checkout compiles
        # the bytecode and fills the file cache, which a CLI user does not
        # pay on every call.
        run.measure_setup()
        run.setup.clear()
        if trace:
            # Untraced and traced passes alternate; another pair starts only
            # if a pair of average length ends before the deadline.
            lengths = []
            while not lengths or time.perf_counter() + statistics.fmean(lengths) <= deadline:
                began = time.perf_counter()
                for cid in range(len(run.workload.commands)):
                    run.run_command(cid)
                run.run_traced_pass()
                lengths.append(time.perf_counter() - began)
        else:
            run_untraced(run, deadline)
    finally:
        launcher.close()
        shutil.rmtree(tmp, ignore_errors=True)

    # Times are means over the whole run, not medians: the machine's speed
    # drifts between states up to 1.6x apart that last tens of seconds.  The
    # mean follows the share of the run spent in each state, while the median
    # of a handful of passes jumps from one state to the other.
    n = min(len(w) for w in run.wall)  # whole passes
    instances = sum(c.instances for c in run.workload.commands)
    wall = run.pass_wall_s()
    e2e = {
        "wall_s": (wall, n),
        "instances_per_s": (instances / wall, n),
        "setup_s": (_mean(run.setup), len(run.setup)),
        "max_rss_mb": (max(_median(r) for r in run.rss), n),
        "failed_ratio": (run.failed / run.attempted, run.attempted),
    }

    layers, untraced = {}, []
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        samples = [layer_metrics(s, names) for s in run.traced]
        for key in names:
            if key != "trace.overhead_s":
                layers[key] = (_median([s[key] for s in samples]), len(samples))
        overhead = statistics.fmean(s["wall_s"] for s in run.traced) - wall
        layers["trace.overhead_s"] = (overhead, len(run.traced))
        for sample in run.traced:
            violations = self_time_violations(sample)
            run.failed += len(violations)
            run.failures += violations
        untraced = sorted({
            t for s in run.traced for c in s["commands"] for t in c["untraced_targets"]
        })

    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "argv": sys.argv,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "commands": [list(c.argv) for c in run.workload.commands],
        "elapsed_s": time.perf_counter() - start,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "setup_s": run.setup,
        "command_wall_s": run.wall,
        "command_rss_mb": run.rss,
        "traced_passes": [
            {k: v for k, v in s.items() if k != "commands"} for s in run.traced
        ],
        "end_to_end": e2e,
        "per_layer": layers,
        "untraced_targets": untraced,
    }
    with open(os.path.join(out_dir, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def print_report(record, spec):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["failed_ratio"] = "fraction"
    print(
        f"# {record['workload']}: seed {record['seed']}, python {record['python']}, "
        f"nproc {record['nproc']}, commit {record['commit'] or 'unknown'}, "
        f"argv {' '.join(record['argv'])}"
    )
    for section in ("end_to_end", "per_layer"):
        for name, (value, n) in record[section].items():
            if n:
                print(f"  {name:44s} {value:14.6g} {units.get(name, ''):9s} n={n}")
    for target in record["untraced_targets"]:
        print(f"  not traced (absent from this version): {target}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


def record_reference() -> int:
    """Run each workload once at the pinned seed and store its digests."""
    commands = {}
    os.makedirs(OUT, exist_ok=True)
    for name in workloads.BUILDERS:
        tmp = tempfile.mkdtemp(prefix="reference-", dir=OUT)
        launcher = Launcher()
        try:
            run = Run(name, PINNED_SEED, tmp, tmp, None, launcher)
            for cid in range(len(run.workload.commands)):
                run.run_command(cid)
        finally:
            launcher.close()
            shutil.rmtree(tmp, ignore_errors=True)
        if run.failures:
            print("\n".join(run.failures), file=sys.stderr)
            return 1
        commands[name] = {
            label: workloads.reference_entry(name, stdout)
            for label, stdout in run.outputs.items()
        }
    with open(REFERENCE, "w") as fh:
        json.dump({"pinned_seed": PINNED_SEED, "commands": commands}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFERENCE}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all", *workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "polyhodge", "cli.py")):
        print(f"polyhodge sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = list(workloads.BUILDERS) if args.workload == "all" else [args.workload]

    results = []
    for name in names:
        record = run_workload(name, args.seed, seconds, args.trace, reference, spec)
        print_report(record, spec)
        results.append(record)

    section, wanted = ("per_layer", spec["per_layer"]) if args.trace else ("end_to_end", spec["end_to_end"])
    metrics = {}
    for record in results:
        prefix = "" if len(results) == 1 else record["workload"] + "/"
        for m in wanted:
            metrics[prefix + m["name"]] = {
                "value": record[section][m["name"]][0], "unit": m["unit"]
            }
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
