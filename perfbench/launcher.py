"""Small fork server that runs the benchmark's child processes.

Usage: python perfbench/launcher.py  (requests on stdin, one JSON per line)

Each request ``{"argv": [...], "stdout": path, "stderr": path, "timeout": s}``
forks, execs ``argv`` with its output sent to the two files, waits, and
answers with one JSON line ``{"wall_s", "status", "maxrss_kb"}``.

A child's ``ru_maxrss`` also counts the memory of the process it was forked
from.  Forked from this process, which stays near the size of a bare
interpreter, the peak RSS is the child's own; forked from ``run.py``, it
would never read below the size of ``run.py``.
A child that outlives its timeout is killed.  On SIGTERM the running child
is killed and reaped before the server exits; it exits at end of input.
"""

import json
import os
import signal
import sys
import time

running = 0  # pid of the child being waited for, 0 when idle


def _kill_running(*_):
    if running:
        os.kill(running, signal.SIGKILL)


def _terminate(*_):
    if running:
        os.kill(running, signal.SIGKILL)
        os.waitpid(running, 0)
    os._exit(143)


def run(request) -> dict:
    global running
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    out = os.open(request["stdout"], flags, 0o644)
    err = os.open(request["stderr"], flags, 0o644)
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.dup2(out, 1)
            os.dup2(err, 2)
            os.execvp(request["argv"][0], request["argv"])
        finally:
            os._exit(127)
    running = pid
    os.close(out)
    os.close(err)
    signal.alarm(int(request["timeout"]))
    _, status, usage = os.wait4(pid, 0)
    signal.alarm(0)
    wall = time.perf_counter() - start
    running = 0
    return {"wall_s": wall, "status": status, "maxrss_kb": usage.ru_maxrss}


def main() -> int:
    signal.signal(signal.SIGALRM, _kill_running)
    signal.signal(signal.SIGTERM, _terminate)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
