"""Reach report: the largest n each operation finishes within a fixed budget.

``climb`` walks the n ladder of one operation upwards. Each step runs in
its own process, one at a time, under a time cap and an ``RLIMIT_AS``
memory cap; the first step that overruns either cap, or exits with an
error, ends the climb. The report is informational: it is not part of the
timed passes and not gated.

One step by hand::

    python3 bench/reach.py --root . --op validate --n 9 --work DIR
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import workloads
from worker import Runner, import_package

OPS = ("validate", "play", "conditional", "sample", "causal_bound")
TIME_CAP_S = 2.0
MEMORY_CAP = 1 << 30
TOP_N = 64
# Interpreter start, import and untimed preparation on top of the cap;
# the step stops itself at the cap, this only bounds a step that hangs.
SLACK_S = 3.0


class Overrun(BaseException):
    """The measured call ran past the time cap."""


def _overrun(signum, frame):
    raise Overrun


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def climb(root: Path, op: str, work: str, seed: int, deadline: float) -> tuple[int, str | None]:
    """Largest n whose step finished within the caps, and the first wrong
    answer met on the way (None when every answer was right)."""
    best = 2
    for n in range(3, TOP_N + 1):
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        cmd = [sys.executable, str(Path(__file__).resolve()), "--root", str(root),
               "--op", op, "--n", str(n), "--seed", str(seed), "--work", work]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=min(TIME_CAP_S + SLACK_S, remaining),
                                  preexec_fn=_limit_memory)
        except subprocess.TimeoutExpired:
            break
        if proc.returncode != 0:
            break
        step = json.loads(proc.stdout.splitlines()[-1])
        if step["error"]:
            return best, f"reach {op} n={n}: {step['error']}"
        if step["s"] > TIME_CAP_S:
            break
        best = n
    return best, None


def step(root: Path, op: str, n: int, seed: int, work: str) -> dict:
    modules = import_package(root)
    prep, job = workloads.reach_jobs(op, n, seed)
    runner = Runner(modules, [job], work)
    cli, process = modules["cli"], modules["process"]
    for p in prep:
        workloads.run(p, work, cli, process)
    runner.clear_caches()
    signal.signal(signal.SIGALRM, _overrun)
    signal.setitimer(signal.ITIMER_REAL, TIME_CAP_S)
    start = time.perf_counter()
    try:
        result = workloads.run(job, work, cli, process)
    except Overrun:
        return {"s": time.perf_counter() - start, "error": None}
    elapsed = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    return {"s": elapsed, "error": runner.verdict(0, job, result)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--op", required=True, choices=OPS)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)
    print(json.dumps(step(Path(args.root), args.op, args.n, args.seed, args.work)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
