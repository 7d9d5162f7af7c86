"""One workload run in its own process: passes over the seeded job plan.

Run by ``run.py``; by hand::

    python3 bench/worker.py --root . --workload certify --seed 1 \
        --seconds 10 --trace 0 --work DIR --result DIR/result.json

Each pass runs every job of the plan once, single-threaded. Before each job
the lru caches of the package's public functions are cleared, so every job
pays what a fresh ``acausal`` process pays; only the call into the package
is timed. Answers are checked exactly after the clock stops; a job that
raises counts as failed and the run goes on.

With ``--trace 1`` each untraced pass is followed by two traced ones: traced
passes run with the span wrappers of ``spans.py`` installed and give the
per-layer numbers, and the untraced ones give the time the wrappers add.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import spans
import workloads

# Nominal duration of ``probe`` (its typical time on the 2-vCPU x86-64 VM
# the benchmark was tuned on). It only sets the scale of reported seconds.
PROBE_S = 5.0e-5
# How often the host's speed is sampled during a timed call.
SAMPLE_EVERY_S = 0.01
EDGE_PROBES = 4

CACHED = (("process", "build_w"), ("process", "loop_decomposition"),
          ("process", "generator_group"), ("game", "winning_behavior"),
          ("game", "wide_code"))


def import_package(root: Path) -> dict:
    """Import acausal from the checkout's ``src``, and from nowhere else."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import acausal
    from acausal import causal, cli, diagop, game, process

    if Path(acausal.__file__).resolve().parent != (src / "acausal").resolve():
        raise ImportError(f"acausal imported from {acausal.__file__}, not {src}")
    return {"acausal": acausal, "diagop": diagop, "process": process,
            "game": game, "causal": causal, "cli": cli}


def probe() -> float:
    """Time a fixed, tiny pure-Python loop: one sample of the host's speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(300):
        acc += (i * 2654435761 & 0xFFFF).bit_count()
    return time.perf_counter() - start


class SpeedMeter:
    """Times a call and scales it to the reference speed.

    The host this was tuned on, a shared VM, runs the same code up to twice
    as slowly from one moment to the next. So the speed is sampled with
    ``probe`` before, during (on a ``SIGALRM`` every ``SAMPLE_EVERY_S``) and
    after the call. The call's time, less the samples taken inside it, is
    scaled by ``PROBE_S`` over the mean sample: the call's cost in seconds
    at the reference speed.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.elapsed = self.measured = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        self.samples.append(probe())

    def __enter__(self):
        self.samples = [probe() for _ in range(EDGE_PROBES)]
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.elapsed = time.perf_counter() - self.start
        self.measured = self.elapsed - sum(self.samples[EDGE_PROBES:])
        self.samples += [probe() for _ in range(EDGE_PROBES)]
        return False

    def scale(self, seconds: float) -> float:
        """``seconds`` taken during the last call, at the reference speed."""
        return seconds * PROBE_S / statistics.fmean(self.samples)


class Runner:
    """Runs passes over one plan and keeps their timings and verdicts."""

    def __init__(self, modules: dict, jobs: list, work: str):
        self.mod = modules
        self.jobs = jobs
        self.work = work
        # The originals, saved before any wrapper is installed.
        self.caches = [getattr(modules[m], f) for m, f in CACHED]
        self.verdicts: dict[tuple, str | None] = {}
        self.failures: list[str] = []
        self.passes = 0
        self.meter = SpeedMeter()

    def clear_caches(self) -> None:
        for fn in self.caches:
            fn.cache_clear()

    def verdict(self, index: int, job, result) -> str | None:
        """Check one answer; an identical CLI answer is checked only once."""
        if isinstance(result, BaseException):
            return f"raised {type(result).__name__}: {result}"
        if not isinstance(result, workloads.CliResult):
            return self._check(job, result)
        digest = hashlib.sha256()
        for text in (str(result.code), result.stdout, result.stderr):
            digest.update(text.encode() + b"\0")
        path = workloads.out_path(job, self.work)
        if path and os.path.exists(path):
            with open(path, "rb") as handle:
                digest.update(handle.read())
        key = (index, digest.hexdigest())
        if key not in self.verdicts:
            self.verdicts[key] = self._check(job, result)
        return self.verdicts[key]

    def _check(self, job, result) -> str | None:
        try:
            return workloads.check(job, result, self.work, self.mod["process"])
        except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
            return f"unreadable answer: {type(exc).__name__}: {exc}"

    def one_pass(self, recorder=None) -> dict:
        ops = dict.fromkeys(workloads.KIND_METRIC.values(), 0.0)
        wall = raw = timed = shots = written = failed = 0
        cli, process = self.mod["cli"], self.mod["process"]
        begin = len(recorder.spans) if recorder else 0
        for index, job in enumerate(self.jobs):
            self.clear_caches()
            gc.collect()
            if recorder:
                recorder.job = f"{self.passes}:{index}"
            try:
                with self.meter:
                    result = workloads.run(job, self.work, cli, process)
            except (Exception, SystemExit) as exc:  # a failed job; the run goes on
                result = exc
            if recorder:
                recorder.job = None
            elapsed = self.meter.scale(self.meter.measured)
            raw += self.meter.measured
            timed += self.meter.elapsed
            wall += elapsed
            if job.kind in workloads.KIND_METRIC:
                ops[workloads.KIND_METRIC[job.kind]] += elapsed
            shots += job.shots
            reason = self.verdict(index, job, result)
            if reason is None:
                written += _bytes_out(job, result, self.work)
            else:
                failed += 1
                self.failures.append(f"job {index} ({' '.join(job.argv) or job.kind}, "
                                     f"n={job.n}): {reason}")
        self.passes += 1
        # timed_s includes the probes taken inside the calls, as spans do.
        record = {"wall_s": wall, "raw_wall_s": raw, "timed_s": timed, "ops": ops,
                  "shots": shots, "failed": failed, "attempted": len(self.jobs),
                  "bytes_out": written, "traced": recorder is not None}
        if recorder:
            record["layers"] = recorder.summary(begin)
        return record


def _bytes_out(job, result, work: str) -> int:
    """Bytes the CLI wrote: standard output plus any ``--out`` file."""
    if not isinstance(result, workloads.CliResult):
        return 0
    path = workloads.out_path(job, work)
    return len(result.stdout.encode()) + (os.path.getsize(path) if path else 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="scratch directory")
    parser.add_argument("--result", required=True, help="result JSON path")
    parser.add_argument("--spans", help="span JSON-lines path (traced runs)")
    args = parser.parse_args(argv)

    modules = import_package(Path(args.root))
    jobs = workloads.plan(args.workload, args.seed)
    workloads.write_inputs(jobs, args.work, modules["process"], modules["diagop"])
    runner = Runner(modules, jobs, args.work)
    recorder = spans.Recorder(modules) if args.trace else None

    # Untraced passes only, or with tracing on one untraced pass followed by
    # two traced ones, repeated. A pass is started only if it is expected to
    # end within the budget; at least three passes run.
    passes: list[dict] = []
    started = time.perf_counter()
    lengths: list[float] = []
    while True:
        traced = bool(recorder) and len(passes) % 3 != 0
        t0 = time.perf_counter()
        if traced:
            recorder.install()
            try:
                passes.append(runner.one_pass(recorder))
            finally:
                recorder.uninstall()
        else:
            passes.append(runner.one_pass())
        lengths.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - started
        if len(passes) >= 3 and elapsed + sorted(lengths)[len(lengths) // 2] > args.seconds:
            break

    if recorder and args.spans:
        recorder.write(args.spans)
    result = {
        "passes": passes,
        "failures": runner.failures[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
