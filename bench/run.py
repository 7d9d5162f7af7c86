"""Benchmark of the acausal package on three seeded workloads.

    python3 bench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src``.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics and the reach report. Each metric is printed by name
with its unit; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. See
``bench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reach
import workloads
from worker import SpeedMeter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 9
DEADLINE_S = 170.0

END_TO_END = (
    ("wall_s", "s"), ("validate_s", "s"), ("export_s", "s"), ("play_s", "s"),
    ("conditional_s", "s"), ("causal_bound_s", "s"), ("sample_shots_per_s", "1/s"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"),
)

# Per-layer metric -> unit and its source in a traced pass's span summary:
# "<span>.s" is inclusive time, "<span>.self_s" self time, "<span>:<size>"
# a size summed over the spans of that name.
PER_LAYER = (
    ("diagop.is_nonnegative.s", "s", ["diagop.is_nonnegative.s"]),
    ("diagop.is_nonnegative.entries", "count", ["diagop.is_nonnegative:entries"]),
    ("diagop.to_dense.s", "s", ["diagop.to_dense.s"]),
    ("diagop.to_dense.entries", "count", ["diagop.to_dense:entries"]),
    ("diagop.multiply.s", "s", ["diagop.multiply.s"]),
    ("diagop.multiply.products", "count", ["diagop.multiply:products"]),
    ("diagop.channel_apply.self_s", "s", ["diagop.channel_apply.self_s"]),
    ("diagop.from_dense.s", "s", ["diagop.from_dense.s"]),
    ("diagop.partial_trace.s", "s", ["diagop.partial_trace.s"]),
    ("diagop.json.s", "s", ["diagop.json.s"]),
    ("process.conditional_distribution.self_s", "s", ["process.conditional_distribution.self_s"]),
    ("process.validate_process.self_s", "s", ["process.validate_process.self_s"]),
    ("process.bilinear.checked", "count", ["process.validate_process:checked"]),
    ("process.build_w.s", "s", ["process.build_w.s"]),
    ("process.build_w.terms", "count", ["process.build_w:terms"]),
    ("process.loop_decomposition.self_s", "s", ["process.loop_decomposition.self_s"]),
    ("game.success_probability_exact.self_s", "s", ["game.success_probability_exact.self_s"]),
    ("game.outcome_distribution.self_s", "s", ["game.outcome_distribution.self_s"]),
    ("game.pair_products", "count", ["game.success_probability_exact:pair_products",
                                     "game.outcome_distribution:pair_products"]),
    ("game.sample_game.self_s", "s", ["game.sample_game.self_s"]),
    ("game.shots", "count", ["game.sample_game:shots"]),
    ("causal.forwarding_strategy_success.s", "s", ["causal.forwarding_strategy_success.s"]),
    ("causal.brute_force_causal.s", "s", ["causal.brute_force_causal.s"]),
    ("causal.evaluations", "count", ["causal.forwarding_strategy_success:evaluations",
                                     "causal.brute_force_causal:evaluations"]),
    ("cli.main.self_s", "s", ["cli.main.self_s"]),
    ("cli.build_w.self_s", "s", ["cli.build_w.self_s"]),
    ("cli.validate.self_s", "s", ["cli.validate.self_s"]),
    ("cli.play.self_s", "s", ["cli.play.self_s"]),
    ("cli.sample.self_s", "s", ["cli.sample.self_s"]),
    ("cli.causal_bound.self_s", "s", ["cli.causal_bound.self_s"]),
    ("cli.export.self_s", "s", ["cli.export.self_s"]),
)
# Computed from several sources below.
DERIVED_LAYER = (
    ("diagop.multiply.yield", "ratio"), ("cli.bytes_out", "count"),
    ("bench.self_s", "s"), ("trace.overhead_s", "s"),
) + tuple((f"reach.{op}.max_n", "parties") for op in reach.OPS)
LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER} | dict(DERIVED_LAYER)


def tail(values: list[float]) -> str:
    """The highest nearest-rank percentile with ten samples beyond it."""
    k = len(values) - 10
    if k < 1:
        return f"tail n/a (needs 11 passes, have {len(values)})"
    return f"p{100 * k // len(values)} {sorted(values)[k - 1]:.6g}"


def measure_setup() -> float:
    """Median time a fresh interpreter takes to ``import acausal.cli``.

    The import is timed inside that interpreter, so start-up itself is left
    out, and scaled to the reference speed by the host speed sampled around
    and during the child's run (see ``worker.SpeedMeter``).
    """
    code = ("import sys, time; start = time.perf_counter(); sys.path.insert(0, 'src'); "
            "import acausal.cli; print(time.perf_counter() - start)")
    cmd = [sys.executable, "-c", code]
    subprocess.run(cmd, cwd=ROOT, check=True, timeout=60, capture_output=True)  # bytecode
    meter = SpeedMeter()
    times = []
    for _ in range(SETUP_REPEATS):
        with meter:
            proc = subprocess.run(cmd, cwd=ROOT, check=True, timeout=60,
                                  capture_output=True, text=True)
        times.append(meter.scale(float(proc.stdout)))
    return statistics.median(times)


def end_to_end(passes: list[dict], setup_s: float, peak_rss_mb: float) -> dict:
    series = {"wall_s": [p["wall_s"] for p in passes]}
    raw = statistics.median(p["raw_wall_s"] for p in passes)
    print(f"wall_s as measured, before scaling to the reference speed: median {raw:.6g} s")
    for name in ("validate_s", "export_s", "play_s", "conditional_s", "causal_bound_s"):
        series[name] = [p["ops"][name] for p in passes]
    series["sample_shots_per_s"] = [p["shots"] / p["ops"]["sample_s"] for p in passes]
    for name, values in series.items():
        print(f"{name}: median {statistics.median(values):.6g}, {tail(values)}, "
              f"passes {len(values)}")
    values = {name: statistics.median(v) for name, v in series.items()}
    values.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb)
    return values


def per_layer(passes: list[dict], reach_n: dict) -> tuple[dict, list[str]]:
    """Per-layer values and the work counts that differ between passes."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    series: dict[str, list[float]] = {}
    for name, unit, sources in PER_LAYER:
        series[name] = [sum(p["layers"].get(s, 0) for s in sources) for p in traced]
    series["diagop.multiply.yield"] = [
        p["layers"].get("diagop.multiply:out_terms", 0) / p["layers"]["diagop.multiply:products"]
        for p in traced]
    series["cli.bytes_out"] = [p["bytes_out"] for p in traced]
    series["bench.self_s"] = [p["timed_s"] - p["layers"]["roots.s"] for p in traced]
    counts = {name for name in series if LAYER_UNITS[name] == "count"}
    unstable = [name for name in counts if len(set(series[name])) != 1]
    values = {name: v[0] if name in counts else statistics.median(v)
              for name, v in series.items()}
    values["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                  - statistics.median(p["wall_s"] for p in plain))
    for op, n in reach_n.items():
        values[f"reach.{op}.max_n"] = n
    return values, unstable


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "acausal" / "__init__.py").is_file():
        print(f"error: no acausal package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)
    try:
        # A traced run climbs the reach ladders first and gives the passes
        # what is left of --seconds (the worker still runs its minimum).
        problems, reach_n = [], {}
        budget_end = time.monotonic() + args.seconds
        if args.trace:
            for op in reach.OPS:
                reach_n[op], wrong = reach.climb(ROOT, op, work, args.seed, deadline)
                if wrong:
                    problems.append(wrong)
        setup_s = None if args.trace else measure_setup()
        result_path = Path(work) / "result.json"
        spans_path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        cmd = [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(max(0.0, budget_end - time.monotonic())),
               "--trace", str(args.trace), "--work", work,
               "--result", str(result_path), "--spans", str(spans_path)]
        proc = subprocess.run(cmd, timeout=deadline - time.monotonic())
        if proc.returncode != 0 or not result_path.exists():
            print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text())
        passes = result["passes"]
        problems += result["failures"]

        if args.trace:
            metrics, unstable = per_layer(passes, reach_n)
            problems += [f"work count {name} differs between passes" for name in unstable]
            units = LAYER_UNITS
        else:
            metrics = end_to_end(passes, setup_s, result["peak_rss_mb"])
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"fail_ratio: {failed}/{attempted} jobs")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
