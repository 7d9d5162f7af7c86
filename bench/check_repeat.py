"""Check that the traced run's work counts repeat exactly.

    python3 bench/check_repeat.py --seed 1

For every workload, runs the worker twice in fresh processes with the
same seed and tracing on, and compares every count (sizes summed over the
spans, and the CLI's bytes out) of every traced pass. Exits 1 on the first
difference.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def counts(workload: str, seed: int, work: str) -> list[dict]:
    result = Path(work) / "result.json"
    subprocess.run([sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
                    "--workload", workload, "--seed", str(seed), "--seconds", "0",
                    "--trace", "1", "--work", work, "--result", str(result)],
                   check=True, timeout=170)
    passes = json.loads(result.read_text())["passes"]
    return [{"bytes_out": p["bytes_out"],
             **{k: v for k, v in p["layers"].items() if ":" in k}}
            for p in passes if p["traced"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    work = tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)
    try:
        for workload in workloads.WORKLOADS:
            first = counts(workload, args.seed, work)
            second = counts(workload, args.seed, work)
            runs = first + second
            differ = sorted(k for k in runs[0] if len({r.get(k) for r in runs}) != 1)
            if differ:
                print(f"{workload}: counts differ: {differ}")
                return 1
            print(f"{workload}: {len(runs[0])} counts equal over {len(runs)} traced passes "
                  f"in two processes")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
