"""The benchmark harness runs on this tree.

For each workload, ``bench/worker.py`` runs one untraced and two traced
passes, and ``bench/run.py``'s ``per_layer`` reads them as a traced
``bench/run.py`` run does: every job answers correctly, every per-layer
metric it reads is recorded, and the traced work counts agree.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


@pytest.mark.parametrize("workload", ("certify", "evaluate", "sample"))
def test_traced_passes_answer_and_count_stably(tmp_path, monkeypatch, workload):
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
         "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1",
         "--work", str(tmp_path), "--result", str(result)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(result.read_text())
    passes = out["passes"]
    assert [p["traced"] for p in passes] == [False, True, True]
    assert out["failures"] == []
    assert all(p["failed"] == 0 for p in passes)

    monkeypatch.syspath_prepend(str(BENCH))
    for name in ("run", "reach", "workloads", "worker", "spans"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import run

    _, unstable = run.per_layer(passes, {})
    assert unstable == []
