"""Smoke test of the benchmark harness at tiny sizes; it has no timing gate.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs with ``--smoke`` (verify --grid 3, a 1,001-row sweep,
50 queries), untraced and traced.  The test checks that the harness
exits 0, that its last line is the JSON result, that every metric named
in BENCHMARK.json is present with its unit, and that call counts repeat
between two traced runs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = _result(_run(ROOT, workload, 0))
    wanted = SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert metric["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics_and_repeatable_counts(workload):
    first, second = (_result(_run(ROOT, workload, 1)) for _ in range(2))
    wanted = SPEC["per_layer"]
    assert list(first["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert first["metrics"][m["name"]]["unit"] == m["unit"]
    calls = [
        {k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")}
        for r in (first, second)
    ]
    assert calls[0] == calls[1]
    assert sum(calls[0].values()) > 0


def test_fails_without_package_source():
    bare = ROOT / ".bench_build" / "perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(bare, WORKLOADS[0], 0)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
