"""Tiny-size runs of every workload through the benchmark's command line."""

import json
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT

E2E = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
PER_LAYER = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}


def _run(workload: str, trace: int, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.mark.parametrize("workload", ["bundled", "long-history", "verify"])
def test_end_to_end_smoke(workload):
    proc = _run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 22
    assert set(result["metrics"]) == E2E
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["bundled", "long-history", "verify"])
def test_traced_smoke(workload):
    proc = _run(workload, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stdout
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == PER_LAYER
    assert metrics["trace.coverage"] > 0.95
    if workload == "verify":
        assert metrics["ingest.parse_calls"] == 0 and metrics["planner.solves"] > 0
        assert metrics["planner.oracle_points"] == 81
    else:
        assert metrics["planner.solves"] == 0 and metrics["ingest.parse_calls"] == 12
        assert metrics["gap.series_passes"] == (8 if workload == "bundled" else 16)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("bundled", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
