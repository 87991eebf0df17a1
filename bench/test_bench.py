"""Tests of the benchmark itself, at the smoke size.

Run with `python3 -m pytest bench` from the root of the checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().with_name("run.py")
ROOT = RUN.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_checks_outputs_and_prints_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--smoke", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], lines[:-1]
    assert result["attempted"] >= 1
    # The one operation allowed to fail is the truncated reload.
    failures = [line for line in lines[:-1] if line.startswith("FAILED")]
    assert all("solver.load_states" in line for line in failures)
    assert result["failed"] in (0, 1 + trace)
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_traced_counts_of_the_smoke_study():
    proc = _run(ROOT, "--workload", "study-standing", "--smoke", "--trace", "1")
    result = json.loads(proc.stdout.splitlines()[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    steps = metrics["solver.steps"]
    assert metrics["solver.lu_solves"] == steps
    assert metrics["estimators.spatial_estimate_calls"] == 3 * steps + 2 * 3
    assert metrics["verification.f_evals"] == 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "estimate-varcoef", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
