"""The benchmark is deterministic and reports every metric it declares.

Runs ``run.py`` on tiny inputs in subprocesses (the traced mode patches
process-wide functions, so each run gets a fresh interpreter).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_tiny(workload: str, trace: int) -> tuple[dict, dict]:
    completed = subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny",
        ],
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return report, result


def units(result: dict) -> dict[str, str]:
    return {name: entry["unit"] for name, entry in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_and_outputs_repeat_for_one_seed(workload):
    first_report, first = run_tiny(workload, trace=1)
    second_report, second = run_tiny(workload, trace=1)

    def counts(result):
        return {
            name: entry["value"]
            for name, entry in result["metrics"].items()
            if entry["unit"] == "count"
        }

    assert counts(first) == counts(second)
    assert first_report["output_signature"] == second_report["output_signature"]
    assert units(first) == {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}


def test_untraced_run_reports_every_end_to_end_metric():
    report, result = run_tiny(WORKLOADS[0], trace=0)
    assert units(result) == {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    for key in ("seed", "nproc", "python", "numpy", "blas", "blas_threads", "commit", "saved_at"):
        assert key in report["environment"]
    assert report["host_probe_before"]["python_s"] > 0
