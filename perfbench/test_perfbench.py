"""Tests of the benchmark itself: smoke runs, the fingerprint gate and names.

Every run here uses the ``tiny`` size, so the whole module takes seconds.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import record
import run

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = run._workloads()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_planted_fingerprint_mismatch_fails_every_request():
    summary = run.run_benchmark("fleet-alpaca", seed=0, seconds=1, trace=False,
                                size="tiny", expected="0" * 64)
    assert summary["correct"] is False
    assert summary["failed"] == summary["attempted"] > 0


def test_fingerprints_are_recorded_for_every_workload_and_size():
    for workload in WORKLOADS:
        for size in ("full", "tiny"):
            for seed in record.RECORDED_SEEDS:
                assert run.recorded_fingerprint(workload, size, seed), (workload, size, seed)


def test_names_and_units_match_the_benchmark_definition():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    names = list(WORKLOADS) + list(run.END_TO_END) + list(run.PER_LAYER)
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(set(names)) == len(names)
