"""Smoke test of the benchmark's quick mode and its result schema.

Run from the repository root:  python3 -m pytest perfbench/test_quick.py -q
(about a minute; it is not part of the tests/ suite).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH_DIR = os.path.basename(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_line(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def assert_schema(metrics, declared):
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_end_to_end(workload):
    metrics = result_line(run_bench(ROOT, workload, 0))["metrics"]
    assert_schema(metrics, SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["value"] > 0


def test_quick_traced_covers_the_operation():
    metrics = result_line(run_bench(ROOT, "simulate-quasilinear1d-monitor", 1))["metrics"]
    assert_schema(metrics, SPEC["per_layer"])
    assert metrics["trace.span_coverage"]["value"] >= 0.9
    assert metrics["simulator.dissipation_symbol_field.calls"]["value"] > 0
    assert metrics["model.evaluator.calls"]["value"] > 0


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / BENCH_DIR,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
