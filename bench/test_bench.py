"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest bench

Runs every workload untraced and traced, checks that each metric named in
BENCHMARK.json is printed with its unit, that corrupted outputs count as
failures, that traced counts repeat exactly for one seed, that pacing
scales a step's wall time by the reference kernel, and that the
benchmark refuses to run without the program's sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import pace
import run
import spans
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def bench(*args, cwd=BENCH.parent):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_printed_with_unit(name, trace):
    proc = bench("--workload", name, "--seed", "3", "--seconds", "0.5",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    *report, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {m: v["unit"] for m, v in result["metrics"].items()} == want
    for metric, unit in want.items():
        value = result["metrics"][metric]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), metric
        assert any(line.startswith(f"{metric} ") and f" {unit}" in line for line in report), metric
    assert any(line.startswith("fail_ratio 0 ") for line in report)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_corrupted_output_counts_as_failure(name, tmp_path):
    result, report = run.run_workload(name, seed=3, seconds=0.2, trace=0, size="tiny",
                                      workdir=tmp_path, corrupt=True)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert any(line.startswith("fail_ratio 1 ") for line in report)


def test_traced_counts_repeat_for_one_seed(tmp_path):
    for name in WORKLOADS:
        first, second = (
            run.run_workload(name, seed=5, seconds=0.2, trace=1, size="tiny", workdir=tmp_path)[0]
            for _ in range(2)
        )
        assert first["correct"] and second["correct"]
        for metric in spans.EXACT:
            assert first["metrics"][metric] == second["metrics"][metric], (name, metric)


def test_pace_scales_wall_time_by_the_kernel(monkeypatch):
    slow = iter([2.0, 2.0, 4.0])  # the machine slows between the brackets
    monkeypatch.setattr(pace, "kernel", lambda eigensolve: pace.REFERENCE_S[eigensolve] * next(slow))
    clock = pace.Pace()
    monkeypatch.setattr(pace, "perf_counter", iter([10.0, 13.0]).__next__)
    assert clock.step(lambda: "out") == "out"
    assert clock.wall == 3.0
    assert clock.paced == pytest.approx(3.0 / 3.0)


def test_dark_oracle_counts_spin_singlets():
    # total-spin-zero multiplicity C(n, n/2) - C(n, n/2 - 1)
    assert oracle.dark_count_full([1.0] * 4, [0.01] * 4) == 2
    assert oracle.dark_count_full([1.0] * 8, [0.02] * 8) == 14
    assert oracle.dark_count_full([0.97, 1.0, 1.02, 1.04], [0.01, 0.02, 0.015, 0.012]) == 0


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
