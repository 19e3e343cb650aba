"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest perfbench

Checks the result-line contract, that the correctness gate fails on a
wrong reference value, that the exact counts repeat, and that the
benchmark refuses to run where there is no library to import.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_meets_the_result_contract(workload, trace):
    out = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--tiny")
    assert out.returncode == 0, out.stderr
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0, out.stderr
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", ["finite_exact", "cli"])
def test_gate_fails_on_a_wrong_reference(workload):
    wrong = {"college1": Fraction(9, 4), "college2": Fraction(7, 3)}
    result = run.run(workload, 3, 0, False, tiny=True, refs=wrong)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert any("7/3" in msg for f in result["failures"] for msg in f["fail"])


@pytest.mark.parametrize("workload", ["finite_float", "continuous_sweep"])
def test_exact_counts_repeat_across_runs(workload):
    first = run.run(workload, 5, 0, True, tiny=True)
    again = run.run(workload, 5, 0, True, tiny=True)
    assert first["correct"] and again["correct"]
    assert first["counts"] and first["counts"] == again["counts"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("--workload", "finite_float", "--seed", "1", "--seconds",
                 "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_self_time_subtracts_direct_children():
    tr = Tracer()
    tr.spans = [["job", 0.0, 10.0, None, "j", False],
                ["a", 1.0, 4.0, 0, "j", False],
                ["b", 2.0, 3.0, 1, "j", False],
                ["p", 5.0, 7.0, 0, "j", True]]
    assert tr.self_times() == {"job": (5.0, 1), "a": (2.0, 1),
                               "b": (1.0, 1), "p": (2.0, 1)}
    assert tr.probe_seconds() == 2.0
