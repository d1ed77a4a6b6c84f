"""Smoke test of the benchmark at tiny sizes; it gates no timing.

  python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import measure  # noqa: E402
import workloads  # noqa: E402
from sizes import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(root, *args):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def _result(workload, trace):
    out = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny")
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def _assert_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and metric["value"] > 0


def test_workloads_declared():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    _assert_metrics(_result(workload, 0), SPEC["end_to_end"])


def test_per_layer_metrics():
    result = _result("verify-full", 1)
    _assert_metrics(result, SPEC["per_layer"])
    shares = [m["value"] for name, m in result["metrics"].items() if name.startswith("share.")]
    assert sum(shares) == pytest.approx(100)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expected_value_is_a_failure(workload):
    items = workloads.build(workload, 3, "tiny")
    first = items[0]

    def wrong(tracer):
        gate, got, _ = first.run(tracer)[0]
        return [(gate, got, "a value no gate produces")]

    items[0] = workloads.Item(first.label, wrong)
    result = measure.end_to_end(items, seconds=0.1)
    passes = result["detail"]["passes"]
    assert result["failed"] == passes
    assert result["detail"]["fail_ratio"] == pytest.approx(1 / len(items))
    assert "wall_s" not in result["metrics"]


def test_no_library_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    out = _run(tmp_path, "--workload", "long-inputs", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""
