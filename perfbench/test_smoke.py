"""Smoke test of the benchmark harness at its smallest inputs.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(script: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--seed", "7", "--seconds", "0", *args],
        capture_output=True, text=True, timeout=170,
    )


def _result(*args: str) -> tuple[str, dict]:
    proc = _run(HERE / "run.py", "--size", "smoke", *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    _, result = _result("--workload", workload, "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_raises_fail_ratio(workload):
    stdout, result = _result("--workload", workload, "--trace", "0", "--corrupt")
    assert result["failed"] >= 1 and not result["correct"]
    ratio = next(line for line in stdout.splitlines() if line.strip().startswith("fail_ratio"))
    assert float(ratio.split()[1]) > 0


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path / HERE.name / "run.py", "--workload", WORKLOADS[0], "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
