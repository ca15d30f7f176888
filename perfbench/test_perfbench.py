"""Smoke tests of the benchmark: every workload, traced and untraced, at tiny
sizes, plus the failure paths of the output checks."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, root=ROOT):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--smoke", "--seconds", "0.5", *args]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest(proc):
    return next(line for line in proc.stdout.splitlines() if line.startswith("output digest:"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    out = result(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in out["metrics"].items()
    }
    assert all(isinstance(m["value"], float) for m in out["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reruns_are_bitwise_identical(workload):
    first, second = (bench("--workload", workload, "--seed", "5") for _ in range(2))
    assert first.returncode == second.returncode == 0
    assert digest(first) == digest(second)


def copy_checkout(tmp_path, with_sources=True):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    if with_sources:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def test_reference_mismatch_fails_the_run(tmp_path):
    root = copy_checkout(tmp_path)
    ref_file = root / "perfbench" / "reference.json"
    refs = json.loads(ref_file.read_text())
    refs["smoke"]["stream-4k"]["stream"]["probabilities"][0][0] += 1e-5
    ref_file.write_text(json.dumps(refs))
    proc = bench("--workload", "stream-4k", "--seed", "3", root=root)
    assert proc.returncode == 1
    out = result(proc)
    assert out["correct"] is False and out["failed"] > 0
    assert out["metrics"]["ok_ratio"]["value"] < 1


def test_without_sources_exits_nonzero_without_result(tmp_path):
    root = copy_checkout(tmp_path, with_sources=False)
    proc = bench("--workload", "train-300", "--seed", "1", root=root)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
