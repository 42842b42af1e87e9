"""Smoke test of the benchmark harness at tiny sizes.

    python -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(cwd, workload, trace, seed=3):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
           "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, text=True, capture_output=True,
                          timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in names)


def test_counts_repeat_exactly():
    def counts():
        proc = run(ROOT, "cli-batch", 1)
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        return {k: v["value"] for k, v in metrics.items()
                if v["unit"] in ("count", "bytes")}
    assert counts() == counts()


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_path_error_is_the_roundtrip_measure():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from siginvert import PiecewiseLinearPath, invert_signature, path_signature
    from siginvert.cli import roundtrip_errors
    from workloads import path_error

    theta = np.linspace(0.0, np.pi, 21)
    path = PiecewiseLinearPath(np.column_stack([np.cos(theta), np.sin(theta)]))
    recon = invert_signature(path_signature(path, 8), start=path.points[0])
    assert path_error(path.points, recon.path.points) == roundtrip_errors(path, 8)[0]
