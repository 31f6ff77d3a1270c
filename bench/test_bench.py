"""Self-test of the benchmark: a short run of each workload, traced and not,
must report every metric BENCHMARK.json names, with its unit and sample
count, and a directory without the package must make it fail.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd, workload, trace, seconds="1"):
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "7",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    result, report = json.loads(result_line), json.loads(report_line)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        assert isinstance(report["metrics"][m["name"]]["n"], int), m["name"]
    if not trace:
        for m in wanted:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]
    elif workload.startswith("tune-"):
        assert result["metrics"]["harness.cache.hit_ratio"]["value"] == 1.0
    for key in ("nproc", "python", "numpy", "scipy", "blas", "blas_threads",
                "seed", "git_commit"):
        assert key in report["env"], key


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, "pretrain", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
