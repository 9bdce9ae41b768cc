"""Smoke test of the benchmark: each workload at a tiny size, untraced and traced.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""
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


def _run(workload, trace, seed=5, cwd=ROOT, bench=BENCH):
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _report(stdout: str) -> tuple[dict, dict]:
    lines = stdout.splitlines()
    report = {}
    for line in lines[:-1]:
        key, _, value = line.partition(": ")
        report[key] = json.loads(value)
    return report, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit_and_checks_pass(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    report, result = _report(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report.get("wrong_outputs")
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    assert result["failed"] == 0
    # the known int64 tie-count overflow shows on the 40-item oracle slates only,
    # tallied apart from the failed operations
    overflow = report["figures"]["int64_overflow_failures"]
    assert (overflow > 0) if workload == "oracle" else (overflow == 0)
    env = report["environment"]
    for key in ("python", "numpy", "blas", "blas_version", "blas_threads", "nproc",
                "cpu_model", "git_commit"):
        assert key in env
    assert env["blas_threads"] in (1, None)
    if trace:
        assert report["trace"]["spans"] > 0
        assert (ROOT / ".benchrun" / report["trace"]["spans_file"]).is_file()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_reruns_agree_exactly(workload):
    first, second = (_report(_run(workload, 0, seed=9).stdout)[0]["fingerprints"]
                     for _ in range(2))
    assert first == second


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("study", 0, cwd=tmp_path, bench=tmp_path / BENCH.name)
    assert proc.returncode != 0
    assert proc.stdout == ""
