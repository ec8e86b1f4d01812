"""Smoke test of the benchmark at a tiny size (3 classes x 2 samples x 32 px).

Run from the repository root: python3 -m pytest perfbench/test_smoke.py -q

Each workload runs once untraced and once traced. The test checks that the
result line has the contract's keys, that every metric BENCHMARK.json
declares is present with its unit, that the run record also carries the
undeclared metrics of its workload (images_per_s, queries_per_s and
fail_ratio), that the traced run wrapped every target and covered most of
its wall time, and that the benchmark refuses to run where there are no cldp
sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import REPORTED_UNITS, WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


# Interpreter start lies outside every span and is about a third of a 0.36 s
# operation at this size; run.py gates trace.coverage >= 0.9 at the default
# sizes only.
COVERAGE_AT_SMOKE_SIZE = 0.5

# The undeclared end-to-end metrics each workload must record.
REPORTED = {
    "extract": ("images_per_s", "fail_ratio"),
    "classify": ("queries_per_s", "fail_ratio"),
    "matrix": ("images_per_s", "queries_per_s", "fail_ratio"),
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_reports_every_metric(tmp_path, workload, trace):
    record_path = tmp_path / "record.json"
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace),
                 "--shape", "3,2,32", "--record", str(record_path)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= (2 if trace else 1)
    section = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    record = json.loads(record_path.read_text(encoding="utf-8"))
    for name in REPORTED[workload]:
        assert record["end_to_end"][name]["unit"] == REPORTED_UNITS[name]
    assert record["end_to_end"]["fail_ratio"]["value"] == 0
    if trace:
        traced = [op for op in record["ops"] if op["traced"]]
        assert traced and all(op["skipped"] == [] for op in traced)
        assert record["per_layer"]["trace.coverage"]["value"] > COVERAGE_AT_SMOKE_SIZE


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "extract",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
