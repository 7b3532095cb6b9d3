"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that no op fails, that the exact counts of a traced run repeat, and that the
benchmark refuses to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, root: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=300)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    details, result = result_of(bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert details["failed_frac"] == 0.0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    items = "windows_per_s" if workload.startswith("report") else "queries_per_s"
    assert details[items] > 0
    assert details["known_defect_probe"]["exit"] != 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_exact_counts(workload):
    first = result_of(bench(workload, 1))
    second = result_of(bench(workload, 1))
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for details, result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert details["unstable_counts"] == []
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    counts = [name for name, unit in units.items() if unit in ("count", "frac", "B")]
    assert [first[1]["metrics"][n]["value"] for n in counts] == \
        [second[1]["metrics"][n]["value"] for n in counts]
    assert first[0]["output_digest"] == second[0]["output_digest"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(WORKLOADS[0], 0, tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
