"""Smoke test of the benchmark: tiny sizes of all three workloads, full path.

Runs ``run.py --workload all --smoke --trace 1`` in a subprocess (its own
Spark JVM and configuration) and checks the result line: every check passed
and every per-layer metric of ``BENCHMARK.json`` was emitted per workload.

    python3 -m pytest perfbench/test_smoke.py -q -p no:cacheprovider
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_smoke_all_workloads_traced():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--smoke",
         "--trace", "1", "--seconds", "1", "--seed", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, [l for l in lines if "FAILED CHECK" in l]
    assert result["attempted"] > 0 and result["failed"] == 0
    names = {w["name"] for w in spec["workloads"]} | {"sp_rhs"}  # sp_rhs: run by name only
    for name in names:
        for m in spec["per_layer"]:
            key = f"{name}.{m['name']}"
            assert key in result["metrics"], key
            assert result["metrics"][key]["unit"] == m["unit"], key
    assert sum(" error_rate " in l for l in lines) == len(names)


def test_refuses_unknown_workload():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nope"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
