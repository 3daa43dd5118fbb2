"""Self-test of the benchmark, at smoke size.

    python3 -m pytest -q perfbench/test_run.py

Runs each workload with one seed and checks that every metric of
BENCHMARK.json is printed with its unit, that exact counts repeat across two
traced runs and match the untraced output, and that a fresh seed changes the
inputs but not the op count.  It is not part of the package's test suite
(pytest's testpaths is tests/), because it takes about half a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

# per-layer metrics that are exact counts, so they must repeat exactly
EXACT = [m["name"] for m in SPEC["per_layer"]
         if m["unit"] in ("count", "bytes") or m["name"].endswith("_ratio")]


def run(workload: str, seed: int, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def parsed(workload: str, seed: int, trace: int):
    done = run(workload, seed, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_metrics_counts_and_seeds(workload):
    lines, info, result = parsed(workload, 1, 0)
    assert result["correct"], lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
        assert any(line.startswith(f"{workload} seed=1 {m['name']} = ")
                   and line.endswith(f" {m['unit']}") for line in lines)

    _, info_a, traced_a = parsed(workload, 1, 1)
    _, info_b, traced_b = parsed(workload, 1, 1)
    assert set(traced_a["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert traced_a["metrics"][m["name"]]["unit"] == m["unit"]
    assert traced_a["correct"] and traced_b["correct"]
    assert {n: traced_a["metrics"][n]["value"] for n in EXACT} == \
           {n: traced_b["metrics"][n]["value"] for n in EXACT}
    assert info_a["output_digests"] == info_b["output_digests"] == info["output_digests"]
    assert (traced_a["attempted"], traced_a["failed"]) == (traced_b["attempted"], traced_b["failed"])

    _, fresh, _ = parsed(workload, 2, 0)
    assert fresh["input_digest"] != info["input_digest"]
    assert fresh["op_count"] == info["op_count"]


def test_refuses_without_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run("tower", 1, 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
