"""Quick-mode runs of the benchmark, so the harness cannot rot.

Run from the repository root with ``python -m pytest perfbench``.
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
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload: str, trace: int, seed: int = 0, root: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def result(workload: str, trace: int, seed: int = 0) -> dict:
    proc = run(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_passes_every_check(workload, trace, seed):
    out = result(workload, trace, seed)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    section = BENCH["end_to_end"] if trace == 0 else BENCH["per_layer"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {m["name"]: m["unit"] for m in section}


def test_traced_counts_repeat_between_runs():
    counted = [m["name"] for m in BENCH["per_layer"] if m["unit"] not in ("s", "ms", "Mdraws/s")]
    first, second = (result("series_critical", 1)["metrics"] for _ in range(2))
    assert {n: first[n]["value"] for n in counted} == {n: second[n]["value"] for n in counted}
    assert first["grids.convolve.calls"]["value"] > 0
    assert first["construct.bound_miss_1d"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("series_critical", 0, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
