"""Smoke test of the benchmark: every workload at a tiny population, once
untraced and once traced, with every correctness check on.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _result(capsys) -> dict:
    lines = capsys.readouterr().out.strip().splitlines()
    assert "provenance" in json.loads(lines[-2])["report"]
    return json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_and_checks_pass(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0",
            "--trace", str(trace)]
    assert run.main(argv, smoke=True) == 0
    result = _result(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for spec in wanted:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_cells",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
