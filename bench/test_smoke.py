"""Smoke test of the benchmark: every workload at tiny size, checks on.

    python3 -m pytest bench/test_smoke.py -q

Each run happens in a scratch copy of the checkout (``src/``, ``bench/`` and
``BENCHMARK.json``), untraced and traced, and must pass its output checks and
report exactly the metrics BENCHMARK.json lists. A copy without ``src/`` must
exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _checkout(tmp_path: Path, with_source: bool = True) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=ignore)
    if with_source:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    return tmp_path


def _run(checkout: Path, workload: str, trace: int):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_passes_its_checks(tmp_path, workload, trace):
    proc = _run(_checkout(tmp_path), workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if trace:
        out = tmp_path / "bench" / "out" / workload
        assert (out / "spans.jsonl").stat().st_size > 0
        assert (out / "self_time.tsv").read_text().startswith("phase\tname")


def test_refuses_a_directory_without_the_package(tmp_path):
    proc = _run(_checkout(tmp_path, with_source=False), "fleet_detect", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
