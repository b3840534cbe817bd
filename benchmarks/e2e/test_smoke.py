"""Smoke test of the end-to-end benchmark: every code path, tiny sizes.

Not part of tier-1 (``pyproject.toml`` collects ``tests/`` only); run it with
``python -m pytest benchmarks/e2e -q``.  Each case starts the real command in
a subprocess, the way the driver does.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_declared_metric(workload: str, trace: int) -> None:
    """Each workload, traced and not, ends on a correct result with the declared metrics."""
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--smoke", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [entry["name"] for entry in declared]
    for entry in declared:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
    if not trace:
        assert result["metrics"]["max_visits_per_site"]["value"] == 1
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    else:
        assert (HERE / "out" / f"trace-{workload}.jsonl").stat().st_size > 0


def test_same_seed_same_modeled_traffic_in_process_and_over_sockets() -> None:
    """Modeled traffic repeats exactly and does not depend on the executor."""
    traffic = []
    for workload in ("oneshot-cold", "socket-cold", "oneshot-cold"):
        done = _run(ROOT, "--workload", workload, "--seed", "5", "--smoke")
        assert done.returncode == 0, done.stderr
        metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
        traffic.append(metrics["traffic_bytes_per_query"]["value"])
    assert traffic[0] == traffic[1] == traffic[2]


def test_fails_without_a_result_when_the_system_is_missing(tmp_path: Path) -> None:
    """With only BENCHMARK.json and the benchmark's own files, the command fails."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__")
        )
    done = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1")
    assert done.returncode != 0
    assert "{" not in done.stdout
