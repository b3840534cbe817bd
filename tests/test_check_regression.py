"""The CI benchmark-regression gate script (``benchmarks/check_regression.py``)."""

from __future__ import annotations

import importlib.util
import json
import re
from itertools import takewhile
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_regression", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _payload(traffic=10.0, network=1.0, visits=4, hit_rate=0.8, speedup=5.0):
    return {
        "workload": {
            "columns": [],
            "rows": [
                {
                    "mode": "one-by-one",
                    "traffic_KB": 100.0,
                    "network_ms": 50.0,
                    "visits": 400,
                },
                {
                    "mode": "batch",
                    "traffic_KB": traffic,
                    "network_ms": network,
                    "visits": visits,
                    "hit_rate": hit_rate,
                    "speedup": speedup,
                },
            ],
        }
    }


def _partition_payload(refined_vf=100, refined_traffic=5.0, hash_vf=500,
                       hash_traffic=50.0, datasets=("amazon", "youtube")):
    rows = []
    for dataset in datasets:
        for partitioner, vf, traffic in [
            ("hash", hash_vf, hash_traffic),
            ("refined", refined_vf, refined_traffic),
            ("multilevel", refined_vf + 20, refined_traffic + 1.0),
        ]:
            rows.append(
                {
                    "dataset": dataset,
                    "partitioner": partitioner,
                    "algorithm": "disReach",
                    "Vf": vf,
                    "traffic_KB": traffic,
                }
            )
    return {"partition": {"columns": [], "rows": rows}}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestGate:
    def test_identical_runs_pass(self, gate, tmp_path, capsys):
        base = _write(tmp_path, "base.json", _payload())
        cur = _write(tmp_path, "cur.json", _payload())
        assert gate.main([cur, base]) == 0
        assert "no regression" not in capsys.readouterr().err

    def test_within_tolerance_passes(self, gate, tmp_path):
        base = _write(tmp_path, "base.json", _payload())
        cur = _write(tmp_path, "cur.json", _payload(traffic=12.0))
        assert gate.main([cur, base]) == 0

    def test_cost_regression_fails(self, gate, tmp_path, capsys):
        base = _write(tmp_path, "base.json", _payload())
        cur = _write(tmp_path, "cur.json", _payload(traffic=13.0))
        assert gate.main([cur, base]) == 1
        assert "batch/traffic_KB" in capsys.readouterr().err

    def test_floor_violations_fail(self, gate, tmp_path, capsys):
        base = _write(tmp_path, "base.json", _payload())
        cur = _write(tmp_path, "cur.json", _payload(hit_rate=0.3, speedup=1.2))
        assert gate.main([cur, base]) == 1
        err = capsys.readouterr().err
        assert "hit_rate" in err and "speedup" in err

    def test_improvement_suggests_baseline_refresh(self, gate, tmp_path, capsys):
        base = _write(tmp_path, "base.json", _payload())
        cur = _write(tmp_path, "cur.json", _payload(traffic=2.0))
        assert gate.main([cur, base]) == 0
        assert "refreshing" in capsys.readouterr().out

    def test_step_summary_written(self, gate, tmp_path, monkeypatch):
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        base = _write(tmp_path, "base.json", _payload())
        assert gate.main([base, base]) == 0
        assert "Benchmark regression gate" in summary.read_text()

    def test_missing_experiment_rejected(self, gate, tmp_path):
        bad = _write(tmp_path, "bad.json", {"table2": {"rows": []}})
        good = _write(tmp_path, "good.json", _payload())
        with pytest.raises(SystemExit) as excinfo:
            gate.main([bad, good])
        assert excinfo.value.code == 2

    def test_unreadable_file_exits_2(self, gate, tmp_path, capsys):
        good = _write(tmp_path, "good.json", _payload())
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{not json", encoding="utf-8")
        for current in (str(garbage), str(tmp_path / "absent.json")):
            with pytest.raises(SystemExit) as excinfo:
                gate.main([current, good])
            assert excinfo.value.code == 2
            assert "cannot read" in capsys.readouterr().err

    def test_committed_baseline_is_wellformed(self, gate):
        baseline = SCRIPT.parent / "baseline.json"
        rows = gate.rows_by_key(gate.load_payload(baseline), "workload")
        assert {("one-by-one",), ("batch",)} <= set(rows)
        assert gate.main([str(baseline), str(baseline)]) == 0

    def test_committed_baseline_has_partition_experiment(self, gate):
        payload = gate.load_payload(SCRIPT.parent / "baseline.json")
        rows = gate.rows_by_key(payload, "partition")
        assert rows, "baseline.json must carry the pinned partition sweep"
        partitioners = {p for _d, p, _a in rows}
        assert {"hash", "refined", "multilevel"} <= partitioners


class TestPartitionGate:
    """The partition-quality checks: exact Vf ceilings + refined-beats-hash."""

    def _both(self, tmp_path, name, workload, partition):
        payload = dict(workload)
        payload.update(partition)
        return _write(tmp_path, name, payload)

    def test_identical_partition_runs_pass(self, gate, tmp_path):
        base = self._both(tmp_path, "base.json", _payload(), _partition_payload())
        cur = self._both(tmp_path, "cur.json", _payload(), _partition_payload())
        assert gate.main([cur, base]) == 0

    def test_current_merged_from_two_files(self, gate, tmp_path):
        base = self._both(tmp_path, "base.json", _payload(), _partition_payload())
        wl = _write(tmp_path, "wl.json", _payload())
        pt = _write(tmp_path, "pt.json", _partition_payload())
        assert gate.main([wl, pt, base]) == 0

    def test_vf_ceiling_is_exact(self, gate, tmp_path, capsys):
        base = self._both(tmp_path, "base.json", _payload(), _partition_payload())
        cur = self._both(
            tmp_path, "cur.json", _payload(), _partition_payload(refined_vf=101)
        )
        assert gate.main([cur, base]) == 1
        assert "ceiling" in capsys.readouterr().err

    def test_vf_improvement_passes_and_suggests_refresh(self, gate, tmp_path, capsys):
        base = self._both(tmp_path, "base.json", _payload(), _partition_payload())
        cur = self._both(
            tmp_path, "cur.json", _payload(), _partition_payload(refined_vf=50)
        )
        assert gate.main([cur, base]) == 0
        assert "refreshing" in capsys.readouterr().out

    def test_refined_must_beat_hash_on_enough_datasets(self, gate, tmp_path, capsys):
        base = self._both(tmp_path, "base.json", _payload(), _partition_payload())
        # regressing traffic above hash on every dataset loses every win
        cur = self._both(
            tmp_path,
            "cur.json",
            _payload(),
            _partition_payload(refined_vf=100, refined_traffic=60.0),
        )
        assert gate.main([cur, base]) == 1
        assert "beats hash" in capsys.readouterr().err

    def test_missing_partition_row_fails(self, gate, tmp_path, capsys):
        base = self._both(tmp_path, "base.json", _payload(), _partition_payload())
        cur = self._both(
            tmp_path,
            "cur.json",
            _payload(),
            _partition_payload(datasets=("amazon",)),
        )
        assert gate.main([cur, base]) == 1
        assert "missing" in capsys.readouterr().err

    def test_partition_experiment_required_when_baseline_has_it(self, gate, tmp_path):
        base = self._both(tmp_path, "base.json", _payload(), _partition_payload())
        cur = _write(tmp_path, "cur.json", _payload())
        with pytest.raises(SystemExit):
            gate.main([cur, base])

    def test_workload_only_baseline_skips_partition_checks(self, gate, tmp_path):
        base = _write(tmp_path, "base.json", _payload())
        cur = self._both(tmp_path, "cur.json", _payload(), _partition_payload())
        assert gate.main([cur, base]) == 0

    def test_duplicate_experiment_across_current_files_rejected(self, gate, tmp_path):
        base = self._both(tmp_path, "base.json", _payload(), _partition_payload())
        cur1 = _write(tmp_path, "cur1.json", _payload())
        cur2 = self._both(tmp_path, "cur2.json", _payload(), _partition_payload())
        with pytest.raises(SystemExit, match="more than one current file"):
            gate.main([cur1, cur2, base])

    def test_malformed_partition_row_names_the_row(self, gate, tmp_path, capsys):
        partition = _partition_payload()
        for row in partition["partition"]["rows"]:
            if row["partitioner"] == "refined":
                del row["Vf"]
        base = self._both(tmp_path, "base.json", _payload(), _partition_payload())
        cur = self._both(tmp_path, "cur.json", _payload(), partition)
        with pytest.raises(SystemExit, match="refined") as excinfo:
            gate.main([cur, base])
        assert excinfo.value.code == 2


def _mutation_payload(refinements=2, moves=20, budget=32, vf_ratio=1.05,
                      vf_tol=1.3, traffic=400.0, network=10.0, visits=50):
    rows = []
    for scenario in ("static", "drift-refine"):
        row = {
            "scenario": scenario,
            "refinements": refinements if scenario == "drift-refine" else 0,
            "moves": moves if scenario == "drift-refine" else 0,
            "budget": budget,
            "vf_ratio": vf_ratio if scenario == "drift-refine" else 1.2,
            "vf_tol": vf_tol,
            "traffic_KB": traffic,
            "network_ms": network,
            "visits": visits,
        }
        rows.append(row)
    return {"mutation": {"columns": [], "rows": rows}}


class TestMutationGate:
    """The dynamic-graph checks: refinement envelope + mutation costs."""

    def _both(self, tmp_path, name, extra):
        payload = _payload()
        payload.update(extra)
        return _write(tmp_path, name, payload)

    def test_identical_mutation_runs_pass(self, gate, tmp_path):
        base = self._both(tmp_path, "base.json", _mutation_payload())
        cur = self._both(tmp_path, "cur.json", _mutation_payload())
        assert gate.main([cur, base]) == 0

    def test_no_refinement_fails(self, gate, tmp_path, capsys):
        base = self._both(tmp_path, "base.json", _mutation_payload())
        cur = self._both(tmp_path, "cur.json", _mutation_payload(refinements=0))
        assert gate.main([cur, base]) == 1
        assert "refinements" in capsys.readouterr().err

    def test_budget_overrun_fails(self, gate, tmp_path, capsys):
        base = self._both(tmp_path, "base.json", _mutation_payload())
        cur = self._both(
            tmp_path, "cur.json", _mutation_payload(moves=100, budget=32)
        )
        assert gate.main([cur, base]) == 1
        assert "moves" in capsys.readouterr().err

    def test_vf_tolerance_violation_fails(self, gate, tmp_path, capsys):
        base = self._both(tmp_path, "base.json", _mutation_payload())
        cur = self._both(tmp_path, "cur.json", _mutation_payload(vf_ratio=1.4))
        assert gate.main([cur, base]) == 1
        assert "vf_ratio" in capsys.readouterr().err

    def test_cost_regression_fails(self, gate, tmp_path, capsys):
        base = self._both(tmp_path, "base.json", _mutation_payload())
        cur = self._both(tmp_path, "cur.json", _mutation_payload(traffic=600.0))
        assert gate.main([cur, base]) == 1
        assert "mutation/static/traffic_KB" in capsys.readouterr().err

    def test_mutation_experiment_required_when_baseline_has_it(
        self, gate, tmp_path
    ):
        base = self._both(tmp_path, "base.json", _mutation_payload())
        cur = _write(tmp_path, "cur.json", _payload())
        with pytest.raises(SystemExit):
            gate.main([cur, base])

    def test_workload_only_baseline_skips_mutation_checks(self, gate, tmp_path):
        base = _write(tmp_path, "base.json", _payload())
        cur = self._both(tmp_path, "cur.json", _mutation_payload())
        assert gate.main([cur, base]) == 0

    def test_committed_baseline_has_mutation_experiment(self, gate):
        payload = gate.load_payload(SCRIPT.parent / "baseline.json")
        rows = gate.rows_by_key(payload, "mutation")
        assert rows, "baseline.json must carry the pinned mutation run"
        assert {("static",), ("drift-refine",)} <= set(rows)
        drift = rows[("drift-refine",)]
        assert drift["refinements"] >= 1
        assert drift["moves"] <= drift["refinements"] * drift["budget"]
        assert drift["vf_ratio"] <= drift["vf_tol"]


def _session_rows(sessions=(1, 4, 8), saved_at_4=48, batched=16, refinements=2):
    rows = []
    for s in sessions:
        saved = 0 if s == 1 else saved_at_4 * (s // 4 or 1)
        rows.append(
            {
                "scenario": f"sessions-{s}",
                "sessions": s,
                "refinements": refinements,
                "remap_visits": batched,
                "remap_visits_saved": saved,
                "remap_rounds": refinements,
                "remap_tasks": 30,
            }
        )
    return rows


def _mutation_with_sessions(**overrides):
    payload = _mutation_payload()
    rows = _session_rows()
    for row in rows:
        if row["sessions"] == overrides.get("at", 8):
            row.update({k: v for k, v in overrides.items() if k != "at"})
    payload["mutation"]["rows"].extend(rows)
    return payload


class TestSessionRemapGate:
    """The batched-session-remap floors on the sessions-S sweep rows."""

    def _both(self, tmp_path, name, extra):
        payload = _payload()
        payload.update(extra)
        return _write(tmp_path, name, payload)

    def test_healthy_sweep_passes(self, gate, tmp_path):
        base = self._both(tmp_path, "base.json", _mutation_with_sessions())
        cur = self._both(tmp_path, "cur.json", _mutation_with_sessions())
        assert gate.main([cur, base]) == 0

    def test_zero_savings_at_large_s_fails(self, gate, tmp_path, capsys):
        base = self._both(tmp_path, "base.json", _mutation_with_sessions())
        cur = self._both(
            tmp_path, "cur.json", _mutation_with_sessions(remap_visits_saved=0)
        )
        assert gate.main([cur, base]) == 1
        assert "remap_visits_saved" in capsys.readouterr().err

    def test_small_s_rows_not_held_to_floor(self, gate, tmp_path):
        # S=1 legitimately saves nothing; only S >= 4 rows carry the floor.
        base = self._both(tmp_path, "base.json", _mutation_with_sessions())
        cur = self._both(
            tmp_path,
            "cur.json",
            _mutation_with_sessions(at=1, remap_visits_saved=0),
        )
        assert gate.main([cur, base]) == 0

    def test_missing_sweep_fails_when_baseline_has_it(self, gate, tmp_path, capsys):
        base = self._both(tmp_path, "base.json", _mutation_with_sessions())
        cur = self._both(tmp_path, "cur.json", _mutation_payload())
        assert gate.main([cur, base]) == 1
        assert "--sessions" in capsys.readouterr().err

    def test_batched_visits_above_s_times_single_fails(self, gate, tmp_path, capsys):
        # saved still positive, but batched visits regressed to linear-in-S:
        # the anchor is the sessions-1 row (16), so 8 x 16 = 128 is the bar.
        base = self._both(tmp_path, "base.json", _mutation_with_sessions())
        cur = self._both(
            tmp_path, "cur.json",
            _mutation_with_sessions(remap_visits=130, remap_visits_saved=5),
        )
        assert gate.main([cur, base]) == 1
        assert "S x per-session" in capsys.readouterr().err

    def test_committed_baseline_has_session_sweep(self, gate):
        payload = gate.load_payload(SCRIPT.parent / "baseline.json")
        rows = gate.rows_by_key(payload, "mutation")
        sweep = {s: r for (s,), r in rows.items() if s.startswith("sessions-")}
        assert sweep, "baseline.json must carry the --sessions sweep"
        big = max(sweep.values(), key=lambda r: r["sessions"])
        assert big["sessions"] >= 4
        assert big["remap_visits_saved"] > 0
        assert big["remap_visits"] < big["sessions"] * (
            big["remap_visits"] + big["remap_visits_saved"]
        )


def _baselines_payload(visits=398, traffic=7.197, messages=793, supersteps=26,
                       drift_backend=None):
    rows = []
    for algorithm in ("disReachm", "disDistm"):
        for backend in ("sequential", "socket"):
            row = {
                "algorithm": algorithm,
                "backend": backend,
                "answers": "FTF",
                "total_visits": visits,
                "traffic_KB": traffic,
                "messages": messages,
                "supersteps": supersteps,
                "time_ms": 15.0,
            }
            if drift_backend == backend and algorithm == "disReachm":
                row["total_visits"] = visits + 7
            rows.append(row)
    return {"baselines": {"columns": [], "rows": rows}}


class TestBaselinesGate:
    """Exact cross-backend identity of the sharded Pregel baselines."""

    def _both(self, tmp_path, name, extra):
        payload = _payload()
        payload.update(extra)
        return _write(tmp_path, name, payload)

    def test_identical_rows_pass(self, gate, tmp_path):
        base = self._both(tmp_path, "base.json", _baselines_payload())
        cur = self._both(tmp_path, "cur.json", _baselines_payload())
        assert gate.main([cur, base]) == 0

    def test_backend_divergence_fails(self, gate, tmp_path, capsys):
        base = self._both(tmp_path, "base.json", _baselines_payload())
        cur = self._both(
            tmp_path, "cur.json", _baselines_payload(drift_backend="socket")
        )
        assert gate.main([cur, base]) == 1
        assert "cross-backend identity" in capsys.readouterr().err

    def test_drift_from_committed_baseline_fails(self, gate, tmp_path, capsys):
        base = self._both(tmp_path, "base.json", _baselines_payload())
        cur = self._both(tmp_path, "cur.json", _baselines_payload(visits=500))
        assert gate.main([cur, base]) == 1
        assert "drifted" in capsys.readouterr().err

    def test_wall_time_never_compared(self, gate, tmp_path):
        base = self._both(tmp_path, "base.json", _baselines_payload())
        payload = _baselines_payload()
        for row in payload["baselines"]["rows"]:
            row["time_ms"] = 999.0
        cur = self._both(tmp_path, "cur.json", payload)
        assert gate.main([cur, base]) == 0

    def test_missing_backend_row_fails(self, gate, tmp_path, capsys):
        base = self._both(tmp_path, "base.json", _baselines_payload())
        payload = _baselines_payload()
        payload["baselines"]["rows"] = [
            row for row in payload["baselines"]["rows"]
            if row["backend"] != "socket"
        ]
        cur = self._both(tmp_path, "cur.json", payload)
        assert gate.main([cur, base]) == 1
        assert "backend dropped out" in capsys.readouterr().err

    def test_missing_algorithm_fails(self, gate, tmp_path, capsys):
        base = self._both(tmp_path, "base.json", _baselines_payload())
        payload = _baselines_payload()
        payload["baselines"]["rows"] = [
            row for row in payload["baselines"]["rows"]
            if row["algorithm"] != "disDistm"
        ]
        cur = self._both(tmp_path, "cur.json", payload)
        assert gate.main([cur, base]) == 1
        assert "no sequential row" in capsys.readouterr().err

    def test_baselines_required_when_baseline_has_them(self, gate, tmp_path):
        base = self._both(tmp_path, "base.json", _baselines_payload())
        cur = _write(tmp_path, "cur.json", _payload())
        with pytest.raises(SystemExit, match="baselines"):
            gate.main([cur, base])

    def test_committed_baseline_has_baselines_experiment(self, gate):
        payload = gate.load_payload(SCRIPT.parent / "baseline.json")
        rows = gate.rows_by_key(payload, "baselines")
        assert rows, "baseline.json must carry the pinned baselines run"
        backends = {backend for _a, backend in rows}
        assert backends == {"sequential", "socket"}


def _kernels_payload(visits=24, traffic=97.526, messages=48, supersteps=6,
                     kernels=("numpy",), drift_pair=None):
    rows = []
    for dataset in ("amazon", "youtube"):
        for kernel in kernels:
            for backend in ("sequential", "socket"):
                row = {
                    "dataset": dataset,
                    "mode": "evaluate",
                    "kernel": kernel,
                    "backend": backend,
                    "answers": "FTF",
                    "total_visits": visits,
                    "traffic_KB": traffic,
                    "messages": messages,
                    "supersteps": supersteps,
                    "eval_ms": 50.0,
                }
                if drift_pair == (kernel, backend) and dataset == "amazon":
                    row["total_visits"] = visits + 3
                rows.append(row)
    return {"kernels": {"columns": [], "rows": rows}}


class TestKernelsGate:
    """Kernel bit-identity across backends and against the baseline (exact)."""

    def _both(self, tmp_path, name, extra):
        payload = _payload()
        payload.update(extra)
        return _write(tmp_path, name, payload)

    def test_identical_rows_pass(self, gate, tmp_path):
        base = self._both(tmp_path, "base.json", _kernels_payload())
        cur = self._both(tmp_path, "cur.json", _kernels_payload())
        assert gate.main([cur, base]) == 0

    def test_kernel_divergence_fails(self, gate, tmp_path, capsys):
        base = self._both(tmp_path, "base.json", _kernels_payload())
        cur = self._both(
            tmp_path, "cur.json",
            _kernels_payload(drift_pair=("numpy", "socket")),
        )
        assert gate.main([cur, base]) == 1
        assert "kernel identity broken" in capsys.readouterr().err

    def test_drift_from_committed_baseline_fails(self, gate, tmp_path, capsys):
        base = self._both(tmp_path, "base.json", _kernels_payload())
        cur = self._both(tmp_path, "cur.json", _kernels_payload(visits=99))
        assert gate.main([cur, base]) == 1
        assert "drifted" in capsys.readouterr().err

    def test_eval_ms_never_compared(self, gate, tmp_path):
        base = self._both(tmp_path, "base.json", _kernels_payload())
        payload = _kernels_payload()
        for row in payload["kernels"]["rows"]:
            row["eval_ms"] = 9999.0
        cur = self._both(tmp_path, "cur.json", payload)
        assert gate.main([cur, base]) == 0

    def test_missing_required_kernel_leg_fails(self, gate, tmp_path, capsys):
        base = self._both(tmp_path, "base.json", _kernels_payload())
        payload = _kernels_payload()
        payload["kernels"]["rows"] = [
            row for row in payload["kernels"]["rows"]
            if not (row["kernel"] == "numpy" and row.get("backend") == "socket")
        ]
        cur = self._both(tmp_path, "cur.json", payload)
        assert gate.main([cur, base]) == 1
        assert "kernel leg dropped out" in capsys.readouterr().err

    def test_numba_rows_optional_but_compared_when_present(
        self, gate, tmp_path, capsys
    ):
        # absent entirely: fine (only numpy is required) ...
        base = self._both(tmp_path, "base.json", _kernels_payload())
        cur = self._both(tmp_path, "cur.json", _kernels_payload())
        assert gate.main([cur, base]) == 0
        # ... present and divergent: held to the same identity bar
        cur = self._both(
            tmp_path, "cur2.json",
            _kernels_payload(
                kernels=("numpy", "turbo"),
                drift_pair=("turbo", "sequential"),
            ),
        )
        assert gate.main([cur, base]) == 1
        assert "turbo" in capsys.readouterr().err

    def test_missing_reference_row_fails(self, gate, tmp_path, capsys):
        base = self._both(tmp_path, "base.json", _kernels_payload())
        payload = _kernels_payload()
        payload["kernels"]["rows"] = [
            row for row in payload["kernels"]["rows"]
            if not (
                row["dataset"] == "youtube"
                and row["kernel"] == "numpy"
                and row.get("backend") == "sequential"
            )
        ]
        cur = self._both(tmp_path, "cur.json", payload)
        assert gate.main([cur, base]) == 1
        assert "no numpy/sequential evaluate row" in capsys.readouterr().err

    def test_kernels_required_when_baseline_has_them(self, gate, tmp_path):
        base = self._both(tmp_path, "base.json", _kernels_payload())
        cur = _write(tmp_path, "cur.json", _payload())
        with pytest.raises(SystemExit, match="kernels"):
            gate.main([cur, base])

    def test_workload_only_baseline_skips_kernel_checks(self, gate, tmp_path):
        base = _write(tmp_path, "base.json", _payload())
        cur = self._both(
            tmp_path, "cur.json", _kernels_payload(drift_pair=("numpy", "socket"))
        )
        assert gate.main([cur, base]) == 0

    def test_committed_baseline_has_kernels_experiment(self, gate):
        payload = gate.load_payload(SCRIPT.parent / "baseline.json")
        rows = gate.rows_by_key(payload, "kernels")
        assert rows, "baseline.json must carry the pinned kernels run"
        kernels = {k for _d, mode, k, _b in rows if mode == "evaluate"}
        checks = gate.GATES["kernels"].checks
        required = next(c.require["kernel"] for c in checks if c.require)
        assert set(required) <= kernels
        assert {mode for _d, mode, _k, _b in rows} == {"evaluate"}


def _snap_payload(
    refined_vf=20,
    env_ok=1,
    replay_match=1,
    refines=3,
    traffic=0.5,
    answers="TF",
    drift_answers=None,
):
    """A minimal snap-experiment payload (one fixture dataset)."""
    rows = [
        {"dataset": "fixture-plain", "mode": "load", "nodes": 27, "edges": 64},
    ]
    for partitioner, vf in (("hash", 27), ("refined", refined_vf)):
        for algorithm in ("disReach", "disDist"):
            rows.append(
                {
                    "dataset": "fixture-plain",
                    "mode": "static",
                    "partitioner": partitioner,
                    "algorithm": algorithm,
                    "backend": "sequential",
                    "kernel": "numpy",
                    "Vf": vf,
                    "bound": vf * vf,
                    "traffic_KB": traffic * (2 if partitioner == "hash" else 1),
                    "network_ms": 1.0,
                    "visits": 16,
                    "answers": (
                        drift_answers
                        if drift_answers and partitioner == "refined"
                        else answers
                    ),
                    "env_ok": env_ok,
                }
            )
    rows.append(
        {
            "dataset": "fixture-plain",
            "mode": "replay",
            "partitioner": "hash",
            "replayed": 64,
            "replay_match": replay_match,
        }
    )
    rows.append(
        {
            "dataset": "fixture-plain",
            "mode": "replay-monitor",
            "partitioner": "hash",
            "replayed": 64,
            "refines": refines,
            "moves": 12,
        }
    )
    return {"snap": {"columns": [], "rows": rows}}


class TestSnapGate:
    """The real-graph harness gate: envelopes, replay identity, refined wins."""

    def test_identical_runs_pass(self, gate, tmp_path):
        base = _write(tmp_path, "base.json", _snap_payload())
        cur = _write(tmp_path, "cur.json", _snap_payload())
        assert gate.main([cur, base, "--only", "snap"]) == 0

    def test_envelope_escape_fails(self, gate, tmp_path, capsys):
        base = _write(tmp_path, "base.json", _snap_payload())
        cur = _write(tmp_path, "cur.json", _snap_payload(env_ok=0))
        assert gate.main([cur, base, "--only", "snap"]) == 1
        assert "envelope" in capsys.readouterr().err

    def test_replay_divergence_fails(self, gate, tmp_path, capsys):
        base = _write(tmp_path, "base.json", _snap_payload())
        cur = _write(tmp_path, "cur.json", _snap_payload(replay_match=0))
        assert gate.main([cur, base, "--only", "snap"]) == 1
        assert "replay" in capsys.readouterr().err

    def test_answer_divergence_across_cells_fails(self, gate, tmp_path, capsys):
        base = _write(tmp_path, "base.json", _snap_payload())
        cur = _write(tmp_path, "cur.json", _snap_payload(drift_answers="FT"))
        assert gate.main([cur, base, "--only", "snap"]) == 1
        assert "agnosticism broken" in capsys.readouterr().err

    def test_refined_losing_to_hash_fails(self, gate, tmp_path, capsys):
        base = _write(tmp_path, "base.json", _snap_payload())
        # refined Vf above hash's 27 AND higher traffic than hash's 2x leg
        cur = _write(
            tmp_path, "cur.json", _snap_payload(refined_vf=40, traffic=1.5)
        )
        assert gate.main([cur, base, "--only", "snap"]) == 1
        err = capsys.readouterr().err
        assert "refined does not beat-or-tie hash" in err

    def test_vf_ceiling_is_exact(self, gate, tmp_path, capsys):
        base = _write(tmp_path, "base.json", _snap_payload(refined_vf=20))
        cur = _write(tmp_path, "cur.json", _snap_payload(refined_vf=21))
        assert gate.main([cur, base, "--only", "snap"]) == 1
        assert "ceiling" in capsys.readouterr().err

    def test_no_refinement_fired_fails(self, gate, tmp_path, capsys):
        base = _write(tmp_path, "base.json", _snap_payload())
        cur = _write(tmp_path, "cur.json", _snap_payload(refines=0))
        assert gate.main([cur, base, "--only", "snap"]) == 1
        assert "refinement" in capsys.readouterr().err

    def test_baseline_answer_drift_fails(self, gate, tmp_path, capsys):
        base = _write(tmp_path, "base.json", _snap_payload(answers="TF"))
        cur = _write(tmp_path, "cur.json", _snap_payload(answers="TT"))
        assert gate.main([cur, base, "--only", "snap"]) == 1
        assert "differ from the baseline" in capsys.readouterr().err

    def test_traffic_regression_fails(self, gate, tmp_path, capsys):
        base = _write(tmp_path, "base.json", _snap_payload(traffic=0.5))
        cur = _write(tmp_path, "cur.json", _snap_payload(traffic=0.8))
        assert gate.main([cur, base, "--only", "snap"]) == 1
        assert "regressed" in capsys.readouterr().err

    def test_dropped_cell_fails(self, gate, tmp_path, capsys):
        base = _write(tmp_path, "base.json", _snap_payload())
        payload = _snap_payload()
        payload["snap"]["rows"] = [
            row
            for row in payload["snap"]["rows"]
            if not (
                row.get("mode") == "static" and row.get("algorithm") == "disDist"
            )
        ]
        cur = _write(tmp_path, "cur.json", payload)
        assert gate.main([cur, base, "--only", "snap"]) == 1
        assert "silently skipped" in capsys.readouterr().err

    def test_snap_required_when_baseline_has_it(self, gate, tmp_path):
        base = _write(tmp_path, "base.json", _snap_payload())
        cur = _write(tmp_path, "cur.json", _payload())
        with pytest.raises(SystemExit, match="snap"):
            gate.main([cur, base, "--only", "snap"])

    def test_committed_baseline_has_snap_experiment(self, gate):
        payload = gate.load_payload(SCRIPT.parent / "baseline.json")
        rows = gate.rows_by_key(payload, "snap")
        assert rows, "baseline.json must carry the pinned snap fixture run"
        modes = {str(row.get("mode")) for row in rows.values()}
        assert {"load", "static", "replay", "replay-monitor"} <= modes
        assert all(
            row.get("env_ok") == 1 for row in rows.values() if row.get("mode") == "static"
        )


BASELINE = SCRIPT.parent / "baseline.json"


def _load_gate():
    spec = importlib.util.spec_from_file_location("check_regression_table", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: (experiment, check index) of every GATES entry, for parametrization.
_CHECKS = [
    pytest.param(experiment, index, id=f"{experiment}-{index}-{check.kind}")
    for experiment, entry in _load_gate().GATES.items()
    for index, check in enumerate(entry.checks)
]


def _selected(check, rows):
    return [row for row in rows if check.where(row)]


def _changed(value):
    return value + "X" if isinstance(value, str) else value + 1


def _perturb(check, rows):
    """Break one cell (or drop one row) the way ``check`` forbids."""
    chosen = _selected(check, rows)
    metric = check.metrics[0] if check.metrics else None
    if check.kind == "present":
        rows.remove(next(
            row for row in chosen
            if all(str(row.get(c)) in v for c, v in (check.require or {}).items())
        ))
    elif check.kind in ("exact", "ceiling"):
        chosen[0][metric] = _changed(chosen[0][metric])
    elif check.kind == "scaled":
        value = chosen[0][metric]
        chosen[0][metric] = (
            value * check.factor * 2 + 1 if check.op == "<=" else value * check.factor / 2
        )
    elif check.kind == "bound":
        row = chosen[0]
        limit = check.limit(row) if callable(check.limit) else check.limit
        row[metric] = {
            ">=": lambda: limit - 1,
            "<=": lambda: limit + 1,
            "<": lambda: limit,
            "==": lambda: _changed(limit),
            "startswith": lambda: f"not {limit}",
            "covers": lambda: "sequential",
        }[check.op]()
    else:
        def group_of(row):
            return tuple(str(row.get(c)) for c in check.group)

        def is_ref(row):
            return all(str(row.get(k)) == v for k, v in check.ref.items())

        if check.kind == "same":
            firsts = {}
            for row in chosen:
                reference = firsts.setdefault(group_of(row), row)
                if row is not reference and (check.ref is None or not is_ref(row)):
                    row[metric] = _changed(row[metric])
                    return
        for row in chosen:  # wins: every selected row loses to its reference
            other = next(r for r in rows if group_of(r) == group_of(row) and is_ref(r))
            factor = check.factor(row) if callable(check.factor) else check.factor
            row[metric] = factor * other[metric] + 1


class TestGateTable:
    """The GATES table checks itself against the committed baseline."""

    @pytest.mark.parametrize("experiment, index", _CHECKS)
    def test_check_selects_a_baseline_row(self, gate, experiment, index):
        check = gate.GATES[experiment].checks[index]
        rows = json.loads(BASELINE.read_text())[experiment]["rows"]
        assert _selected(check, rows), "a check that selects nothing passes vacuously"

    @pytest.mark.parametrize("experiment, index", _CHECKS)
    def test_perturbed_cell_fails_with_its_why(
        self, gate, experiment, index, tmp_path, capsys
    ):
        check = gate.GATES[experiment].checks[index]
        payload = json.loads(BASELINE.read_text())
        _perturb(check, payload[experiment]["rows"])
        perturbed = _write(tmp_path, "perturbed.json", payload)
        assert gate.main([perturbed, str(BASELINE)]) == 1
        assert check.why in capsys.readouterr().err

    def test_ci_workflow_runs_and_gates_every_gate(self, gate):
        """The CI workflow, read as text, drifts from neither table."""
        from repro.bench import EXPERIMENTS

        workflow = SCRIPT.parent.parent / ".github" / "workflows" / "ci.yml"
        text = "\n".join(
            line
            for line in workflow.read_text(encoding="utf-8").splitlines()
            if not line.lstrip().startswith("#")
        )
        assert set(re.findall(r"--only\s+(\S+)", text)) == set(gate.GATES)
        benched = {
            name
            for args in re.findall(r"python -m repro\.bench\b([^\n]*)", text)
            for name in takewhile(lambda a: not a.startswith("-"), args.split())
        }
        assert benched and benched <= set(EXPERIMENTS)
        steps = re.split(r"\n\s*- (?:name|uses):", text)
        compared = {
            path
            for step in steps
            if "check_regression.py" in step
            for path in re.findall(r"BENCH_\w+\.json", step)
        }
        written = set(re.findall(r"--json\s+(BENCH_\w+\.json)", text))
        assert written and written <= compared

    def test_ci_smoke_loop_drives_every_executor(self, gate):
        """The CLI smoke loop runs exactly the registered backends and
        diffs each one's normalized output against sequential's; the gates
        that name backends name exactly the registered ones too."""
        from repro.distributed.executors import EXECUTORS

        (kernels_require,) = [c.require for c in gate.GATES["kernels"].checks if c.require]
        (covers,) = [c.limit for c in gate.GATES["shortcuts"].checks if c.op == "covers"]
        assert set(kernels_require["backend"]) == set(covers.split("/")) == set(EXECUTORS)

        workflow = SCRIPT.parent.parent / ".github" / "workflows" / "ci.yml"
        text = workflow.read_text(encoding="utf-8")
        (loop,) = re.findall(r"for backend in ([\w ]+); do", text)
        assert loop.split() == list(EXECUTORS)
        diffed = set(re.findall(r"diff norm-sequential\.txt norm-(\w+)\.txt", text))
        assert diffed == set(EXECUTORS) - {"sequential"}

    def test_experiments_md_names_every_experiment_and_gate(self, gate):
        from repro.bench import EXPERIMENTS

        text = (SCRIPT.parent.parent / "EXPERIMENTS.md").read_text(encoding="utf-8")
        commands = [f"python -m repro.bench {name}" for name in EXPERIMENTS]
        entries = [f'GATES["{name}"]' for name in gate.GATES]
        assert [needle for needle in commands + entries if needle not in text] == []
