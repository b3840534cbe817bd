"""Unit tests for the bench harness and a smoke pass over every experiment."""

from types import SimpleNamespace

import pytest

from repro.bench import EXPERIMENTS, ExperimentResult, run_workload
from repro.distributed import SimulatedCluster
from repro.graph import erdos_renyi
from repro.workload import random_reach_queries


class TestRunWorkload:
    @pytest.fixture
    def setup(self):
        g = erdos_renyi(40, 120, seed=1, num_labels=3)
        cluster = SimulatedCluster.from_graph(g, 3, "chunk")
        queries = random_reach_queries(g, 5, seed=1)
        return g, cluster, queries

    def test_aggregates(self, setup):
        _, cluster, queries = setup
        metrics = run_workload(cluster, queries, "disReach")
        assert metrics.num_queries == 5
        assert metrics.mean_response_seconds > 0
        assert metrics.mean_traffic_bytes > 0
        assert metrics.max_visits_per_site == 1
        assert 0.0 <= metrics.positive_fraction <= 1.0

    def test_rejects_empty_workload(self, setup):
        _, cluster, _ = setup
        with pytest.raises(ValueError):
            run_workload(cluster, [], "disReach")

    def test_traffic_mb_helper(self, setup):
        _, cluster, queries = setup
        metrics = run_workload(cluster, queries, "disReach")
        assert metrics.mean_traffic_mb == pytest.approx(
            metrics.mean_traffic_bytes / 1e6
        )


class TestExperimentResult:
    def test_table_formatting(self):
        result = ExperimentResult("x", "Title", ["a", "b"])
        result.add_row(a=1, b=2.5)
        result.add_row(a="hello", b=None)
        text = result.format_table()
        assert "Title" in text and "hello" in text and "-" in text

    def test_column_accessor(self):
        result = ExperimentResult("x", "T", ["a"])
        result.add_row(a=1)
        result.add_row(a=2)
        assert result.column("a") == [1, 2]

    def test_csv(self):
        result = ExperimentResult("x", "T", ["a", "b"])
        result.add_row(a=1, b=2)
        assert result.to_csv() == "a,b\n1,2\n"


class TestExperimentRegistry:
    def test_all_twenty_four_registered(self):
        """The registry holds exactly these 22 (the id predates the count)."""
        expected = {
            "table2", "fig11a", "fig11b", "fig11c", "fig11d", "fig11e",
            "fig11f", "fig11g", "fig11h", "fig11i", "fig11j", "fig11k",
            "fig11l", "ablation-partitioner", "workload", "partition",
            "mutation", "baselines", "kernels", "serving", "snap",
            "shortcuts",
        }
        assert set(EXPERIMENTS) == expected


# Tiny-scale smoke runs: every experiment must execute and produce rows.
_TINY = {
    "table2": dict(scale=0.0002, num_queries=1),
    "fig11a": dict(scale=0.0002, cards=(2, 4), num_queries=1),
    "fig11b": dict(scale=0.0005, size_ticks=(35_000, 75_000), num_queries=1),
    "fig11c": dict(scale=0.00002, cards=(10, 12), num_queries=1),
    "fig11d": dict(scale=0.0002, cards=(2, 4), num_queries=1),
    "fig11e": dict(scale=0.001, num_queries=1),
    "fig11f": dict(scale=0.001, num_queries=1),
    "fig11g": dict(scale=0.001, complexities=((4, 8), (6, 12)), num_queries=1),
    "fig11h": dict(scale=0.0005, size_ticks=(35_000, 75_000), num_queries=1),
    "fig11i": dict(scale=0.0005, cards=(6, 8), num_queries=1),
    "fig11j": dict(scale=0.00002, cards=(10, 12), num_queries=1),
    "fig11k": dict(scale=0.001, size_ticks=(35_000,), num_queries=1),
    "fig11l": dict(scale=0.001, mapper_counts=(2, 4), num_queries=1),
    "ablation-partitioner": dict(scale=0.0005, num_queries=2),
    "workload": dict(scale=0.005, num_queries=8, distinct=3),
    "partition": dict(
        scale=0.001, num_queries=1, card=3,
        datasets=("amazon", "youtube"), partitioners=("hash", "refined"),
    ),
    "mutation": dict(
        scale=0.001, num_queries=6, card=3, num_mutations=6, rounds=3,
        sessions=2,
    ),
    "baselines": dict(scale=0.0005, num_queries=1),
    # "kernels" is absent by design: its jobs rows legitimately omit the
    # backend/answers columns, so the every-column-in-every-row check below
    # does not apply; tests/test_kernels.py smoke-runs it instead.
    # "serving" is absent for the same reason (the direct row has no
    # batch/latency columns); test_exp_serving_smoke below runs it.
    # "snap" is absent likewise (its load/replay rows only carry their own
    # column subset); tests/test_snap.py::TestExpSnap smoke-runs it.
    # "shortcuts" is absent: test_exp_shortcuts_smoke below runs it with
    # its own identity and reduction assertions.
}


@pytest.mark.parametrize("name", sorted(_TINY))
def test_experiment_smoke(name):
    result = EXPERIMENTS[name](**_TINY[name])
    assert isinstance(result, ExperimentResult)
    assert result.rows, name
    assert result.experiment == name
    # every declared column appears in every row
    for row in result.rows:
        for column in result.columns:
            assert column in row, (name, column)
    # formatting must not crash
    assert result.format_table()


def test_exp_shortcuts_smoke():
    """Tiny path-only shortcuts run: both modes present, reduction real."""
    result = EXPERIMENTS["shortcuts"](scale=0.002, card=3, datasets=("path",))
    assert isinstance(result, ExperimentResult)
    rows = {(row["mode"], row["algorithm"]): row for row in result.rows}
    assert set(rows) == {("none", "disReachm"), ("reach", "disReachm")}
    none, reach = rows[("none", "disReachm")], rows[("reach", "disReachm")]
    for row in (none, reach):
        assert row["status"] == "ok"
        for column in result.columns:
            assert column in row, column
    # same workload answers under both modes (identity), and the reach
    # shortcuts actually cut supersteps on the 200-node path
    assert reach["answers"] == none["answers"]
    assert none["reduction"] == 1
    assert reach["reduction"] > 1
    assert reach["supersteps"] < none["supersteps"]
    assert result.format_table()


def test_exp_serving_smoke():
    """Tiny closed-loop serving run: both rows present, answers identical."""
    result = EXPERIMENTS["serving"](
        scale=0.001, num_queries=6, card=3, clients=2
    )
    assert isinstance(result, ExperimentResult)
    rows = {row["mode"]: row for row in result.rows}
    assert set(rows) == {"direct", "serving"}
    assert rows["direct"]["answers_match"] == 1
    assert rows["serving"]["answers_match"] == 1
    assert rows["serving"]["batches"] >= 1
    assert rows["serving"]["p99_ms"] >= rows["serving"]["p50_ms"] >= 0.0
    assert result.format_table()


def test_exp_shortcuts_reports_the_sequential_run(monkeypatch):
    """``time_ms``, ``build_ms`` and the shortcut details come from the
    ``sequential`` run: the socket run's broker spawn and wire time must
    not leak into them.  A fake clock charges 1 ms per sequential query
    and 10 s per socket one, and the socket run's details are inflated."""
    from repro.bench import experiments

    clock = [0.0]
    monkeypatch.setattr(experiments, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    real = experiments.evaluate

    def evaluate(cluster, query, *args, **kwargs):
        result = real(cluster, query, *args, **kwargs)
        if cluster.executor.name == "sequential":
            clock[0] += 0.001
            return result
        clock[0] += 10.0
        built = result.details.get("shortcuts")
        if built:
            result.details["shortcuts"] = {**built, "build_seconds": 10.0, "messages": 10**6}
        return result

    monkeypatch.setattr(experiments, "evaluate", evaluate)
    result = experiments.exp_shortcuts(scale=0.002, card=3, datasets=("path",))
    rows = {row["mode"]: row for row in result.rows}
    assert set(rows) == {"none", "reach"}
    for row in rows.values():
        assert row["status"] == "ok" and row["backends"] == "sequential/socket"
        assert row["time_ms"] == pytest.approx(4.0)
        assert row["build_ms"] < 10_000 and row["shortcut_msgs"] < 10**6
    assert rows["reach"]["shortcut_edges"] > 0
