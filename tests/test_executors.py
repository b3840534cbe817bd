"""Executor backends: identical answers and modeled costs on every backend.

The tentpole guarantee of the executor layer (DESIGN.md §5): backends change
*how* site-local work executes (inline / TCP brokers), never
*what* it computes — answers, visits, traffic, message logs and supersteps
must be bit-identical to the sequential reference.  Wall-clock quantities
(``response_seconds``, ``phase_wall_seconds``) are measured and therefore
nondeterministic; they are checked for sanity, not equality.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.engine import evaluate
from repro.core.queries import BoundedReachQuery, ReachQuery, RegularReachQuery
from repro.distributed import SimulatedCluster
from repro.distributed.executors import (
    EXECUTORS,
    SequentialExecutor,
    SiteTask,
    SocketExecutor,
    default_executor_name,
    get_executor,
    resolve_executor,
    set_default_executor,
)
from repro.errors import DistributedError
from repro.workload.paper_example import figure1_fragmentation

BACKENDS = sorted(EXECUTORS)

#: The paper's running example, one query per query class (all three have
#: known answers on Figure 1), plus every registered algorithm for each.
QUERY_CASES = [
    ("reach", ReachQuery("Ann", "Mark"), ["disReach", "disReachn", "disReachm"]),
    ("bounded", BoundedReachQuery("Ann", "Mark", 6), ["disDist", "disDistn", "disDistm"]),
    (
        "regular",
        RegularReachQuery("Ann", "Mark", "DB* | HR*"),
        ["disRPQ", "disRPQn", "disRPQd"],
    ),
]


def _modeled_signature(result):
    """The deterministic, backend-independent part of a run's stats."""
    stats = result.stats
    return (
        result.answer,
        dict(stats.visits),
        stats.traffic_bytes,
        [(m.src, m.dst, m.kind, m.size_bytes) for m in stats.messages],
        stats.supersteps,
    )


def _reference_signatures():
    cluster = SimulatedCluster(figure1_fragmentation(), executor="sequential")
    out = {}
    for _name, query, algorithms in QUERY_CASES:
        for algorithm in algorithms:
            out[algorithm] = _modeled_signature(evaluate(cluster, query, algorithm))
    return out


REFERENCE = _reference_signatures()


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "query,algorithms",
        [(query, algorithms) for _name, query, algorithms in QUERY_CASES],
        ids=[name for name, _query, _algorithms in QUERY_CASES],
    )
    def test_paper_example_identical_across_backends(self, backend, query, algorithms):
        cluster = SimulatedCluster(figure1_fragmentation(), executor=backend)
        for algorithm in algorithms:
            result = evaluate(cluster, query, algorithm)
            assert result.stats.executor == backend
            assert _modeled_signature(result) == REFERENCE[algorithm], (
                f"{algorithm} diverged on the {backend} backend"
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_random_instance_answers_match(self, backend, random_case):
        graph, cluster = random_case(seed=7)
        nodes = sorted(graph.nodes(), key=repr)
        source, target = nodes[0], nodes[-1]
        sequential = evaluate(cluster, ReachQuery(source, target))
        with cluster.using_executor(backend):
            result = evaluate(cluster, ReachQuery(source, target))
        assert result.answer == sequential.answer
        assert result.stats.traffic_bytes == sequential.stats.traffic_bytes

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pregel_vertex_programs_identical_across_backends(self, backend):
        """BFS/SSSP on the sharded Pregel substrate: values + modeled stats
        match the sequential reference on every backend (DESIGN.md §5)."""
        from repro.baselines import pregel_bfs_levels, pregel_sssp

        def signature(cluster):
            out = []
            for driver in (pregel_bfs_levels, pregel_sssp):
                values, stats = driver(cluster, "Ann")
                out.append(
                    (
                        values,
                        dict(stats.visits),
                        stats.traffic_bytes,
                        [(m.src, m.dst, m.kind, m.size_bytes) for m in stats.messages],
                        stats.supersteps,
                    )
                )
            return out

        reference = signature(
            SimulatedCluster(figure1_fragmentation(), executor="sequential")
        )
        cluster = SimulatedCluster(figure1_fragmentation(), executor=backend)
        assert signature(cluster) == reference

    def test_evaluate_executor_override_restores_backend(self, figure1):
        _graph, _fragmentation, cluster = figure1
        assert cluster.executor.name == "sequential"
        result = evaluate(
            cluster, ReachQuery("Ann", "Mark"), "disReach", executor="socket"
        )
        assert result.stats.executor == "socket"
        assert cluster.executor.name == "sequential"


class TestSpeedupAccounting:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_phase_wall_and_compute_recorded(self, backend):
        cluster = SimulatedCluster(figure1_fragmentation(), executor=backend)
        result = evaluate(cluster, ReachQuery("Ann", "Mark"), "disReach")
        stats = result.stats
        assert stats.phase_wall_seconds > 0
        assert stats.site_compute_seconds > 0
        assert stats.parallel_speedup is not None and stats.parallel_speedup > 0
        assert backend in stats.summary()

    def test_fresh_stats_have_no_speedup(self):
        from repro.distributed import ExecutionStats

        stats = ExecutionStats(algorithm="x", num_sites=2)
        assert stats.parallel_speedup is None
        stats.add_parallel_phase({0: 0.2, 1: 0.3}, wall_seconds=0.25)
        assert stats.response_seconds == pytest.approx(0.3)
        assert stats.site_compute_seconds == pytest.approx(0.5)
        assert stats.parallel_speedup == pytest.approx(2.0)


class TestPhaseMap:
    def test_results_return_in_task_order(self, figure1):
        _graph, _fragmentation, cluster = figure1
        run = cluster.start_run("x")
        with run.parallel_phase() as phase:
            values = phase.map(_double, [(2, (2,)), (0, (0,)), (1, (1,))])
        assert values == [4, 0, 2]
        assert set(phase.site_seconds) == {0, 1, 2}
        run.finish()

    def test_task_exception_propagates(self, figure1):
        _graph, _fragmentation, cluster = figure1
        run = cluster.start_run("x")
        with pytest.raises(ValueError, match="boom"):
            with run.parallel_phase() as phase:
                phase.map(_explode, [(0, ()), (1, ())])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_map_runs_on_every_backend(self, backend, figure1):
        # The task is a callable the wire admits (a builtin container), so
        # a socket broker runs it rather than refusing the frame.
        _graph, _fragmentation, cluster = figure1
        with cluster.using_executor(backend):
            run = cluster.start_run("x")
            with run.parallel_phase() as phase:
                values = phase.map(list, [(sid, ((sid, 2 * sid),)) for sid in range(3)])
            stats = run.finish()
            assert getattr(cluster.executor, "degraded_tasks", 0) == 0
        assert values == [[0, 0], [1, 2], [2, 4]]
        assert stats.supersteps == 1

    @pytest.mark.parametrize("backend", ["socket"])
    def test_stats_round_trip_through_worker_processes(self, backend, figure1):
        # Message is a slotted frozen dataclass (no __dict__ to pickle): it
        # and the stats holding it must survive both directions of a real
        # process boundary, and every pickle protocol the wire may pick.
        _graph, _fragmentation, cluster = figure1
        stats = evaluate(cluster, ReachQuery("Ann", "Mark")).stats
        assert stats.messages and not hasattr(stats.messages[0], "__dict__")
        with cluster.using_executor(backend):
            run = cluster.start_run("x")
            with run.parallel_phase() as phase:
                echoed = phase.map(list, [(0, ([stats],)), (1, ([stats.messages[0]],))])
            run.finish()
            assert cluster.executor.degraded_tasks == 0
        assert echoed == [[stats], [stats.messages[0]]]
        assert echoed[0][0].messages[0].kind is stats.messages[0].kind
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(stats, protocol)) == stats


def _double(x):
    return 2 * x


def _explode():
    raise ValueError("boom")


class TestRegistry:
    def test_known_backends(self):
        assert set(EXECUTORS) == {"sequential", "socket"}
        assert isinstance(get_executor("sequential"), SequentialExecutor)
        assert isinstance(get_executor("socket"), SocketExecutor)

    def test_unknown_backend_rejected(self, figure1, tmp_path, capsys):
        from repro.bench.__main__ import main as bench_main
        from repro.cli import main as cli_main
        from repro.graph import graph_io

        graph, _fragmentation, cluster = figure1
        graph_file = str(tmp_path / "figure1.txt")
        graph_io.save(graph, graph_file)
        with pytest.raises(DistributedError, match="unknown executor"):
            get_executor("mapreduce")
        with pytest.raises(DistributedError):
            set_default_executor("mapreduce")
        with pytest.raises(DistributedError):
            resolve_executor(42)
        # The removed backends are refused on every surface, with no alias.
        original = default_executor_name()
        for name in ("process", "thread"):
            with pytest.raises(DistributedError, match="unknown executor"):
                get_executor(name)
            with pytest.raises(DistributedError, match="unknown executor"):
                set_default_executor(name)
            with pytest.raises(DistributedError, match="unknown executor"):
                evaluate(cluster, ReachQuery("Ann", "Mark"), executor=name)
            assert default_executor_name() == original
            with pytest.raises(SystemExit) as cli_exit:
                cli_main(["--graph", graph_file, "--executor", name, "reach", "Ann", "Mark"])
            with pytest.raises(SystemExit) as bench_exit:
                bench_main(["--executor", name])
            assert cli_exit.value.code == bench_exit.value.code == 2
        assert capsys.readouterr().err.count("invalid choice") == 4

    def test_resolve_accepts_instance_and_none(self):
        backend = SequentialExecutor()
        assert resolve_executor(backend) is backend
        assert resolve_executor(None).name == default_executor_name()

    def test_default_executor_roundtrip(self):
        original = default_executor_name()
        try:
            set_default_executor("socket")
            assert default_executor_name() == "socket"
            cluster = SimulatedCluster(figure1_fragmentation())
            assert cluster.executor.name == "socket"
        finally:
            set_default_executor(original)

    def test_sequential_runs_tasks_in_order(self):
        backend = SequentialExecutor()
        results = backend.run_tasks(
            [SiteTask(i, _double, (i,)) for i in range(4)]
        )
        assert [r.site_id for r in results] == [0, 1, 2, 3]
        assert [r.value for r in results] == [0, 2, 4, 6]
        assert all(r.seconds >= 0 for r in results)
