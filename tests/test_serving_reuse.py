"""A reused plan or solved answer equals a fresh evaluation (DESIGN.md §6).

The serving cache keeps, beside each fragment's partial answer, every
distinct query's plan and its solved answer.  Neither may ever change a
result: whatever the engine reuses, each query's answer, details, traffic,
visits and message log equal what a fresh engine on an empty cache
computes, and the answer equals the centralized one — across batches of
repeated and distinct queries, session edge writes, ``resync``,
``invalidate_fragment``, ``clear()`` and a repartition.  The remaining
tests pin when the tables are bypassed or rebuilt and what the counters
count.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.core.engine as core_engine
from repro.core.bounded import BoundedReachPlan
from repro.core.centralized import evaluate_centralized
from repro.core.engine import evaluate
from repro.core.incremental import IncrementalReachSession
from repro.core.options import STRATEGIES
from repro.core.queries import BoundedReachQuery, ReachQuery, RegularReachQuery
from repro.core.reachability import ReachPlan
from repro.core.regular import RegularReachPlan
from repro.distributed import SimulatedCluster
from repro.graph import erdos_renyi
from repro.index.registry import set_default_oracle
from repro.net.server import start_background_server
from repro.partition import build_fragmentation, random_partition
from repro.serving import BatchQueryEngine, SiteResultCache, execute_plans
from repro.workload.query_gen import zipf_workload

PLAN_CLASSES = (ReachPlan, BoundedReachPlan, RegularReachPlan)
STEPS = ("batch", "repeat", "write", "resync", "invalidate", "clear", "repartition")


@pytest.fixture(autouse=True)
def _clean_defaults(monkeypatch):
    """No process default or environment layer leaks into or out of a test."""
    for registry in STRATEGIES.values():
        if registry.env_var:
            monkeypatch.delenv(registry.env_var, raising=False)
        registry.set_default(None)
    yield
    for registry in STRATEGIES.values():
        registry.set_default(None)


def _cluster(seed: int, num_nodes: int = 30, k: int = 3, shared: bool = False):
    graph = erdos_renyi(num_nodes, 2 * num_nodes, seed=seed, num_labels=3)
    fragmentation = build_fragmentation(graph, random_partition(graph, k, seed=seed), k)
    # Shared sites: every fragment on one of two sites.
    assignment = {fid: fid % 2 for fid in range(k)} if shared else None
    return graph, SimulatedCluster(fragmentation, fragment_assignment=assignment)


def _signature(result):
    stats = result.stats
    return (
        result.answer,
        result.details,
        stats.traffic_bytes,
        dict(stats.visits),
        [(m.src, m.dst, m.kind, m.size_bytes) for m in stats.messages],
    )


@pytest.fixture
def counted(monkeypatch):
    """Counts of ``plan_for`` calls and of plan ``assemble`` calls."""
    calls = {"plan_for": 0, "assemble": 0}
    real_plan_for = core_engine.plan_for

    def plan_for(*args, **kwargs):
        calls["plan_for"] += 1
        return real_plan_for(*args, **kwargs)

    monkeypatch.setattr(core_engine, "plan_for", plan_for)
    for cls in PLAN_CLASSES:
        real = cls.assemble

        def assemble(self, *args, _real=real, **kwargs):
            calls["assemble"] += 1
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "assemble", assemble)
    return calls


class TestReuseEqualsFreshEvaluation:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        num_nodes=st.integers(24, 60),
        k=st.integers(3, 4),
        shared=st.booleans(),
        steps=st.lists(st.sampled_from(STEPS), min_size=4, max_size=9),
    )
    def test_every_result_equals_a_fresh_engine_and_the_centralized_answer(
        self, seed, num_nodes, k, shared, steps
    ):
        graph, cluster = _cluster(seed, num_nodes, k, shared)
        pool = zipf_workload(graph, count=40, distinct=8, seed=seed)
        rng = random.Random(seed)
        engine = BatchQueryEngine(cluster)
        # Not registered with the cluster: no write reclaims its entries, so
        # only the fragment versions in its keys keep it sound.
        loose = SiteResultCache()
        nodes = sorted(graph.nodes())
        source, target = nodes[0], nodes[-1]
        session = IncrementalReachSession(cluster, ReachQuery(source, target))
        session.initialize()
        last = pool[:6]
        untouched = False  # nothing has changed since `last` was served

        def serve(queries):
            batch = engine.run_batch(queries)
            plans = [core_engine.plan_for(query) for query in queries]
            unregistered = execute_plans(cluster, plans, cache=loose)
            now = cluster.fragmentation.restore_graph()
            for query, result, other in zip(queries, batch.results, unregistered):
                fresh = _signature(BatchQueryEngine(cluster).evaluate(query))
                assert _signature(result) == fresh, query
                assert _signature(other) == fresh, query
                assert result.answer == evaluate_centralized(now, query), query
            return batch

        for step in ["batch", *steps, "repeat"]:
            if step == "batch":
                last = [rng.choice(pool) for _ in range(rng.randint(2, 8))]
                serve(last)
                untouched = True
                continue
            if step == "repeat":
                batch = serve(last)
                if untouched:
                    solvable = sum(1 for r in batch.results if "trivial" not in r.details)
                    assert batch.workload.plan_hits == len(last)
                    assert batch.workload.answer_hits == solvable
                    assert batch.workload.tasks_executed == 0
                untouched = True
                continue
            untouched = False
            if step == "write":
                u, v = rng.choice(nodes), rng.choice(nodes)
                if u == v:
                    continue
                now = cluster.fragmentation.restore_graph()
                if now.has_edge(u, v):
                    session.remove_edge(u, v)
                else:
                    session.add_edge(u, v)
            elif step == "resync":
                session.resync(rng.choice(nodes))
            elif step == "invalidate":
                engine.invalidate_fragment(rng.randrange(k))
            elif step == "clear":
                engine.cache.clear()
                assert len(engine.cache._plans) == len(engine.cache._answers) == 0
            else:
                cluster.repartition("refined", seed=seed)
            now = cluster.fragmentation.restore_graph()
            assert session.answer == evaluate_centralized(now, session.query)
            engine.cache.check_index()


class TestRebuildAfterClear:
    def test_clear_rebuilds_every_plan_and_assembles_every_query(self, counted):
        graph, cluster = _cluster(seed=5)
        nodes = sorted(graph.nodes())
        queries = [
            ReachQuery(nodes[0], nodes[9]),
            BoundedReachQuery(nodes[1], nodes[8], 5),
            RegularReachQuery(nodes[2], nodes[7], "L0* | L1*"),
        ]
        engine = BatchQueryEngine(cluster)
        engine.run_batch(queries)
        assert counted == {"plan_for": 3, "assemble": 3}
        warm = engine.run_batch(queries)
        assert counted == {"plan_for": 3, "assemble": 3}
        assert (warm.workload.plan_hits, warm.workload.answer_hits) == (3, 3)
        engine.cache.clear()
        cold = engine.run_batch(queries)
        assert counted == {"plan_for": 6, "assemble": 6}
        assert (cold.workload.plan_misses, cold.workload.answer_misses) == (3, 3)
        assert [_signature(r) for r in cold] == [_signature(r) for r in warm]

    def test_a_write_solves_again_but_keeps_the_plan(self, counted):
        graph, cluster = _cluster(seed=6)
        nodes = sorted(graph.nodes())
        query = ReachQuery(nodes[0], nodes[-1])
        engine = BatchQueryEngine(cluster)
        engine.evaluate(query)
        u, v = nodes[3], nodes[4]
        cluster.apply_edge_mutation(u, v, not graph.has_edge(u, v))
        assert len(engine.cache._answers) == 0  # every answer read every fragment
        engine.evaluate(query)
        assert counted == {"plan_for": 1, "assemble": 2}


class TestChangedDefaultsBuildNewPlans:
    @staticmethod
    def _oracles_in_keys(engine):
        return {key[3][-1] for key in engine.cache._entries if key[2] == "disReach"}

    @pytest.mark.parametrize("layer", ["set_default", "env"])
    def test_a_new_oracle_default_builds_a_plan_keyed_by_it(
        self, layer, counted, monkeypatch
    ):
        graph, cluster = _cluster(seed=7)
        nodes = sorted(graph.nodes())
        reach = ReachQuery(nodes[0], nodes[-1])
        bounded = BoundedReachQuery(nodes[0], nodes[-1], 4)
        engine = BatchQueryEngine(cluster)
        first = engine.run_batch([reach, bounded])
        assert self._oracles_in_keys(engine) == {"none"}
        if layer == "env":
            monkeypatch.setenv("REPRO_ORACLE", "tol")
        else:
            set_default_oracle("tol")
        second = engine.run_batch([reach, bounded])
        # disReach takes the oracle: a new plan, new partials, a new solve;
        # disDist does not: its plan and answer are reused.
        assert counted == {"plan_for": 3, "assemble": 3}
        assert (second.workload.plan_hits, second.workload.answer_hits) == (1, 1)
        assert self._oracles_in_keys(engine) == {"none", "tol"}
        assert [_signature(r) for r in second] == [_signature(r) for r in first]


class TestBypasses:
    def test_collect_details_always_assembles(self, counted):
        graph, cluster = _cluster(seed=8)
        nodes = sorted(graph.nodes())
        query = ReachQuery(nodes[0], nodes[-1])
        engine = BatchQueryEngine(cluster)
        plain = engine.evaluate(query)
        assert counted["assemble"] == 1
        for _ in range(2):
            detailed = engine.evaluate(query, collect_details=True)
            assert "equations" in detailed.details and "bes" in detailed.details
            assert detailed.answer == plain.answer
        assert counted["assemble"] == 3
        assert engine.cache.answer_hits == 0 and len(engine.cache._answers) == 1
        # nor did the detailed solves replace the stored plain answer
        assert engine.evaluate(query).details == plain.details
        assert engine.cache.answer_hits == 1

    def test_cache_none_never_touches_the_plan_or_answer_tables(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("one-shot evaluation touched a reuse table")

        for name in ("get_plan", "put_plan", "get_answer", "put_answer"):
            monkeypatch.setattr(SiteResultCache, name, refuse)
        graph, cluster = _cluster(seed=9)
        nodes = sorted(graph.nodes())
        queries = [
            ReachQuery(nodes[0], nodes[-1]),
            BoundedReachQuery(nodes[0], nodes[-1], 5),
            RegularReachQuery(nodes[0], nodes[-1], "L0* | L2*"),
        ]
        for query in queries + queries:
            evaluate(cluster, query)
        plans = [core_engine.plan_for(query) for query in queries]
        batch = execute_plans(cluster, plans + plans)
        assert (batch.workload.answer_hits, batch.workload.answer_misses) == (0, 0)
        session = IncrementalReachSession(cluster, queries[0])
        session.initialize()
        session.resync(nodes[0])


class TestCounters:
    def test_partial_counters_ignore_the_plan_and_answer_tables(self):
        graph, cluster = _cluster(seed=10, k=3)
        nodes = sorted(graph.nodes())
        query = ReachQuery(nodes[0], nodes[-1])
        engine = BatchQueryEngine(cluster)
        cache = engine.cache
        engine.evaluate(query)
        assert (cache.hits, cache.misses, len(cache)) == (0, 3, 3)
        engine.evaluate(query)
        assert (cache.hits, cache.misses, len(cache)) == (3, 3, 3)
        assert cache.reuse_counts() == {
            "plan_hits": 1,
            "plan_misses": 1,
            "answer_hits": 1,
            "answer_misses": 1,
        }
        assert (len(cache._plans), len(cache._answers)) == (1, 1)
        assert cache.invalidate_fragment(0) == 1
        assert (cache.invalidations, len(cache), len(cache._answers)) == (1, 2, 0)
        assert len(cache._plans) == 1
        cache.clear()
        assert (cache.invalidations, len(cache), len(cache._plans)) == (3, 0, 0)
        assert cache.evictions == 0
        cache.check_index()

    def test_evictions_count_partials_and_every_table_keeps_the_bound(self):
        graph, cluster = _cluster(seed=11, k=3)
        queries = zipf_workload(graph, count=30, distinct=12, seed=11)
        engine = BatchQueryEngine(cluster, max_entries=4)
        for query in queries:
            engine.evaluate(query)
        cache = engine.cache
        assert len(cache) <= 4 and len(cache._plans) <= 4 and len(cache._answers) <= 4
        # one put per miss, and nothing was invalidated: every put that is
        # not resident was evicted
        assert cache.evictions == cache.misses - len(cache) > 0
        cache.check_index()
        for query in queries:
            assert _signature(engine.evaluate(query)) == _signature(
                BatchQueryEngine(cluster).evaluate(query)
            )


class TestObservability:
    COUNTS = ("plan_hits", "plan_misses", "answer_hits", "answer_misses")

    def test_workload_and_client_report_plan_and_answer_reuse(self):
        graph, _ = _cluster(seed=12)
        nodes = sorted(graph.nodes())
        query = ReachQuery(nodes[0], nodes[-1])
        with repro.connect(graph, fragments=3, seed=0) as client:
            batch = client.batch([query, query])
            assert (batch.workload.plan_hits, batch.workload.plan_misses) == (1, 1)
            assert (batch.workload.answer_hits, batch.workload.answer_misses) == (1, 1)
            text = batch.workload.summary()
            assert "plans-reused=1/2" in text and "answers-reused=1/2" in text
            stats = client.stats()
        assert [stats[name] for name in self.COUNTS] == [1, 1, 1, 1]

    def test_serve_stats_op_reports_plan_and_answer_reuse(self):
        graph, cluster = _cluster(seed=13)
        nodes = sorted(graph.nodes())
        server = start_background_server(BatchQueryEngine(cluster), window=0.0)
        try:
            with repro.connect(server.address) as client:
                for _ in range(3):
                    client.query(ReachQuery(nodes[0], nodes[-1]))
                stats = client.stats()
        finally:
            server.shutdown()
        assert stats["served"] == 3
        assert [stats[name] for name in self.COUNTS] == [2, 1, 2, 1]
