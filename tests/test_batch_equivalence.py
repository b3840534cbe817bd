"""Batch answers are bit-identical to sequential one-by-one evaluation.

The serving engine's contract (DESIGN.md §6): for ANY batch of queries — in
any order, with any amount of cross-query reuse, on any executor backend —
every query's answer and modeled per-query stats (visits, traffic, message
log, supersteps) equal what sequential, uncached, one-by-one evaluation
produces.  Hypothesis drives the shuffling; the executor matrix covers
``sequential``/``socket``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import evaluate
from repro.distributed import SimulatedCluster
from repro.distributed.executors import EXECUTORS
from repro.graph import erdos_renyi
from repro.partition import build_fragmentation, random_partition
from repro.serving import BatchQueryEngine
from repro.workload.query_gen import zipf_workload

BACKENDS = sorted(EXECUTORS)


def _case(seed: int, num_nodes: int = 24, num_edges: int = 48, k: int = 3):
    graph = erdos_renyi(num_nodes, num_edges, seed=seed, num_labels=3)
    assignment = random_partition(graph, k, seed=seed)
    cluster = SimulatedCluster(build_fragmentation(graph, assignment, k))
    return graph, cluster


def _signature(result):
    """The deterministic, order- and backend-independent part of a run."""
    stats = result.stats
    return (
        result.answer,
        dict(stats.visits),
        stats.traffic_bytes,
        [(m.src, m.dst, m.kind, m.size_bytes) for m in stats.messages],
        stats.supersteps,
        stats.network_seconds,
    )


class TestShuffledBatchEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 40), data=st.data())
    def test_any_shuffled_batch_matches_one_by_one(self, seed, data):
        graph, cluster = _case(seed)
        queries = zipf_workload(graph, count=10, distinct=5, seed=seed)
        order = data.draw(st.permutations(range(len(queries))))
        shuffled = [queries[i] for i in order]
        reference = {i: _signature(evaluate(cluster, queries[i])) for i in order}
        batch = BatchQueryEngine(cluster).run_batch(shuffled)
        for position, index in enumerate(order):
            assert _signature(batch.results[position]) == reference[index], (
                f"query {queries[index]} diverged at batch position {position}"
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_identical_across_executors(self, backend):
        graph, cluster = _case(seed=11)
        queries = zipf_workload(graph, count=16, distinct=6, seed=11)
        reference = [_signature(evaluate(cluster, query)) for query in queries]
        with cluster.using_executor(backend):
            batch = BatchQueryEngine(cluster).run_batch(queries)
        assert [_signature(result) for result in batch.results] == reference
        assert all(result.stats.executor == backend for result in batch.results)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_warm_cache_stays_identical_across_executors(self, backend):
        # Re-serving a workload from a warm cache must not change anything
        # about the per-query stats either.
        graph, cluster = _case(seed=23)
        queries = zipf_workload(graph, count=12, distinct=4, seed=23)
        reference = [_signature(evaluate(cluster, query)) for query in queries]
        engine = BatchQueryEngine(cluster)
        with cluster.using_executor(backend):
            engine.run_batch(queries)
            warm = engine.run_batch(queries)
        assert warm.workload.tasks_executed == 0
        assert [_signature(result) for result in warm.results] == reference
