"""Serving layer: batch engine, site-result cache, plans (DESIGN.md §6).

The cross-cutting equivalence property (any batch == one-by-one evaluation,
on every executor backend) lives in ``tests/test_batch_equivalence.py``;
this file covers the serving components themselves: cache mechanics and
invalidation, deduplication accounting, plan cache-key soundness rules, and
the batch-of-one contract of the rewritten core algorithms.
"""

from __future__ import annotations

import pytest

from repro.core.engine import evaluate, is_batchable, plan_for
from repro.core.incremental import IncrementalReachSession
from repro.core.queries import BoundedReachQuery, ReachQuery, RegularReachQuery
from repro.distributed import SimulatedCluster
from repro.errors import DistributedError, QueryError
from repro.graph import DiGraph
from repro.partition import build_fragmentation
from repro.serving import (
    ABSENT,
    BatchQueryEngine,
    CacheEntry,
    SiteResultCache,
    endpoint_params,
)
from repro.workload.paper_example import figure1_fragmentation

MIXED_QUERIES = [
    ReachQuery("Ann", "Mark"),
    ReachQuery("Pat", "Mark"),
    BoundedReachQuery("Ann", "Mark", 6),
    RegularReachQuery("Ann", "Mark", "DB* | HR*"),
    ReachQuery("Ann", "Mark"),  # exact repeat: full cache hit
    ReachQuery("Ann", "Ann"),  # trivial: answered at the coordinator
]


@pytest.fixture
def cluster():
    return SimulatedCluster(figure1_fragmentation())


@pytest.fixture
def engine(cluster):
    return BatchQueryEngine(cluster)


class TestSiteResultCache:
    def test_put_get_roundtrip_and_counters(self):
        cache = SiteResultCache()
        key = (0, 0, "disReach", ("a", "b"))
        assert cache.get(key) is None
        cache.put(key, CacheEntry({"x": frozenset()}, 0.5, 7))
        entry = cache.get(key)
        assert entry.equations == {"x": frozenset()}
        assert entry.seconds == 0.5 and entry.size == 7
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5 and cache.lookups == 2

    def test_lru_eviction(self):
        cache = SiteResultCache(max_entries=2)
        for fid in range(3):
            cache.put((fid, 0, "disReach", ()), CacheEntry({}, 0.0, 0))
        assert len(cache) == 2 and cache.evictions == 1
        assert (0, 0, "disReach", ()) not in cache
        # touching an entry refreshes its recency
        cache.get((1, 0, "disReach", ()))
        cache.put((3, 0, "disReach", ()), CacheEntry({}, 0.0, 0))
        assert (1, 0, "disReach", ()) in cache
        assert (2, 0, "disReach", ()) not in cache

    def test_invalidate_fragment_drops_only_that_fragment(self):
        cache = SiteResultCache()
        cache.put((0, 0, "disReach", ()), CacheEntry({}, 0.0, 0))
        cache.put((0, 0, "disDist", (6,)), CacheEntry({}, 0.0, 0))
        cache.put((1, 0, "disReach", ()), CacheEntry({}, 0.0, 0))
        assert cache.invalidate_fragment(0) == 2
        assert len(cache) == 1 and (1, 0, "disReach", ()) in cache

    def test_clear_and_bad_size(self):
        cache = SiteResultCache()
        cache.put((0, 0, "x", ()), CacheEntry({}, 0.0, 0))
        cache.clear()
        assert len(cache) == 0
        with pytest.raises(ValueError):
            SiteResultCache(max_entries=0)


class TestEndpointParams:
    def test_relevance_rules(self, cluster):
        fragmentation = cluster.fragmentation
        frag = fragmentation[0]
        local = sorted(frag.nodes, key=repr)[0]
        remote_frag = fragmentation[1]
        remote = sorted(
            (n for n in remote_frag.nodes if n not in frag.virtual_nodes), key=repr
        )[0]
        # a remote endpoint that is not even a virtual node is ABSENT
        src, tgt = endpoint_params(frag, remote, remote)
        assert src is ABSENT and tgt is ABSENT
        # a locally stored target always matters
        _, tgt = endpoint_params(frag, remote, local)
        assert tgt == local
        # a virtual-node target matters too (it becomes the constant true)
        virtual = sorted(frag.virtual_nodes, key=repr)[0]
        _, tgt = endpoint_params(frag, remote, virtual)
        assert tgt == virtual

    def test_in_node_source_is_normalized_for_boolean_plans(self, cluster):
        frag = cluster.fragmentation[0]
        if not frag.in_nodes:
            pytest.skip("fragment has no in-nodes")
        in_node = sorted(frag.in_nodes, key=repr)[0]
        src, _ = endpoint_params(frag, in_node, "nowhere")
        assert src is ABSENT  # iset unchanged -> result unchanged
        src, _ = endpoint_params(
            frag, in_node, "nowhere", source_matters_as_in_node=True
        )
        assert src == in_node  # regular plans keep it: (s, us) root


class TestPlanFor:
    def test_defaults_are_batchable(self):
        assert plan_for(ReachQuery("a", "b")).algorithm == "disReach"
        assert plan_for(BoundedReachQuery("a", "b", 3)).algorithm == "disDist"
        assert plan_for(RegularReachQuery("a", "b", "x*")).algorithm == "disRPQ"
        assert is_batchable("disReach") and not is_batchable("disReachn")

    def test_rejects_baselines_and_mismatches(self):
        with pytest.raises(QueryError, match="not batchable"):
            plan_for(ReachQuery("a", "b"), "disReachn")
        with pytest.raises(QueryError, match="evaluates"):
            plan_for(ReachQuery("a", "b"), "disDist")
        with pytest.raises(QueryError, match="unsupported query type"):
            plan_for("not a query")


class TestBatchEngine:
    def test_mixed_batch_matches_sequential(self, cluster, engine):
        batch = engine.run_batch(MIXED_QUERIES)
        for query, result in zip(MIXED_QUERIES, batch.results):
            reference = evaluate(cluster, query)
            assert result.answer == reference.answer
            assert dict(result.stats.visits) == dict(reference.stats.visits)
            assert result.stats.traffic_bytes == reference.stats.traffic_bytes
        assert len(batch) == len(MIXED_QUERIES)
        assert batch.answers == [r.answer for r in batch]

    def test_within_batch_dedup(self, engine):
        # 3 identical queries on a 3-site cluster: fragments evaluated once.
        batch = engine.run_batch([ReachQuery("Ann", "Mark")] * 3)
        workload = batch.workload
        assert workload.tasks_executed == 3  # one per fragment, not 9
        assert workload.cache_misses == 3
        assert workload.cache_hits == 6
        assert workload.num_queries == 3

    def test_cross_batch_cache_hits_everything(self, engine):
        first = engine.run_batch(MIXED_QUERIES)
        assert first.workload.cache_misses > 0
        second = engine.run_batch(MIXED_QUERIES)
        assert second.workload.cache_misses == 0
        assert second.workload.hit_rate == 1.0
        assert second.workload.tasks_executed == 0
        # a fully cached batch moves no bytes and visits no site
        assert second.workload.batch.traffic_bytes == 0
        assert second.workload.batch.total_visits == 0
        assert second.answers == first.answers

    def test_cross_query_sharing_between_distinct_queries(self, engine):
        # Distinct endpoints still share every fragment touching neither.
        batch = engine.run_batch(
            [ReachQuery("Ann", "Mark"), ReachQuery("Pat", "Mark")]
        )
        assert batch.workload.cache_hits > 0

    def test_trivial_queries_cost_nothing(self, engine):
        batch = engine.run_batch([ReachQuery("Ann", "Ann")])
        result = batch.results[0]
        assert result.answer is True
        assert result.details == {"trivial": True}
        assert result.stats.num_messages == 0
        assert batch.workload.num_trivial == 1
        assert batch.workload.lookups == 0

    def test_batch_modeled_cost_beats_one_by_one(self, engine):
        queries = [ReachQuery("Ann", "Mark")] * 10 + [ReachQuery("Pat", "Mark")] * 10
        workload = engine.run_batch(queries).workload
        assert workload.hit_rate > 0.5
        assert workload.modeled_speedup is not None
        assert workload.modeled_speedup > 1.5
        assert workload.batch.traffic_bytes < workload.total_traffic_bytes
        assert workload.amortized_response_seconds is not None
        assert "hit-rate" in workload.summary()

    def test_per_query_supersteps_and_messages_replayed(self, cluster, engine):
        result = engine.evaluate(ReachQuery("Ann", "Mark"))
        reference = evaluate(cluster, ReachQuery("Ann", "Mark"))
        assert result.stats.supersteps == reference.stats.supersteps == 1
        assert [
            (m.src, m.dst, m.kind, m.size_bytes) for m in result.stats.messages
        ] == [(m.src, m.dst, m.kind, m.size_bytes) for m in reference.stats.messages]

    def test_unbatchable_algorithm_falls_back(self, cluster, engine):
        queries = [ReachQuery("Ann", "Mark"), ReachQuery("Pat", "Mark")]
        batch = engine.run_batch(queries, algorithm="disReachn")
        assert batch.workload.num_unbatched == 2
        assert batch.workload.batch is None
        for query, result in zip(queries, batch.results):
            assert result.answer == evaluate(cluster, query, "disReachn").answer

    def test_collect_details(self, engine):
        result = engine.evaluate(ReachQuery("Ann", "Mark"), collect_details=True)
        assert "equations" in result.details and "bes" in result.details

    def test_invalidate_fragment_proxy(self, engine):
        engine.run_batch([ReachQuery("Ann", "Mark")])
        assert engine.invalidate_fragment(0) > 0


class TestInvalidation:
    def _chain_cluster(self):
        graph = DiGraph.from_edges([(0, 1), (1, 2), (2, 3), (4, 5)])
        assignment = {0: 0, 1: 0, 2: 1, 3: 1, 4: 1, 5: 1}
        fragmentation = build_fragmentation(graph, assignment, 2)
        return SimulatedCluster(fragmentation)

    def test_fragment_version_roundtrip(self):
        cluster = self._chain_cluster()
        seen = {cluster.fragment_version(0)}
        bumped = cluster.bump_fragment_version(0)
        assert bumped > max(seen)
        assert cluster.fragment_version(0) == bumped
        seen.add(bumped)
        assert cluster.bump_fragment_version(0) > max(seen)
        with pytest.raises(DistributedError):
            cluster.fragment_version(99)
        with pytest.raises(DistributedError):
            cluster.bump_fragment_version(99)

    def test_bump_invalidates_cached_partials(self):
        cluster = self._chain_cluster()
        engine = BatchQueryEngine(cluster)
        query = ReachQuery(0, 5)
        assert engine.evaluate(query).answer is False
        # mutate fragment 1 in place: 3 -> 5 makes 0 reach 5
        fragment = cluster.fragmentation[1]
        fragment.local_graph.add_edge(3, 5)
        cluster.bump_fragment_version(1)
        assert engine.evaluate(query).answer is True
        # without the bump the stale partial would have been served: the
        # second evaluation must have re-executed fragment 1's task
        assert engine.cache.misses >= 3

    def test_incremental_session_bumps_version(self):
        cluster = self._chain_cluster()
        engine = BatchQueryEngine(cluster)
        query = ReachQuery(0, 5)
        assert engine.evaluate(query).answer is False
        session = IncrementalReachSession(cluster, query)
        session.initialize()
        seen = {cluster.fragment_version(1)}
        session.add_edge(3, 5)
        assert cluster.fragment_version(1) > max(seen)
        assert session.answer is True
        # the serving cache sees the new version and recomputes
        assert engine.evaluate(query).answer is True

    def test_resync_drops_registered_entries(self):
        cluster = self._chain_cluster()
        engine = BatchQueryEngine(cluster)
        assert engine.evaluate(ReachQuery(0, 5)).answer is False
        session = IncrementalReachSession(cluster, ReachQuery(0, 5))
        session.initialize()
        before = cluster.fragment_version(1)
        assert any(
            key[0] == 1 and key[1] == before for key in engine.cache._entries
        )
        # A change made outside the session, then resynced.
        cluster.fragmentation[1].local_graph.add_edge(3, 5)
        assert session.resync(3).answer is True
        assert cluster.fragment_version(1) > before
        assert not any(
            key[0] == 1 and key[1] < cluster.fragment_version(1)
            for key in engine.cache._entries
        )
        engine.cache.check_index()


class TestCacheFragmentIndex:
    """The per-fragment key index behind O(fragment) invalidation."""

    @staticmethod
    def _key(fid, version=0, tag="a"):
        return (fid, version, "disReach", (tag,))

    def test_invalidate_uses_index(self):
        cache = SiteResultCache()
        for fid in range(5):
            for version in range(3):
                cache.put(self._key(fid, version), CacheEntry({}, 0.0, 0))
        assert cache.invalidate_fragment(2) == 3
        assert cache.invalidate_fragment(2) == 0
        assert len(cache) == 12
        assert all(key[0] != 2 for key in cache._entries)
        cache.check_index()

    def test_eviction_keeps_index_consistent(self):
        cache = SiteResultCache(max_entries=4)
        for fid in range(10):
            cache.put(self._key(fid), CacheEntry({}, 0.0, 0))
        assert len(cache) == 4
        assert cache.evictions == 6
        cache.check_index()
        # evicted fragments invalidate to zero without touching live ones
        assert cache.invalidate_fragment(0) == 0
        assert cache.invalidate_fragment(9) == 1
        cache.check_index()

    def test_overwrite_does_not_duplicate_index(self):
        cache = SiteResultCache()
        cache.put(self._key(1), CacheEntry({}, 0.0, 0))
        cache.put(self._key(1), CacheEntry({}, 1.0, 0))
        assert len(cache) == 1
        cache.check_index()
        assert cache.invalidate_fragment(1) == 1
        assert len(cache) == 0
        cache.check_index()

    def test_clear_resets_index(self):
        cache = SiteResultCache()
        for fid in range(4):
            cache.put(self._key(fid), CacheEntry({}, 0.0, 0))
        cache.clear()
        cache.check_index()
        assert cache.invalidate_fragment(0) == 0

    def test_counters_account_for_every_departure(self):
        cache = SiteResultCache(max_entries=8)
        puts = 0
        for fid in range(6):
            for version in range(3):
                cache.put(self._key(fid, version), CacheEntry({}, 0.0, 0))
                puts += 1
        cache.invalidate_fragment(5)
        cache.clear()
        # every distinct key either was evicted, invalidated, or cleared
        assert cache.evictions + cache.invalidations == puts
        cache.check_index()

    def test_check_index_catches_desync(self):
        cache = SiteResultCache()
        cache.put(self._key(1), CacheEntry({}, 0.0, 0))
        del cache._entries[self._key(1)]  # simulate a bookkeeping bug
        with pytest.raises(AssertionError, match="desync"):
            cache.check_index()
