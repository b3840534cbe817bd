"""Repartition-safe incremental sessions under mutation (DESIGN.md §8).

The contract under test — the acceptance bar of the dynamic-graph
subsystem:

* for arbitrary interleavings of session edge mutations (intra- and
  cross-fragment) and ``repartition()`` calls, the standing answers of
  open ``IncrementalReachSession``/``IncrementalRegularSession`` objects
  stay bit-identical to a from-scratch centralized evaluation, and to
  from-scratch ``disReach``/``disRPQ`` on every executor backend;
* a warm :class:`BatchQueryEngine` never serves pre-repartition (or
  pre-mutation) rvsets;
* mutating through stale state — a session that missed the repartition
  notification, or a retired fragment handle — raises
  :class:`QueryError` instead of silently corrupting the answer;
* invalid mutations fail *before* any fragment, version or cache changes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import reachable, regular_reachable
from repro.core.engine import evaluate
from repro.core.incremental import IncrementalReachSession, IncrementalRegularSession
from repro.core.queries import ReachQuery, RegularReachQuery
from repro.distributed import SimulatedCluster
from repro.distributed.executors import EXECUTORS
from repro.errors import QueryError
from repro.graph import erdos_renyi
from repro.serving import BatchQueryEngine

N = 24
REGEX = "L0* | L1+"


def _case(partitioner="hash", seed=3, k=3):
    graph = erdos_renyi(N, 2 * N, seed=seed, num_labels=3)
    cluster = SimulatedCluster.from_graph(graph, k, partitioner=partitioner, seed=0)
    return graph, cluster


def _apply_op(op, graph, cluster, session, other_session):
    """Interpret one (kind, a, b) triple against the current graph state.

    Mutations flow through ``session``; ``other_session`` (sharing the
    cluster) is resynced on the touched endpoints, the documented protocol
    for changes applied outside a session.  Returns whether anything was
    applied.
    """
    kind, a, b = op
    nodes = sorted(graph.nodes())
    if kind == 5:  # repartition: a rotating partitioner or the current placement
        if a % 4 == 3:
            placement = dict(cluster.fragmentation.placement)
            cluster.repartition(placement, num_fragments=len(cluster.fragmentation))
        else:
            cluster.repartition(("refined", "chunk", "hash")[a % 4], seed=0)
        return True
    if kind in (3, 4):  # remove an existing edge
        edges = sorted(graph.edges())
        if not edges:
            return False
        u, v = edges[a % len(edges)]
        graph.remove_edge(u, v)
        session.remove_edge(u, v)
    else:  # add a missing edge
        u, v = nodes[a % N], nodes[b % N]
        if u == v or graph.has_edge(u, v):
            return False
        graph.add_edge(u, v)
        session.add_edge(u, v)
    if cluster.partition_epoch == other_session._epoch:
        other_session.resync(u)
        other_session.resync(v)
    return True


class TestInterleavedEquivalence:
    """Hypothesis: arbitrary mutation/repartition interleavings stay sound."""

    @settings(max_examples=25, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.integers(0, 5), st.integers(0, 4 * N), st.integers(0, N - 1)
            ),
            max_size=10,
        )
    )
    def test_standing_answers_track_scratch(self, ops):
        graph, cluster = _case()
        engine = BatchQueryEngine(cluster)
        # Registered first and never resynced: its own partials go stale
        # with every write, and no repartition may reuse them.
        lagging = IncrementalReachSession(cluster, (0, N - 1))
        reach = IncrementalReachSession(cluster, (0, N - 1))
        rpq = IncrementalRegularSession(cluster, (0, N - 1, REGEX))
        lagging.initialize()
        reach.initialize()
        rpq.initialize()
        queries = [ReachQuery(0, N - 1), RegularReachQuery(0, N - 1, REGEX)]
        engine.run_batch(queries)  # warm the serving cache pre-interleaving
        for op in ops:
            if not _apply_op(op, graph, cluster, reach, rpq):
                continue
            if op[0] == 5:  # a remap evaluates every session from scratch
                assert lagging.answer == reachable(graph, 0, N - 1), op
            assert reach.answer == reachable(graph, 0, N - 1), op
            assert rpq.answer == regular_reachable(graph, 0, N - 1, REGEX), op
            # The warm engine must never serve a stale rvset.
            assert engine.run_batch(queries).answers == [reach.answer, rpq.answer]
        # From-scratch disReach/disRPQ agree on every executor backend.
        for backend in sorted(EXECUTORS):
            with cluster.using_executor(backend):
                assert evaluate(cluster, queries[0]).answer == reach.answer
                assert evaluate(cluster, queries[1]).answer == rpq.answer


class TestRemapProtocol:
    def test_repartition_remaps_standing_answer(self):
        graph, cluster = _case()
        session = IncrementalReachSession(cluster, (0, N - 1))
        session.initialize()
        before = session.answer
        report = cluster.repartition("refined", seed=0)
        assert session.answer == before == reachable(graph, 0, N - 1)
        assert session.remaps == 1
        assert report.sessions_remapped == 1
        assert session.last_remap.details["incremental"] == "remap"
        # every result shape carries "sites" (init/remap visit them all)
        assert session.last_remap.details["sites"] == tuple(
            site.site_id for site in cluster.sites
        )
        assert session._epoch == cluster.partition_epoch == report.epoch == 1
        # partials were rebuilt against the new fragmentation
        assert set(session._partials) == {f.fid for f in cluster.fragmentation}

    def test_remap_charges_modeled_cost(self):
        _, cluster = _case()
        session = IncrementalReachSession(cluster, (0, N - 1))
        init = session.initialize()
        cluster.repartition("refined", seed=0)
        remap = session.last_remap
        assert remap.stats.total_visits == init.stats.total_visits
        assert remap.stats.traffic_bytes > 0

    def test_uninitialized_session_not_counted(self):
        _, cluster = _case()
        session = IncrementalReachSession(cluster, (0, N - 1))
        report = cluster.repartition("refined", seed=0)
        assert report.sessions_remapped == 0
        assert session.remaps == 0
        session.initialize()  # binds cleanly to the new fragmentation
        assert session._epoch == 1

    def test_mutations_after_repartition_work(self):
        graph, cluster = _case()
        session = IncrementalReachSession(cluster, (0, N - 1))
        session.initialize()
        cluster.repartition("refined", seed=0)
        nodes = sorted(graph.nodes())
        u, v = next(
            (u, v)
            for u in nodes
            for v in nodes
            if u != v and not graph.has_edge(u, v)
        )
        graph.add_edge(u, v)
        result = session.add_edge(u, v)
        assert result.answer == reachable(graph, 0, N - 1)

    def test_dropped_session_is_deregistered(self):
        _, cluster = _case()
        session = IncrementalReachSession(cluster, (0, N - 1))
        session.initialize()
        del session
        report = cluster.repartition("refined", seed=0)
        assert report.sessions_remapped == 0


class TestStaleStateGuards:
    def test_unnotified_session_raises_not_corrupts(self):
        graph, cluster = _case()
        session = IncrementalReachSession(cluster, (0, N - 1))
        session.initialize()
        # Simulate a session that evaded the registry (e.g. a future bug):
        cluster._sessions.discard(session)
        cluster.repartition("refined", seed=0)
        edges = sorted(graph.edges())
        with pytest.raises(QueryError, match="stale"):
            session.remove_edge(*edges[0])
        with pytest.raises(QueryError, match="stale"):
            session.resync(edges[0][0])

    def test_stale_fragment_handle_after_repartition(self):
        _, cluster = _case()
        handle = cluster.fragmentation[0]
        cluster.repartition("refined", seed=0)
        with pytest.raises(QueryError, match="stale"):
            cluster.ensure_current_fragment(handle)

    def test_stale_fragment_handle_after_cross_mutation(self):
        graph, cluster = _case()
        placement = cluster.fragmentation.placement
        u, v = next(
            (u, v)
            for u in sorted(graph.nodes())
            for v in sorted(graph.nodes())
            if u != v and placement[u] != placement[v] and not graph.has_edge(u, v)
        )
        handle = cluster.fragmentation[placement[u]]
        cluster.apply_edge_mutation(u, v, add=True)
        with pytest.raises(QueryError, match="stale"):
            cluster.ensure_current_fragment(handle)
        # the freshly installed object passes
        current = cluster.fragmentation[placement[u]]
        assert cluster.ensure_current_fragment(current) is current

    def test_stale_fragment_handle_after_intra_mutation(self):
        graph, cluster = _case()
        placement = cluster.fragmentation.placement
        u, v = next(
            (u, v)
            for u in sorted(graph.nodes())
            for v in sorted(graph.nodes())
            if u != v and placement[u] == placement[v] and not graph.has_edge(u, v)
        )
        handle = cluster.fragmentation[placement[u]]
        cluster.apply_edge_mutation(u, v, add=True)
        # every write installs a successor state, intra-fragment ones too
        with pytest.raises(QueryError, match="stale"):
            cluster.ensure_current_fragment(handle)
        current = cluster.fragmentation[placement[u]]
        assert current.version > handle.version
        assert cluster.ensure_current_fragment(current) is current

    def test_uninitialized_session_rejects_mutation(self):
        graph, cluster = _case()
        session = IncrementalReachSession(cluster, (0, N - 1))
        edges = sorted(graph.edges())
        with pytest.raises(QueryError, match="not initialized"):
            session.remove_edge(*edges[0])


class TestPreMutationValidation:
    """Invalid mutations leave sessions, versions and caches untouched."""

    def _snapshot(self, cluster, session, engine):
        return (
            dict(session._partials),
            session.updates_applied,
            {f.fid: cluster.fragment_version(f.fid) for f in cluster.fragmentation},
            len(engine.cache),
            session.answer,
        )

    def _fixture(self):
        graph, cluster = _case()
        session = IncrementalReachSession(cluster, (0, N - 1))
        session.initialize()
        engine = BatchQueryEngine(cluster)
        engine.run_batch([ReachQuery(0, N - 1)])
        assert len(engine.cache) > 0
        return graph, cluster, session, engine

    def test_remove_nonexistent_edge(self):
        graph, cluster, session, engine = self._fixture()
        nodes = sorted(graph.nodes())
        u, v = next(
            (u, v) for u in nodes for v in nodes if u != v and not graph.has_edge(u, v)
        )
        before = self._snapshot(cluster, session, engine)
        with pytest.raises(QueryError, match="is not in the graph"):
            session.remove_edge(u, v)
        assert self._snapshot(cluster, session, engine) == before

    def test_add_existing_edge(self):
        graph, cluster, session, engine = self._fixture()
        u, v = sorted(graph.edges())[0]
        before = self._snapshot(cluster, session, engine)
        with pytest.raises(QueryError, match="already exists"):
            session.add_edge(u, v)
        assert self._snapshot(cluster, session, engine) == before

    def test_add_edge_unknown_endpoint(self):
        _, cluster, session, engine = self._fixture()
        before = self._snapshot(cluster, session, engine)
        with pytest.raises(QueryError, match="'ghost' is not stored"):
            session.add_edge("ghost", 0)
        with pytest.raises(QueryError, match="'ghost' is not stored"):
            session.add_edge(0, "ghost")
        assert self._snapshot(cluster, session, engine) == before

    def test_resync_unknown_node(self):
        _, cluster, session, engine = self._fixture()
        before = self._snapshot(cluster, session, engine)
        with pytest.raises(QueryError, match="'ghost' is not stored"):
            session.resync("ghost")
        assert self._snapshot(cluster, session, engine) == before


class TestWarmEngineAcrossMutations:
    def test_cross_mutation_invalidates_eagerly(self):
        graph, cluster = _case()
        engine = BatchQueryEngine(cluster)
        query = ReachQuery(0, N - 1)
        engine.run_batch([query])
        assert len(engine.cache) > 0
        session = IncrementalReachSession(cluster, (0, N - 1))
        session.initialize()
        placement = cluster.fragmentation.placement
        u, v = next(
            (u, v)
            for u in sorted(graph.nodes())
            for v in sorted(graph.nodes())
            if u != v and placement[u] != placement[v] and not graph.has_edge(u, v)
        )
        fids = {placement[u], placement[v]}
        graph.add_edge(u, v)
        session.add_edge(u, v)
        # registered cache lost the affected fragments' entries eagerly
        for key in engine.cache._entries:
            assert key[0] not in fids
        assert engine.run_batch([query]).answers == [reachable(graph, 0, N - 1)]
