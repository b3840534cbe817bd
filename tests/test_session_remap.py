"""Batched session remaps through the serving engine (DESIGN.md §8).

The contract under test — the acceptance bar of the session-remap
batching:

* after a repartition, every open session's standing answer, per-fragment
  partials and ``last_remap`` modeled stats are **bit-identical** to a
  fresh ``initialize()`` on a cluster built directly with the new
  placement — on every executor backend;
* the batch actually dedupes: on a shared-fragment workload the distinct
  per-fragment tasks executed stay strictly below ``sessions x
  fragments``, and ``remap_visits_saved`` is positive;
* the batched remap shares the registered serving cache, so a query
  served right after a repartition hits the remap's partials;
* a version-keyed cache hit is the only reuse across a repartition: a
  session that was not resynced after another session's write cannot
  leak its stale partials into the remap, the cache or a one-shot
  evaluation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import reachable, regular_reachable
from repro.core.engine import evaluate
from repro.core.incremental import IncrementalReachSession, IncrementalRegularSession
from repro.core.queries import ReachQuery
from repro.distributed import SimulatedCluster
from repro.distributed.executors import EXECUTORS
from repro.graph import DiGraph, erdos_renyi
from repro.serving import BatchQueryEngine

N = 24
REGEX = "L0* | L1+"
BACKENDS = sorted(EXECUTORS)


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


def _cluster(seed=3, k=3, executor=None):
    graph = erdos_renyi(N, 2 * N, seed=seed, num_labels=3)
    cluster = SimulatedCluster.from_graph(
        graph, k, partitioner="hash", seed=0, executor=executor
    )
    return graph, cluster


def _session(cluster, spec):
    """An uninitialized session for one (is_regular, source, target) spec."""
    is_regular, source, target = spec
    if is_regular:
        return IncrementalRegularSession(cluster, (source, target, REGEX))
    return IncrementalReachSession(cluster, (source, target))


def _open_sessions(cluster, specs):
    """One initialized session per spec."""
    sessions = [_session(cluster, spec) for spec in specs]
    for session in sessions:
        session.initialize()
    return sessions


def _fresh_initializations(graph, cluster, specs, executor=None):
    """Sessions initialized from scratch on ``cluster``'s current placement,
    with their ``initialize()`` results — the reference a remap must equal."""
    reference = SimulatedCluster.from_graph(
        graph,
        len(cluster.fragmentation),
        partitioner=dict(cluster.fragmentation.placement),
        executor=executor,
    )
    sessions = [_session(reference, spec) for spec in specs]
    return sessions, [session.initialize() for session in sessions]


class TestBatchedEqualsPerSession:
    """Hypothesis: a batched remap equals a from-scratch initialization."""

    @settings(max_examples=20, deadline=None)
    @given(
        specs=st.lists(
            st.tuples(
                st.booleans(), st.integers(0, N - 1), st.integers(0, N - 1)
            ),
            min_size=2,
            max_size=6,
        )
    )
    def test_standing_answers_and_stats_match(self, specs):
        specs = [spec for spec in specs if spec[1] != spec[2]]
        if not specs:
            return
        graph, cluster = _cluster()
        sessions = _open_sessions(cluster, specs)

        report = cluster.repartition("refined", seed=0)
        reference, initializations = _fresh_initializations(graph, cluster, specs)

        assert report.sessions_remapped == len(specs)
        assert report.remap_visits_saved >= 0
        assert report.remap_tasks <= len(specs) * len(cluster.fragmentation)
        for session, ref_session, init, (is_regular, source, target) in zip(
            sessions, reference, initializations, specs
        ):
            if is_regular:
                expected = regular_reachable(graph, source, target, REGEX)
            else:
                expected = reachable(graph, source, target)
            assert session.answer == ref_session.answer == expected
            assert _modeled_signature(session.last_remap) == _modeled_signature(init)
            assert session._partials == ref_session._partials
            assert session._epoch == 1


class TestDedupAndBackends:
    """Shared-fragment workload: the dedup must measurably fire."""

    #: Four standing queries over one shared pool — two literal duplicates
    #: plus two more that share all non-endpoint fragments.
    SPECS = [
        (False, 0, N - 1),
        (False, 0, N - 1),
        (False, 1, N - 1),
        (True, 0, N - 1),
    ]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dedup_fires_on_every_backend(self, backend):
        graph, cluster = _cluster(executor=backend)
        sessions = _open_sessions(cluster, self.SPECS)
        report = cluster.repartition("refined", seed=0)

        assert report.sessions_remapped == len(self.SPECS)
        # Dedup: strictly fewer distinct tasks than sessions x fragments,
        # and the batched round visited strictly fewer sites than a
        # per-session sweep would have.
        assert report.remap_tasks < len(self.SPECS) * len(cluster.fragmentation)
        assert report.remap_visits_saved > 0
        assert report.remap_rounds == 1
        for session, (is_regular, source, target) in zip(sessions, self.SPECS):
            if is_regular:
                expected = regular_reachable(graph, source, target, REGEX)
            else:
                expected = reachable(graph, source, target)
            assert session.answer == expected
            # From-scratch evaluation agrees on the same backend.
            assert evaluate(cluster, session.query).answer == expected

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_last_remap_matches_per_session_path(self, backend):
        graph, cluster = _cluster(executor=backend)
        sessions = _open_sessions(cluster, self.SPECS)
        cluster.repartition("refined", seed=0)
        reference, initializations = _fresh_initializations(
            graph, cluster, self.SPECS, executor=backend
        )
        for session, ref_session, init in zip(sessions, reference, initializations):
            assert session.answer == ref_session.answer
            assert session._partials == ref_session._partials
            assert _modeled_signature(session.last_remap) == _modeled_signature(init)

    def test_summary_mentions_remap(self):
        _, cluster = _cluster()
        sessions = _open_sessions(cluster, self.SPECS)  # kept alive: weak registry
        report = cluster.repartition("refined", seed=0)
        assert all(session.remaps == 1 for session in sessions)
        assert "remapped 4 session(s)" in report.summary()


class TestIncrementalRemapDelta:
    """Partial moves: remapped partials equal a from-scratch evaluation."""

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 4),
        specs=st.lists(
            st.tuples(
                st.booleans(), st.integers(0, N - 1), st.integers(0, N - 1)
            ),
            min_size=1,
            max_size=4,
        ),
        moved=st.sets(st.integers(0, N - 1), max_size=6),
    )
    def test_reused_partials_match_from_scratch(self, seed, specs, moved):
        """A repartition that moves a few nodes (leaving other fragments
        untouched) produces the same standing answers AND the same
        per-fragment equations as initializing fresh sessions directly on
        the new fragmentation."""
        specs = [spec for spec in specs if spec[1] != spec[2]]
        if not specs:
            return
        graph, cluster = _cluster(seed=seed)
        sessions = _open_sessions(cluster, specs)
        k = len(cluster.fragmentation)
        base = dict(cluster.fragmentation.placement)
        target = dict(base)
        for node in moved:
            target[node] = (base[node] + 1) % k
        cluster.repartition(target, num_fragments=k)

        reference_cluster = SimulatedCluster.from_graph(
            graph, k, partitioner=target
        )
        reference = _open_sessions(reference_cluster, specs)
        for session, ref_session in zip(sessions, reference):
            assert session.answer == ref_session.answer
            assert session._partials == ref_session._partials

    def test_mutation_after_reusing_remap_stays_sound(self):
        graph, cluster = _cluster()
        session = _open_sessions(cluster, [(False, 0, N - 1)])[0]
        assignment = dict(cluster.fragmentation.placement)
        cluster.repartition(assignment, num_fragments=len(cluster.fragmentation))
        # The standing query must keep tracking the mutated graph exactly.
        result = session.add_edge(0, N - 1)
        graph.add_edge(0, N - 1)
        assert result.answer is reachable(graph, 0, N - 1) is True
        session.remove_edge(0, N - 1)
        graph.remove_edge(0, N - 1)
        assert session.answer == reachable(graph, 0, N - 1)


class TestSharedServingCache:
    def test_remap_populates_registered_cache(self):
        _, cluster = _cluster()
        engine = BatchQueryEngine(cluster)
        query = ReachQuery(0, N - 1)
        session = IncrementalReachSession(cluster, (0, N - 1))
        session.initialize()
        cluster.repartition("refined", seed=0)
        # The batched remap ran through the engine's registered cache, so
        # serving the same standing query right after needs zero new tasks.
        batch = engine.run_batch([query])
        assert batch.workload.tasks_executed == 0
        assert batch.answers == [session.answer]

    def test_lagging_session_cannot_poison_a_remap(self):
        """Across a repartition the only reuse is a version-keyed cache hit.

        Two sessions stand on one (s, t).  A write through the later one
        makes t reachable; the earlier one is never resynced, so its own
        copy of the written fragment's partial is stale.  An identity
        repartition must not let that copy reach the up-to-date session,
        the serving cache or a one-shot evaluation.
        """
        graph = DiGraph.from_edges([(0, 1), (2, 3), (3, 4), (4, 5)])
        placement = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1}
        cluster = SimulatedCluster.from_graph(graph.copy(), 2, partitioner=placement)
        engine = BatchQueryEngine(cluster)
        query = ReachQuery(0, 4)
        lagging = IncrementalReachSession(cluster, (0, 4))
        writer = IncrementalReachSession(cluster, (0, 4))
        lagging.initialize()
        writer.initialize()
        assert writer.add_edge(1, 2).answer is True  # intra-fragment write
        graph.add_edge(1, 2)
        assert lagging.answer is False  # never resynced

        k = len(cluster.fragmentation)
        cluster.repartition(dict(cluster.fragmentation.placement), num_fragments=k)
        expected = reachable(graph, 0, 4)
        assert expected is True
        assert lagging.answer == writer.answer == expected
        assert engine.evaluate(query).answer == expected
        assert evaluate(cluster, query).answer == expected

    def test_uninitialized_sessions_skip_batch(self):
        _, cluster = _cluster()
        IncrementalReachSession(cluster, (0, N - 1))  # never initialized
        report = cluster.repartition("refined", seed=0)
        assert report.sessions_remapped == 0
        assert report.remap_tasks == 0
        assert report.remap_rounds == 0
