"""Unit tests for the simulated cluster and run accounting."""

import pytest

from repro.distributed import MessageKind, SimulatedCluster
from repro.errors import DistributedError, QueryError
from repro.graph import erdos_renyi
from repro.partition import build_fragmentation, check_fragmentation


@pytest.fixture
def cluster():
    g = erdos_renyi(30, 60, seed=1)
    return SimulatedCluster.from_graph(g, 3, partitioner="chunk")


class TestConstruction:
    def test_from_graph_partitioner_names(self):
        g = erdos_renyi(20, 40, seed=0)
        for name in ["random", "hash", "chunk", "bfs", "greedy"]:
            c = SimulatedCluster.from_graph(g, 2, partitioner=name, seed=1)
            assert c.num_sites == 2

    def test_from_graph_custom_partitioner(self):
        g = erdos_renyi(10, 20, seed=0)
        c = SimulatedCluster.from_graph(g, 2, partitioner=lambda g, k: {n: 0 for n in g.nodes()})
        assert c.fragmentation[0].nodes == set(g.nodes())

    def test_rejects_empty_fragmentation(self):
        from repro.partition import Fragmentation

        with pytest.raises(DistributedError):
            SimulatedCluster(Fragmentation([], {}))

    def test_rejects_bad_network_params(self):
        g = erdos_renyi(5, 5, seed=0)
        frag = build_fragmentation(g, {n: 0 for n in g.nodes()}, 1)
        with pytest.raises(DistributedError):
            SimulatedCluster(frag, bandwidth=0)
        with pytest.raises(DistributedError):
            SimulatedCluster(frag, latency=-1)

    def test_site_lookup(self, cluster):
        assert cluster.site(0).site_id == 0
        with pytest.raises(DistributedError):
            cluster.site(99)

    def test_site_of(self, cluster):
        node = next(iter(cluster.fragmentation.placement))
        site = cluster.site_of(node)
        assert node in site.fragment.nodes
        with pytest.raises(QueryError):
            cluster.site_of("not-a-node")


class TestRunAccounting:
    def test_broadcast_visits_every_site_once(self, cluster):
        run = cluster.start_run("x")
        run.broadcast({"q": 1})
        stats = run.finish()
        assert stats.visits_per_site() == {0: 1, 1: 1, 2: 1}
        assert stats.num_messages == 3

    def test_broadcast_charges_one_round(self, cluster):
        run = cluster.start_run("x")
        run.broadcast("abcd")
        stats = run.finish()
        expected = cluster.latency + 4 / cluster.bandwidth
        assert stats.response_seconds == pytest.approx(expected)

    def test_send_to_coordinator_outside_phase(self, cluster):
        run = cluster.start_run("x")
        run.send_to_coordinator(0, "abcd")
        stats = run.finish()
        assert stats.total_visits == 0
        assert stats.traffic_bytes == 4
        assert stats.response_seconds > 0

    def test_phase_overlaps_transfers(self, cluster):
        run = cluster.start_run("x")
        with run.parallel_phase() as phase:
            for sid in range(3):
                with phase.at(sid):
                    pass
                run.send_to_coordinator(sid, "x" * 100)
        stats = run.finish()
        # network time = one latency + max(site bytes) / bandwidth
        assert stats.response_seconds < 3 * (cluster.latency + 100 / cluster.bandwidth) + 0.01
        assert stats.traffic_bytes == 300
        assert stats.supersteps == 1

    def test_phases_cannot_nest(self, cluster):
        run = cluster.start_run("x")
        with pytest.raises(DistributedError):
            with run.parallel_phase():
                with run.parallel_phase():
                    pass

    def test_coordinator_work_charged(self, cluster):
        run = cluster.start_run("x")
        with run.coordinator_work():
            sum(range(10000))
        stats = run.finish()
        assert stats.coordinator_seconds > 0

    def test_finish_twice_raises(self, cluster):
        run = cluster.start_run("x")
        run.finish()
        with pytest.raises(DistributedError):
            run.finish()

    def test_send_to_site_counts_visit(self, cluster):
        run = cluster.start_run("x")
        run.send_to_site(1, "payload", MessageKind.TOKEN)
        stats = run.finish()
        assert stats.visits[1] == 1

    def test_wall_seconds_set(self, cluster):
        run = cluster.start_run("x")
        stats = run.finish()
        assert stats.wall_seconds >= 0


class TestApplyEdgeMutation:
    """In-place edge mutation: intra- and cross-fragment bookkeeping."""

    @pytest.fixture
    def mutable(self):
        g = erdos_renyi(24, 60, seed=5, num_labels=3)
        cluster = SimulatedCluster.from_graph(g, 3, partitioner="hash", seed=0)
        return g, cluster

    def _pair(self, g, cluster, cross, existing):
        placement = cluster.fragmentation.placement
        for u in sorted(g.nodes()):
            for v in sorted(g.nodes()):
                if u == v or (placement[u] != placement[v]) != cross:
                    continue
                if g.has_edge(u, v) == existing:
                    return u, v
        raise AssertionError("no such pair")

    def test_intra_add_and_remove(self, mutable):
        g, cluster = mutable
        u, v = self._pair(g, cluster, cross=False, existing=False)
        fid = cluster.fragmentation.placement[u]
        seen = {cluster.fragment_version(fid)}
        assert cluster.apply_edge_mutation(u, v, add=True) == (fid,)
        assert cluster.fragment_version(fid) > max(seen)
        seen.add(cluster.fragment_version(fid))
        g.add_edge(u, v)
        check_fragmentation(g, cluster.fragmentation)
        assert cluster.apply_edge_mutation(u, v, add=False) == (fid,)
        g.remove_edge(u, v)
        check_fragmentation(g, cluster.fragmentation)
        assert cluster.fragment_version(fid) > max(seen)

    def test_cross_add_and_remove_rebuild_anatomy(self, mutable):
        g, cluster = mutable
        u, v = self._pair(g, cluster, cross=True, existing=False)
        placement = cluster.fragmentation.placement
        fu, fv = placement[u], placement[v]
        versions = {fid: cluster.fragment_version(fid) for fid in (fu, fv)}
        affected = cluster.apply_edge_mutation(u, v, add=True)
        assert set(affected) == {fu, fv}
        g.add_edge(u, v)
        check_fragmentation(g, cluster.fragmentation)
        frag_u, frag_v = cluster.fragmentation[fu], cluster.fragmentation[fv]
        assert v in frag_u.virtual_nodes and (u, v) in frag_u.cross_edges
        assert v in frag_v.in_nodes
        assert frag_u.local_graph.label(v) == g.label(v)
        for fid in (fu, fv):
            assert cluster.fragment_version(fid) > versions[fid]
        cluster.apply_edge_mutation(u, v, add=False)
        g.remove_edge(u, v)
        check_fragmentation(g, cluster.fragmentation)

    def test_cross_remove_keeps_shared_boundary_nodes(self, mutable):
        g, cluster = mutable
        placement = cluster.fragmentation.placement
        # find a node v with >= 2 incoming cross edges from one fragment
        from collections import Counter
        incoming = Counter()
        for frag in cluster.fragmentation:
            for (_s, t) in frag.cross_edges:
                incoming[(frag.fid, t)] += 1
        (fu, v), _count = next(
            ((key, c) for key, c in incoming.items() if c >= 2), (None, None)
        )
        if fu is None:
            pytest.skip("no doubly-targeted virtual node in this instance")
        u = next(s for (s, t) in cluster.fragmentation[fu].cross_edges if t == v)
        cluster.apply_edge_mutation(u, v, add=False)
        g.remove_edge(u, v)
        check_fragmentation(g, cluster.fragmentation)
        # v still virtual at fu (another cross edge remains) and in at fv
        assert v in cluster.fragmentation[fu].virtual_nodes
        assert v in cluster.fragmentation[placement[v]].in_nodes

    def test_validation_precedes_mutation(self, mutable):
        g, cluster = mutable
        u, v = self._pair(g, cluster, cross=True, existing=True)
        versions = {f.fid: cluster.fragment_version(f.fid)
                    for f in cluster.fragmentation}
        with pytest.raises(QueryError, match="already exists"):
            cluster.apply_edge_mutation(u, v, add=True)
        missing_u, missing_v = self._pair(g, cluster, cross=False, existing=False)
        with pytest.raises(QueryError, match="is not in the graph"):
            cluster.apply_edge_mutation(missing_u, missing_v, add=False)
        with pytest.raises(QueryError, match="not stored at any site"):
            cluster.apply_edge_mutation("ghost", u, add=True)
        check_fragmentation(g, cluster.fragmentation)
        assert versions == {
            f.fid: cluster.fragment_version(f.fid) for f in cluster.fragmentation
        }

    def test_sites_serve_replaced_fragments(self, mutable):
        g, cluster = mutable
        u, v = self._pair(g, cluster, cross=True, existing=False)
        fu = cluster.fragmentation.placement[u]
        cluster.apply_edge_mutation(u, v, add=True)
        site = cluster.site_of_fragment(fu)
        held = next(f for f in site.fragments if f.fid == fu)
        assert held is cluster.fragmentation[fu]

    def test_random_mutation_storm_stays_valid(self, mutable):
        import random as _random
        g, cluster = mutable
        rng = _random.Random(11)
        nodes = sorted(g.nodes())
        for _ in range(60):
            u, v = rng.choice(nodes), rng.choice(nodes)
            if u == v:
                continue
            if g.has_edge(u, v):
                cluster.apply_edge_mutation(u, v, add=False)
                g.remove_edge(u, v)
            else:
                cluster.apply_edge_mutation(u, v, add=True)
                g.add_edge(u, v)
        check_fragmentation(g, cluster.fragmentation)
        restored = cluster.fragmentation.restore_graph()
        assert sorted(restored.edges()) == sorted(g.edges())


def test_dropped_cluster_is_freed_by_refcount():
    """No reference cycle keeps a used cluster alive until a full GC.

    A cluster owns its graphs, CSR views and condensations; a cycle through
    it (a back-reference from a per-cluster store would be one) defers all
    of that to the cyclic collector, which a low-allocation workload
    reaches late.
    """
    import gc
    import weakref

    from repro.core.engine import evaluate
    from repro.core.queries import BoundedReachQuery, ReachQuery, RegularReachQuery

    graph = erdos_renyi(30, 60, seed=1, num_labels=2)
    nodes = sorted(graph.nodes())
    s, t = nodes[0], nodes[-1]
    enabled = gc.isenabled()
    gc.disable()
    try:
        cluster = SimulatedCluster.from_graph(graph, 3, partitioner="chunk")
        for query in (
            ReachQuery(s, t),
            BoundedReachQuery(s, t, 4),
            RegularReachQuery(s, t, "L0* | L1*"),
        ):
            evaluate(cluster, query)
        ref = weakref.ref(cluster)
        del cluster
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_dropped_numpy_cluster_frees_its_views_by_refcount():
    """The numpy kernel's CSR views, and the cones they cache, die by refcount.

    A view caches its forward cones, so a cone holding its view would be a
    cycle: every view — the one a write retires while the cluster lives as
    much as those dropped with it — would wait for the cyclic collector.
    """
    pytest.importorskip("numpy")
    import gc
    import weakref

    from repro.core.csr import FragmentCSR
    from repro.core.engine import evaluate
    from repro.core.queries import BoundedReachQuery, ReachQuery, RegularReachQuery

    def live_views():
        return sum(isinstance(obj, FragmentCSR) for obj in gc.get_objects())

    graph = erdos_renyi(30, 60, seed=1, num_labels=2)
    nodes = sorted(graph.nodes())
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        start = live_views()
        cluster = SimulatedCluster.from_graph(graph, 3, partitioner="chunk")
        owned = sorted(cluster.fragmentation[0].nodes)
        u = owned[0]
        v = next(n for n in owned if not graph.has_edge(u, n))
        queries = [
            query
            for s, t in ((nodes[0], nodes[-1]), (u, nodes[-1]))
            for query in (
                ReachQuery(s, t),
                BoundedReachQuery(s, t, 4),
                RegularReachQuery(s, t, "L0* | L1*"),
            )
        ]
        for query in queries:
            evaluate(cluster, query, kernel="numpy")
        assert live_views() == start + 3
        cluster.apply_edge_mutation(u, v, add=True)  # re-lowers fragment 0
        for query in queries:
            evaluate(cluster, query, kernel="numpy")
        assert live_views() == start + 3  # the retired view is gone
        ref = weakref.ref(cluster)
        del cluster
        assert ref() is None
        assert live_views() == start
    finally:
        if enabled:
            gc.enable()
