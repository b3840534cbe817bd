"""Shortcut soundness (DESIGN.md §13).

The contracts under test — the acceptance bar of the shortcut precompute:

* **construction soundness** — every ``reach`` shortcut ``(u, v)`` connects
  a pair already related by the transitive closure, so the augmented graph
  has *exactly* the original closure (hypothesis, random digraphs);
* **answer identity** — disReachm returns bit-identical answers with
  shortcuts on and off, across all executor backends and all available
  kernels;
* **mutate-then-rebuild** — after any edge mutation the cluster's cached
  shortcut set is unreachable (version-keyed) and the next query rebuilds
  against the mutated graph, so answers track the graph exactly;
* **mode machinery** — explicit argument beats the process default beats
  ``REPRO_SHORTCUTS`` beats ``none``; every algorithm but disReachm
  refuses an explicit mode with :class:`QueryError`.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import reachable
from repro.core.engine import evaluate
from repro.core.kernels import available_kernels, set_default_kernel
from repro.core.queries import BoundedReachQuery, ReachQuery
from repro.distributed import SimulatedCluster
from repro.distributed.executors import EXECUTORS
from repro.errors import QueryError, ShortcutError
from repro.graph import (
    DiGraph,
    build_reach_shortcuts,
    build_shortcuts,
    erdos_renyi,
    path_graph,
    pick_pivots,
    resolve_shortcuts,
    set_default_shortcuts,
)
from repro.graph.shortcuts import SHORTCUTS_ENV_VAR

BACKENDS = sorted(EXECUTORS)


def _reach_set(graph, shortcut_set, source):
    seen = {source}
    frontier = [source]
    while frontier:
        nxt = []
        for node in frontier:
            children = list(graph.successors(node))
            if shortcut_set is not None:
                children += shortcut_set.edges.get(node, ())
            for child in children:
                if child not in seen:
                    seen.add(child)
                    nxt.append(child)
        frontier = nxt
    return seen


def digraphs(max_nodes=28):
    """Small random digraphs, dense enough to have interesting closures."""
    return st.builds(
        lambda n, m, seed: erdos_renyi(n, min(m, n * (n - 1)), seed=seed),
        st.integers(2, max_nodes),
        st.integers(1, 3 * max_nodes),
        st.integers(0, 10_000),
    )


class TestPickPivots:
    def test_count_is_about_sqrt_n(self):
        g = path_graph(400)
        pivots = pick_pivots(g, seed=0)
        assert len(pivots) == math.isqrt(399) + 1  # ceil(sqrt(400))

    def test_stratified_one_pivot_per_window(self):
        g = path_graph(100)
        pivots = pick_pivots(g, seed=3)
        stride = 100 // len(pivots)
        for window, pivot in enumerate(pivots):
            assert window * stride <= pivot < min((window + 1) * stride, 100)

    def test_deterministic_in_seed(self):
        g = erdos_renyi(50, 120, seed=1)
        assert pick_pivots(g, seed=7) == pick_pivots(g, seed=7)

    def test_count_clamped_and_empty(self):
        assert pick_pivots(DiGraph()) == []
        g = path_graph(5)
        assert sorted(pick_pivots(g, count=50)) == [0, 1, 2, 3, 4]


class TestConstruction:
    def test_rejects_bad_modes(self):
        g = path_graph(4)
        with pytest.raises(ShortcutError, match="none"):
            build_shortcuts(g, "none")
        for unknown in ("teleport", "hopset"):
            with pytest.raises(ShortcutError, match="unknown"):
                build_shortcuts(g, unknown)

    def test_deterministic_rebuild(self):
        g = erdos_renyi(40, 120, seed=5)
        first = build_shortcuts(g, "reach", seed=0)
        again = build_shortcuts(g, "reach", seed=0)
        assert first.edges == again.edges
        assert first.stats.pivots == again.stats.pivots
        assert first.stats.edges == sum(map(len, first.edges.values()))

    @settings(max_examples=40, deadline=None)
    @given(graph=digraphs())
    def test_shortcuts_disjoint_from_original_edges(self, graph):
        built = build_shortcuts(graph, "reach", seed=0)
        for source, targets in built.edges.items():
            # plain target nodes, in the deterministic repr order
            assert targets == tuple(sorted(set(targets), key=repr))
            for target in targets:
                assert source != target
                assert not graph.has_edge(source, target)

    @settings(max_examples=40, deadline=None)
    @given(graph=digraphs())
    def test_reach_preserves_the_transitive_closure(self, graph):
        built = build_reach_shortcuts(graph, seed=0)
        nodes = sorted(graph.nodes())
        for source in nodes[:6]:
            assert _reach_set(graph, built, source) == _reach_set(
                graph, None, source
            )


class TestModeMachinery:
    def teardown_method(self):
        set_default_shortcuts(None)

    def test_precedence_explicit_beats_default_beats_env(self, monkeypatch):
        monkeypatch.setenv(SHORTCUTS_ENV_VAR, "reach")
        assert resolve_shortcuts() == "reach"
        set_default_shortcuts("none")
        assert resolve_shortcuts() == "none"
        assert resolve_shortcuts("reach") == "reach"

    def test_defaults_to_none(self, monkeypatch):
        monkeypatch.delenv(SHORTCUTS_ENV_VAR, raising=False)
        assert resolve_shortcuts() == "none"

    def test_rejects_unknown_everywhere(self, monkeypatch):
        with pytest.raises(ShortcutError, match="known"):
            set_default_shortcuts("warp")
        with pytest.raises(ShortcutError, match="known"):
            resolve_shortcuts("warp")
        with pytest.raises(ShortcutError, match="known"):
            resolve_shortcuts("hopset")
        monkeypatch.setenv(SHORTCUTS_ENV_VAR, "warp")
        with pytest.raises(ShortcutError, match="known"):
            resolve_shortcuts()


def _signature(result):
    stats = result.stats
    return (
        result.answer,
        dict(stats.visits),
        stats.traffic_bytes,
        stats.num_messages,
        stats.supersteps,
    )


class TestAnswerIdentity:
    """Shortcuts change superstep counts only — never answers."""

    @settings(max_examples=25, deadline=None)
    @given(
        graph=digraphs(),
        seed=st.integers(0, 3),
        pair=st.tuples(st.integers(0, 27), st.integers(0, 27)),
    )
    def test_disreachm_identical_under_every_mode(self, graph, seed, pair):
        cluster = SimulatedCluster.from_graph(graph, 3, partitioner="hash", seed=seed)
        nodes = sorted(graph.nodes())
        source = nodes[pair[0] % len(nodes)]
        target = nodes[pair[1] % len(nodes)]
        query = ReachQuery(source, target)
        plain = evaluate(cluster, query, "disReachm", shortcuts="none")
        assert plain.answer == reachable(graph, source, target)
        boosted = evaluate(cluster, query, "disReachm", shortcuts="reach")
        assert boosted.answer == plain.answer
        if source != target:  # trivial queries never reach the engine
            assert boosted.details["shortcuts"]["mode"] == "reach"

    def test_distance_programs_reject_reach_mode(self):
        g = path_graph(12)
        cluster = SimulatedCluster.from_graph(g, 2, partitioner="chunk", seed=0)
        with pytest.raises(QueryError) as raised:
            evaluate(
                cluster, BoundedReachQuery(0, 11, 12), "disDistm", shortcuts="reach"
            )
        assert str(raised.value) == (
            "algorithm 'disDistm' does not take shortcuts (only disReachm does)"
        )

    def test_non_message_passing_algorithms_reject_shortcuts(self):
        g = path_graph(12)
        cluster = SimulatedCluster.from_graph(g, 2, partitioner="chunk", seed=0)
        with pytest.raises(QueryError, match="shortcuts"):
            evaluate(cluster, ReachQuery(0, 11), "disReach", shortcuts="reach")


class TestBackendsAndKernels:
    """Bit-identical modeled runs across executors x kernels."""

    @pytest.mark.parametrize("mode", ["reach"])
    def test_identical_across_backends_and_kernels(self, mode):
        g = path_graph(60)
        query = ReachQuery(0, 59)
        reference = None
        for backend in BACKENDS:
            cluster = SimulatedCluster.from_graph(
                g, 3, partitioner="chunk", seed=0, executor=backend
            )
            for kernel in available_kernels():
                # The Pregel baselines take no kernel argument; pinning
                # the process-wide default instead proves the kernel
                # seam cannot leak into the message-passing path.
                set_default_kernel(kernel)
                try:
                    result = evaluate(cluster, query, "disReachm", shortcuts=mode)
                finally:
                    set_default_kernel(None)
                signature = _signature(result)
                if reference is None:
                    reference = signature
                assert signature == reference, (backend, kernel)

    def test_superstep_reduction_on_a_path(self):
        g = path_graph(300)
        cluster = SimulatedCluster.from_graph(g, 3, partitioner="chunk", seed=0)
        query = ReachQuery(0, 299)
        plain = evaluate(cluster, query, "disReachm", shortcuts="none")
        boosted = evaluate(cluster, query, "disReachm", shortcuts="reach")
        assert boosted.answer == plain.answer
        assert plain.stats.supersteps >= 4 * boosted.stats.supersteps
        assert boosted.details["shortcuts"]["messages"] > 0


class TestMutateThenRebuild:
    def test_cluster_caches_and_invalidates_shortcut_sets(self):
        g = erdos_renyi(30, 80, seed=2)
        cluster = SimulatedCluster.from_graph(g, 3, partitioner="hash", seed=0)
        first = cluster.shortcut_set("reach")
        assert cluster.shortcut_set("reach") is first  # cached
        fid = next(iter(cluster.fragmentation)).fid
        cluster.bump_fragment_version(fid)
        rebuilt = cluster.shortcut_set("reach")
        assert rebuilt is not first
        assert rebuilt.edges == first.edges  # same graph content

    @settings(max_examples=15, deadline=None)
    @given(
        graph=digraphs(max_nodes=20),
        edits=st.lists(
            st.tuples(st.booleans(), st.integers(0, 19), st.integers(0, 19)),
            min_size=1,
            max_size=6,
        ),
        pair=st.tuples(st.integers(0, 19), st.integers(0, 19)),
    )
    def test_answers_track_mutations(self, graph, edits, pair):
        cluster = SimulatedCluster.from_graph(graph, 3, partitioner="hash", seed=0)
        nodes = sorted(graph.nodes())
        shadow = graph.copy()
        for add, a, b in edits:
            u, v = nodes[a % len(nodes)], nodes[b % len(nodes)]
            if u == v:
                continue
            if add and not shadow.has_edge(u, v):
                cluster.apply_edge_mutation(u, v, True)
                shadow.add_edge(u, v)
            elif not add and shadow.has_edge(u, v):
                cluster.apply_edge_mutation(u, v, False)
                shadow.remove_edge(u, v)
        source = nodes[pair[0] % len(nodes)]
        target = nodes[pair[1] % len(nodes)]
        truth = reachable(shadow, source, target)
        query = ReachQuery(source, target)
        for mode in ("none", "reach"):
            assert evaluate(cluster, query, "disReachm", shortcuts=mode).answer == truth
