"""The static oracle library: registry and identity (DESIGN.md §12).

No evaluation path uses an oracle; these contracts hold for the library
itself until it is deleted:

* **Registry** — oracles are named, picklable entries; unknown names die
  as :class:`QueryError` listing what exists, and degenerate graphs get a
  trivial oracle instead of a crash.  No algorithm takes ``oracle=``.
* **Identity** — every registered oracle answers exactly like
  :class:`BFSOracle` on arbitrary graphs, and an oracle built fresh after
  cluster writes agrees with ``localEval``'s equations on every fragment.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st
from reach_reference import oracle_rows

from repro.core.csr import fragment_csr
from repro.core.engine import REGISTRY, evaluate
from repro.core.queries import BoundedReachQuery, ReachQuery, RegularReachQuery
from repro.core.reachability import local_eval_reach
from repro.distributed.cluster import SimulatedCluster
from repro.errors import QueryError
from repro.graph import DiGraph
from repro.index import BFSOracle, ORACLE_NAMES, ORACLES, TrivialOracle, build_oracle


def _graph(n, edges):
    g = DiGraph()
    for i in range(n):
        g.add_node(i, label="L")
    for u, v in edges:
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v)
    return g


def _all_pairs(oracle, nodes):
    return {(s, t) for s in nodes for t in nodes if oracle.reaches(s, t)}


@st.composite
def graphs(draw, max_nodes=12):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=3 * n,
        )
    )
    return _graph(n, edges)


@st.composite
def mutation_sequences(draw, max_nodes=10, max_steps=10):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=2 * n,
        )
    )
    steps = draw(
        st.lists(
            st.tuples(
                st.booleans(), st.integers(0, n - 1), st.integers(0, n - 1)
            ),
            max_size=max_steps,
        )
    )
    return n, edges, steps


class TestRegistry:
    def test_registered_names_are_stable(self):
        assert ORACLE_NAMES == tuple(ORACLES) == (
            "bfs", "transitive-closure", "twohop", "grail"
        )

    def test_unknown_name_lists_registered(self):
        with pytest.raises(
            QueryError,
            match="unknown oracle 'nope'; known: bfs, transitive-closure, twohop, grail",
        ):
            build_oracle("nope", _graph(2, [(0, 1)]))

    def test_registry_entries_are_picklable(self):
        for name, cls in ORACLES.items():
            assert pickle.loads(pickle.dumps(cls)) is cls, name

    def test_degenerate_graphs_get_trivial_oracle(self):
        empty = DiGraph()
        single = DiGraph()
        single.add_node("a", label="L")
        for graph in (empty, single):
            for name in ORACLE_NAMES:
                oracle = build_oracle(name, graph)
                assert isinstance(oracle, TrivialOracle), (name, graph)
        assert build_oracle("grail", single).reaches("a", "a")
        assert not build_oracle("grail", single).reaches("a", "b")

    def test_building_none_is_an_error(self):
        with pytest.raises(QueryError, match="unknown oracle 'none'; known: bfs"):
            build_oracle("none", _graph(2, [(0, 1)]))

    def test_evaluate_rejects_oracle_for_non_disreach(self):
        cluster = SimulatedCluster.from_graph(
            _graph(6, [(0, 1), (1, 2), (3, 4)]), 2, partitioner="chunk"
        )
        queries = {
            ReachQuery: ReachQuery(0, 2),
            BoundedReachQuery: BoundedReachQuery(0, 2, 4),
            RegularReachQuery: RegularReachQuery(0, 2, "L*"),
        }
        for algorithm, (query_type, _fn) in REGISTRY.items():
            with pytest.raises(TypeError, match="oracle"):
                evaluate(cluster, queries[query_type], algorithm, oracle="grail")


class TestStaticIdentity:
    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_every_oracle_agrees_with_bfs(self, graph):
        nodes = sorted(graph.nodes())
        reference = _all_pairs(BFSOracle(graph), nodes)
        for name in ORACLE_NAMES:
            assert _all_pairs(build_oracle(name, graph), nodes) == reference, name


def _figure_cluster(k=2, n=10):
    edges = [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0), (2, 7), (8, 3)]
    return SimulatedCluster.from_graph(_graph(n, edges), k, partitioner="chunk")


class TestStore:
    def test_fragment_pickle_drops_oracle_slot(self):
        """The one carried cache slot left, ``_csr_cache``, stays home."""
        pytest.importorskip("numpy")
        cluster = _figure_cluster()
        fragment = cluster.site(0).fragment
        view = fragment_csr(fragment)
        assert fragment.__dict__["_csr_cache"] is view
        clone = pickle.loads(pickle.dumps(fragment))
        assert "_csr_cache" not in clone.__dict__
        assert clone.nodes == fragment.nodes
        # A worker process simply rebuilds its own copy on first use.
        assert fragment_csr(clone) is not view
        assert local_eval_reach(clone, ReachQuery(0, 9)) == local_eval_reach(
            fragment, ReachQuery(0, 9)
        )


class TestEndToEnd:
    @given(mutation_sequences(max_nodes=12, max_steps=8))
    @settings(max_examples=15, deadline=None)
    def test_dis_reach_identity_under_mutations(self, case):
        n, edges, steps = case
        cluster = SimulatedCluster.from_graph(
            _graph(n, edges), 2, partitioner="chunk"
        )
        queries = [ReachQuery(0, n - 1), ReachQuery(n - 1, 0), ReachQuery(0, 1)]
        for add, u, v in steps + [(True, 0, n - 1)]:
            graph = cluster.fragmentation.restore_graph()
            if add and u != v and not graph.has_edge(u, v):
                cluster.apply_edge_mutation(u, v, add=True)
            elif not add and graph.has_edge(u, v):
                cluster.apply_edge_mutation(u, v, add=False)
            for fragment in cluster.fragmentation:
                for name in ORACLES:
                    oracle = build_oracle(name, fragment.local_graph)
                    for query in queries:
                        rows = local_eval_reach(fragment, query)
                        assert oracle_rows(fragment, query, oracle) == rows, name
