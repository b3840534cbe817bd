"""Property tests: disDist's id-space partial answer under a changing graph.

A fragment's bounded partial is the paper's |Fi.I| × |Fi.O| hop matrix over
the fragmentation's interned ``Vf`` (:class:`~repro.core.bounded.HopRows`):
row ``i``, column ``j`` holds the local hop distance, or ``bound + 1`` for
"no term", in the narrowest unsigned dtype that holds ``bound + 1``; every
row and column sits at its node's id, ``TARGET`` at ``TRUE_ID``.  After
each step of a random write sequence — intra and cross adds and removes,
an add that mints a new ``Vf`` id, a remove that drops a node from ``Vf``,
one repartition — these properties hold on every fragment and query:

* the partial decodes to exactly the pure-python reference's equations
  (``tests/kernel_reference.py``), at the table's ids;
* its wire size equals the dict-form size
  (:func:`kernel_reference.bounded_size`);
* the id-space Dijkstra's distance equals the Bellman–Ford fixpoint of the
  decoded system and the centralized BFS distance within the bound.

Each property runs on the sequential executor, on the socket executor (the
partial also crosses the wire's restricted decoder, and disDist runs on
brokers), and on a cluster whose sites hold several fragments, where a
site ships ``merge_partials`` of its fragments.  A 300-node path checks
distances and bounds past what one byte holds.
"""

from __future__ import annotations

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.core.bounded import (  # noqa: E402
    BoundedReachPlan,
    HopRows,
    assemble_bounded,
    dis_dist,
    local_eval_bounded,
)
from repro.core.minplus import TARGET, MinPlusSystem  # noqa: E402
from repro.core.queries import BoundedReachQuery  # noqa: E402
from repro.distributed import SimulatedCluster  # noqa: E402
from repro.distributed.messages import payload_size  # noqa: E402
from repro.graph import DiGraph  # noqa: E402
from repro.graph.traversal import bfs_distances  # noqa: E402
from repro.net.framing import HEADER_BYTES, decode_payload, encode_frame  # noqa: E402
from repro.partition import build_fragmentation  # noqa: E402
from repro.partition.fragment import TRUE_ID  # noqa: E402

import kernel_reference  # noqa: E402
from test_reach_ids import BACKENDS, _check_ids, _cluster, _step_candidates, cases  # noqa: E402


def _check_partial(fragment, rows: HopRows, query: BoundedReachQuery) -> None:
    reference = kernel_reference.local_eval_bounded(fragment, query)
    assert kernel_reference.bounded_view(rows) == kernel_reference.bounded_view(reference)
    assert payload_size(rows) == kernel_reference.bounded_size(reference)
    ids = fragment.boundary_ids
    assert rows.row_ids.tolist() == [ids.get(var, -1) for var in rows.rows]
    assert rows.col_ids.tolist() == [
        TRUE_ID if column is TARGET else ids[column] for column in rows.columns
    ]
    # Hops within the bound, or exactly the "no term" mark, in a dtype that
    # holds the mark.
    assert rows.hops.dtype == np.min_scalar_type(query.bound + 1)
    assert ((rows.hops <= query.bound) | (rows.hops == query.bound + 1)).all()


def _check_state(cluster: SimulatedCluster, backend: str, queries) -> None:
    fragmentation = cluster.fragmentation
    _check_ids(fragmentation)
    graph = fragmentation.restore_graph()
    for s, t, bound in queries:
        query = BoundedReachQuery(s, t, bound)
        partials = {}
        for fragment in fragmentation:
            rows = local_eval_bounded(fragment, query)
            if backend == "socket":
                # What a broker's reply carries, through the wire's decoder.
                rows = decode_payload(encode_frame(rows)[HEADER_BYTES:])
            _check_partial(fragment, rows, query)
            partials[fragment.fid] = rows
        if backend == "shared":
            plan = BoundedReachPlan(query)
            for site in cluster.sites:
                merged = plan.merge_partials([partials[f.fid] for f in site.fragments])
                size = payload_size(plan.wrap_partial(merged))
                assert size == kernel_reference.bounded_size(merged)
                # Columns are shared by id: one per distinct id.
                assert len(set(merged.col_ids.tolist())) == len(merged.columns)
                assert {var: set(terms) for var, terms in merged.items()} == {
                    var: set(terms)
                    for f in site.fragments
                    for var, terms in partials[f.fid].items()
                }
        system = MinPlusSystem()
        for rows in partials.values():
            system.update(dict(rows))
        oracle = system.solve_bellman_ford(s)
        truth = bfs_distances(graph, s, cutoff=bound).get(t)
        expected = None if truth is None else float(truth)
        assert assemble_bounded(partials, query) == expected
        assert (oracle if oracle is not None and oracle <= bound else None) == expected
        result = dis_dist(cluster, query)
        assert (result.answer, result.details["distance"]) == (truth is not None, expected)
        assert result.stats.visits_per_site() == {site.site_id: 1 for site in cluster.sites}


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=10, deadline=None)
@given(case=cases(), data=st.data())
def test_bounded_partials_track_the_id_space(backend, case, data):
    num_nodes, num_edges, k, seed = case
    cluster = _cluster(backend, num_nodes, num_edges, k, seed)
    nodes = sorted(cluster.fragmentation.placement, key=repr)
    query = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes), st.integers(0, 6))
    queries = data.draw(
        st.lists(query.filter(lambda q: q[0] != q[1]), min_size=2, max_size=3), label="queries"
    )
    _check_state(cluster, backend, queries)
    kinds = ["intra_add", "intra_remove", "cross_add", "cross_add_mint",
             "cross_remove", "cross_remove_drop"]
    steps = data.draw(st.lists(st.sampled_from(kinds), min_size=6, max_size=9), label="steps")
    repartition_at = data.draw(st.integers(0, len(steps) - 1), label="repartition at")
    for index, kind in enumerate(steps):
        if index == repartition_at:
            assignment = {
                node: data.draw(st.integers(0, k - 1), label="new fragment") for node in nodes
            }
            cluster.repartition(assignment)
            _check_state(cluster, backend, queries)
        graph = cluster.fragmentation.restore_graph()
        candidates = _step_candidates(cluster, graph)[kind]
        if not candidates:
            continue
        u, v = data.draw(st.sampled_from(candidates), label=kind)
        event(kind)
        cluster.apply_edge_mutation(u, v, add=kind.endswith(("add", "mint")))
        _check_state(cluster, backend, queries)


def _long_path(backend: str) -> SimulatedCluster:
    """A 300-node path in 4 fragments, the first holding 280 hops of it."""
    graph = DiGraph()
    path = [f"p{i:03d}" for i in range(300)]
    for node in path:
        graph.add_node(node, label="L0")
    for u, v in zip(path, path[1:]):
        graph.add_edge(u, v)
    cuts = (0, 280, 290, 295)
    assignment = {node: sum(i >= cut for cut in cuts) - 1 for i, node in enumerate(path)}
    fragmentation = build_fragmentation(graph, assignment, 4)
    if backend == "shared":
        return SimulatedCluster(fragmentation, fragment_assignment={0: 0, 1: 1, 2: 0, 3: 1})
    return SimulatedCluster(fragmentation, executor=backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_hops_past_a_byte_on_a_300_node_path(backend):
    """dist(p000, p299) = 299, with a 280-hop local leg: bounds around it
    need a ``uint16`` matrix, which a ``uint8`` one would wrap."""
    cluster = _long_path(backend)
    queries = [("p000", "p299", bound) for bound in (298, 299, 300)]
    queries += [("p010", "p289", 279), ("p010", "p289", 278)]
    _check_state(cluster, backend, queries)
    fragment = cluster.fragmentation[0]
    rows = local_eval_bounded(fragment, BoundedReachQuery("p000", "p299", 299))
    assert rows.hops.dtype == np.uint16
    assert rows.hops[rows.position("p000")].tolist() == [280]  # to the virtual p280
    answers = [dis_dist(cluster, q).details["distance"] for q in queries]
    assert answers == [None, 299.0, 299.0, 279.0, None]
