"""Property tests: disReach's id-space partial answer under a changing graph.

A fragment's reach partial is the paper's |Fi.I| × |Fi.O| bit matrix over
the fragmentation's interned ``Vf`` (:class:`~repro.core.reachability.
ReachRows`).  The ids are minted by the builder, extended by cross-edge
writes (never reused), and rebuilt by repartition; every bit of every row
sits at a column's id, ``true`` at bit 0.  After each step of a random
write sequence — intra and cross adds and removes, an add that mints a new
``Vf`` id, a remove that drops a node from ``Vf``, one repartition — these
properties hold on every fragment and query:

* the partial decodes to exactly the pure-python reference's equations
  (``tests/kernel_reference.py``), at the table's ids;
* its wire size equals the dict-form
  :func:`~repro.distributed.messages.equation_set_size`;
* the bitset closure's answer equals the Kleene fixpoint of the decoded
  system and the centralized answer.

Each property runs on the sequential executor, on the socket executor (the
partial also crosses the wire's restricted decoder, and disReach runs on
brokers), and on a cluster whose sites hold several fragments, where a
site ships ``merge_partials`` of its fragments.
"""

from __future__ import annotations

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.core.bes import TRUE, BooleanEquationSystem  # noqa: E402
from repro.core.centralized import reachable  # noqa: E402
from repro.core.queries import ReachQuery  # noqa: E402
from repro.core.reachability import (  # noqa: E402
    ReachPlan,
    ReachRows,
    assemble_reach,
    dis_reach,
    local_eval_reach,
)
from repro.distributed import SimulatedCluster  # noqa: E402
from repro.distributed.messages import payload_size  # noqa: E402
from repro.graph import erdos_renyi  # noqa: E402
from repro.net.framing import HEADER_BYTES, decode_payload, encode_frame  # noqa: E402
from repro.partition import build_fragmentation, random_partition  # noqa: E402
from repro.partition.fragment import TRUE_ID  # noqa: E402

import kernel_reference  # noqa: E402

BACKENDS = ("sequential", "socket", "shared")


def _check_ids(fragmentation) -> None:
    """The table: ids from 1, one per node, every fragment's slice of it."""
    table = fragmentation.boundary_ids
    assert TRUE_ID not in table.values()
    assert len(set(table.values())) == len(table)
    for fragment in fragmentation:
        assert set(fragment.boundary_ids) == fragment.in_nodes | fragment.virtual_nodes
        for node, node_id in fragment.boundary_ids.items():
            assert table[node] == node_id


def _check_partial(fragment, rows: ReachRows, query: ReachQuery) -> None:
    reference = kernel_reference.local_eval_reach(fragment, query)
    assert kernel_reference.reach_view(rows) == kernel_reference.reach_view(reference)
    assert payload_size(rows) == kernel_reference.boolean_size(reference)
    ids = fragment.boundary_ids
    assert rows.row_ids.tolist() == [ids.get(var, -1) for var in rows.rows]
    assert rows.col_ids.tolist() == [
        TRUE_ID if column is TRUE else ids[column] for column in rows.columns
    ]
    # Every set bit is a column's id: nothing else is ever written.
    held = np.unpackbits(rows.bits.view(np.uint8), axis=1, bitorder="little")
    allowed = np.zeros(held.shape[1], dtype=bool)
    allowed[rows.col_ids] = True
    assert not (held.astype(bool) & ~allowed).any()


def _check_state(cluster: SimulatedCluster, backend: str, queries) -> None:
    fragmentation = cluster.fragmentation
    _check_ids(fragmentation)
    graph = fragmentation.restore_graph()
    for s, t in queries:
        query = ReachQuery(s, t)
        partials = {}
        for fragment in fragmentation:
            rows = local_eval_reach(fragment, query)
            if backend == "socket":
                # What a broker's reply carries, through the wire's decoder.
                rows = decode_payload(encode_frame(rows)[HEADER_BYTES:])
            _check_partial(fragment, rows, query)
            partials[fragment.fid] = rows
        if backend == "shared":
            plan = ReachPlan(query)
            for site in cluster.sites:
                merged = plan.merge_partials([partials[f.fid] for f in site.fragments])
                assert payload_size(plan.wrap_partial(merged)) == (
                    kernel_reference.boolean_size(merged)
                )
                assert dict(merged) == {
                    var: eqs
                    for f in site.fragments
                    for var, eqs in dict(partials[f.fid]).items()
                }
        bes = BooleanEquationSystem()
        for rows in partials.values():
            bes.update(dict(rows))
        truth = reachable(graph, s, t)
        assert assemble_reach(partials, query) == bes.solve_fixpoint().get(s, False) == truth
        result = dis_reach(cluster, query)
        assert result.answer == truth
        assert result.stats.visits_per_site() == {site.site_id: 1 for site in cluster.sites}


def _owner(cluster, node) -> int:
    return cluster.fragmentation.placement[node]


def _step_candidates(cluster, graph):
    """``{kind: [(u, v), ...]}`` of the writes the current state admits."""
    nodes = sorted(graph.nodes(), key=repr)
    table = cluster.fragmentation.boundary_ids
    edges = sorted(graph.edges(), key=repr)
    cross = [(u, v) for u, v in edges if _owner(cluster, u) != _owner(cluster, v)]
    into = {}
    for _u, v in cross:
        into[v] = into.get(v, 0) + 1
    absent = [
        (u, v) for u in nodes for v in nodes if u != v and not graph.has_edge(u, v)
    ]
    return {
        "intra_add": [(u, v) for u, v in absent if _owner(cluster, u) == _owner(cluster, v)],
        "intra_remove": [
            (u, v) for u, v in edges if _owner(cluster, u) == _owner(cluster, v)
        ],
        "cross_add": [(u, v) for u, v in absent if _owner(cluster, u) != _owner(cluster, v)],
        "cross_add_mint": [
            (u, v)
            for u, v in absent
            if _owner(cluster, u) != _owner(cluster, v) and v not in table
        ],
        "cross_remove": [(u, v) for u, v in cross if into[v] > 1],
        "cross_remove_drop": [(u, v) for u, v in cross if into[v] == 1],
    }


@st.composite
def cases(draw):
    num_nodes = draw(st.integers(min_value=24, max_value=60))
    num_edges = draw(st.integers(min_value=num_nodes, max_value=3 * num_nodes))
    k = draw(st.integers(min_value=3, max_value=5))
    seed = draw(st.integers(0, 10_000))
    return num_nodes, num_edges, k, seed


def _cluster(backend: str, num_nodes: int, num_edges: int, k: int, seed: int):
    graph = erdos_renyi(num_nodes, num_edges, seed=seed, num_labels=3)
    fragmentation = build_fragmentation(graph, random_partition(graph, k, seed=seed), k)
    if backend == "shared":
        return SimulatedCluster(
            fragmentation, fragment_assignment={fid: fid % 2 for fid in range(k)}
        )
    return SimulatedCluster(fragmentation, executor=backend)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=10, deadline=None)
@given(case=cases(), data=st.data())
def test_reach_partials_track_the_id_space(backend, case, data):
    num_nodes, num_edges, k, seed = case
    cluster = _cluster(backend, num_nodes, num_edges, k, seed)
    nodes = sorted(cluster.fragmentation.placement, key=repr)
    pairs = st.lists(st.sampled_from(nodes), min_size=2, max_size=2, unique=True).map(tuple)
    queries = data.draw(st.lists(pairs, min_size=2, max_size=3), label="queries")
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
            before = cluster.fragmentation
            cluster.repartition(assignment)
            assert cluster.fragmentation is not before
            _check_state(cluster, backend, queries)
        graph = cluster.fragmentation.restore_graph()
        candidates = _step_candidates(cluster, graph)[kind]
        if not candidates:
            continue
        u, v = data.draw(st.sampled_from(candidates), label=kind)
        event(kind)
        table = cluster.fragmentation.boundary_ids
        minted = dict(table)
        cluster.apply_edge_mutation(u, v, add=kind.endswith(("add", "mint")))
        if kind == "cross_add_mint":
            assert table[v] == max(minted.values(), default=TRUE_ID) + 1
        if kind == "cross_remove_drop":
            assert v not in set().union(*(f.boundary_ids for f in cluster.fragmentation))
            assert table[v] == minted[v]  # the table keeps it, never reissued
        # Append-only: no id changed hands.
        assert all(table[node] == node_id for node, node_id in minted.items())
        _check_state(cluster, backend, queries)


@pytest.mark.parametrize("backend", BACKENDS)
def test_multi_word_rows_of_mixed_widths(backend):
    """|Vf| past 64: rows span several words, seed bits sit at ids >= 64, and
    a fragment with no virtual node ships one-word rows beside them."""
    import random

    graph = erdos_renyi(200, 500, seed=7, num_labels=3)
    for i in range(3):
        graph.add_node(f"iso{i}", label="L0")
    assignment = random_partition(graph, 3, seed=7)
    assignment.update({f"iso{i}": 3 for i in range(3)})
    fragmentation = build_fragmentation(graph, assignment, 4)
    if backend == "shared":
        cluster = SimulatedCluster(fragmentation, fragment_assignment={0: 0, 1: 1, 2: 0, 3: 1})
    else:
        cluster = SimulatedCluster(fragmentation, executor=backend)
    assert len(fragmentation.boundary_ids) > 128
    rng = random.Random(7)
    nodes = sorted(graph.nodes(), key=repr)
    queries = [tuple(rng.sample(nodes, 2)) for _ in range(3)] + [("iso0", 0)]
    widths = {
        local_eval_reach(fragment, ReachQuery(*queries[0])).words
        for fragment in cluster.fragmentation
    }
    assert 1 in widths and max(widths) >= 3
    _check_state(cluster, backend, queries)
    for kind in ("cross_add_mint", "cross_remove_drop", "intra_add", "cross_add", "cross_remove"):
        candidates = _step_candidates(cluster, cluster.fragmentation.restore_graph())[kind]
        u, v = rng.choice(candidates)
        cluster.apply_edge_mutation(u, v, add="add" in kind or "mint" in kind)
        _check_state(cluster, backend, queries)
