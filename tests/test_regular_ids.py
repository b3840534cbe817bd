"""Property tests: disRPQ's id-space partial answer under a changing graph.

A fragment's regular partial is Section 5's (node, state) vector set as one
bit matrix over interned *pair ids* (:class:`~repro.core.regular.
RegularRows`): pair ``(w, u)`` has id ``vf_id(w) · |Vq| + col(u)``, ``(t,
ut)`` is ``TRUE_ID`` 0, a local source outside ``Vf`` counts down from
``-1`` (``(s, us)`` is ``-1``) and a local target outside it from ``-1 -
|Vq|``; each row's bits sit in the kernel's own seed-pair order.  After
each step of a random write sequence — intra and cross adds and removes,
an add that mints a new ``Vf`` id, a remove that drops a node from ``Vf``,
one repartition — these properties hold on every fragment and query:

* the partial decodes to exactly the pure-python reference's equations,
  rows and columns in order (``tests/kernel_reference.py``), every row and
  column at its pair id;
* its wire size equals the dict-form size
  (:func:`kernel_reference.regular_size`);
* the id-space closure's answer equals the Kleene fixpoint of the decoded
  system and the centralized product BFS.

Each property runs on the sequential executor, on the socket executor (the
partial also crosses the wire's restricted decoder, and disRPQ runs on
brokers), and on a cluster whose sites hold several fragments, where a
site ships ``merge_partials`` of its fragments.
"""

from __future__ import annotations

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.automata import US  # noqa: E402
from repro.core.bes import BooleanEquationSystem  # noqa: E402
from repro.core.centralized import regular_reachable  # noqa: E402
from repro.core.queries import RegularReachQuery  # noqa: E402
from repro.core.regular import (  # noqa: E402
    RegularReachPlan,
    RegularRows,
    assemble_regular,
    dis_rpq,
    local_eval_regular,
)
from repro.distributed import SimulatedCluster  # noqa: E402
from repro.distributed.messages import payload_size  # noqa: E402
from repro.graph import erdos_renyi  # noqa: E402
from repro.net.framing import HEADER_BYTES, decode_payload, encode_frame  # noqa: E402
from repro.partition import build_fragmentation, random_partition  # noqa: E402

import kernel_reference  # noqa: E402
from test_reach_ids import BACKENDS, _check_ids, _cluster, _step_candidates, cases  # noqa: E402

#: Over the graphs' labels L0-L2: wildcards, nullable ones, Kleene stars.
REGEXES = (".*", "L0 (L1 | L2)*", "(L0 | .)* L1", "L1? L2*", "L0 . L1*", "(L2 L0)*")


def _check_partial(fragment, rows: RegularRows, automaton) -> None:
    reference = kernel_reference.local_eval_regular(fragment, automaton)
    assert kernel_reference.regular_view(rows) == kernel_reference.regular_view(reference)
    assert payload_size(rows) == kernel_reference.regular_size(reference)
    for ids, pairs in ((rows.row_ids, rows.rows), (rows.col_ids, rows.columns)):
        assert ids.dtype == np.int64
        assert ids.tolist() == kernel_reference.regular_ids(fragment, automaton, pairs)
    # One bit per column, in column order, as wide as the columns need.
    width = len(rows.col_ids)
    assert rows.bits.dtype == np.uint64 and rows.bits.shape[1] == max(1, (width + 63) >> 6)
    held = np.unpackbits(rows.bits.view(np.uint8), axis=1, bitorder="little")
    assert not held[:, width:].any()


def _check_state(cluster: SimulatedCluster, backend: str, queries) -> None:
    fragmentation = cluster.fragmentation
    _check_ids(fragmentation)
    graph = fragmentation.restore_graph()
    for s, t, regex in queries:
        query = RegularReachQuery(s, t, regex)
        automaton = query.automaton()
        partials = {}
        for fragment in fragmentation:
            rows = local_eval_regular(fragment, automaton)
            if backend == "socket":
                # What a broker's reply carries, through the wire's decoder.
                rows = decode_payload(encode_frame(rows)[HEADER_BYTES:])
            _check_partial(fragment, rows, automaton)
            partials[fragment.fid] = rows
        if backend == "shared":
            plan = RegularReachPlan(query)
            for site in cluster.sites:
                merged = plan.merge_partials([partials[f.fid] for f in site.fragments])
                assert payload_size(plan.wrap_partial(merged)) == (
                    kernel_reference.regular_size(merged)
                )
                # Columns are shared by id: one per distinct id.
                assert len(set(merged.col_ids.tolist())) == len(merged.columns)
                assert merged.rows == tuple(sorted(merged.rows, key=RegularRows._key))
                assert dict(merged) == {
                    var: eqs for f in site.fragments for var, eqs in partials[f.fid].items()
                }
        bes = BooleanEquationSystem()
        for rows in partials.values():
            bes.update(dict(rows))
        truth = regular_reachable(graph, s, t, regex)
        trivial = s == t and automaton.analysis.nullable
        if not trivial:
            start = (s, US)
            assert assemble_regular(partials, automaton) == truth
            assert bes.solve_fixpoint().get(start, False) == truth
        result = dis_rpq(cluster, query)
        assert result.answer == truth
        visits = 0 if trivial else 1
        assert result.stats.visits_per_site() == {site.site_id: visits for site in cluster.sites}


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=10, deadline=None)
@given(case=cases(), data=st.data())
def test_regular_partials_track_the_id_space(backend, case, data):
    num_nodes, num_edges, k, seed = case
    cluster = _cluster(backend, num_nodes, num_edges, k, seed)
    nodes = sorted(cluster.fragmentation.placement, key=repr)
    query = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes), st.sampled_from(REGEXES))
    queries = data.draw(st.lists(query, min_size=2, max_size=3), label="queries")
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


@pytest.mark.parametrize("backend", BACKENDS)
def test_local_endpoints_outside_vf_and_multi_word_rows(backend):
    """Both endpoints local to one fragment and outside ``Vf`` (blocks 0 and
    1 of the negative ids, and ``s = t``), beside fragments whose seed pairs
    pass 64, so rows span several words."""
    import random

    graph = erdos_renyi(200, 500, seed=7, num_labels=3)
    for i in range(3):
        graph.add_node(f"iso{i}", label="L0")
    graph.add_edge("iso0", "iso1")
    graph.add_edge("iso1", "iso2")
    graph.add_edge("iso2", "iso0")
    assignment = random_partition(graph, 3, seed=7)
    assignment.update({f"iso{i}": 3 for i in range(3)})
    fragmentation = build_fragmentation(graph, assignment, 4)
    if backend == "shared":
        cluster = SimulatedCluster(fragmentation, fragment_assignment={0: 0, 1: 1, 2: 0, 3: 1})
    else:
        cluster = SimulatedCluster(fragmentation, executor=backend)
    wide = "(. | L0 | L1)* L2"
    rng = random.Random(7)
    nodes = sorted(graph.nodes(), key=repr)
    queries = [(*rng.sample(nodes, 2), wide) for _ in range(2)]
    queries += [("iso0", "iso2", "L0 L0*"), ("iso0", "iso0", "L0 L0"), ("iso1", "iso1", ".*")]
    automaton = RegularReachQuery(*queries[0]).automaton()
    widths = {local_eval_regular(f, automaton).bits.shape[1] for f in cluster.fragmentation}
    assert 1 in widths and max(widths) >= 2
    # iso0 -> iso2 inside fragment 3: (s, us) is -1, t's pairs are below -|Vq|.
    local_query = RegularReachQuery(*queries[2]).automaton()
    local = local_eval_regular(cluster.fragmentation[3], local_query)
    assert local.row_ids[local.rows.index(("iso0", US))] == -1
    assert min(local.col_ids.tolist()) < -local_query.num_states
    _check_state(cluster, backend, queries)
    for kind in ("cross_add_mint", "cross_remove_drop", "intra_add", "cross_add", "cross_remove"):
        candidates = _step_candidates(cluster, cluster.fragmentation.restore_graph())[kind]
        u, v = rng.choice(candidates)
        cluster.apply_edge_mutation(u, v, add="add" in kind or "mint" in kind)
        _check_state(cluster, backend, queries)
