"""Edge writes repair the source fragment's CSR view by the delta (DESIGN.md §9).

``SimulatedCluster._write`` hands the source side of every edge write to
:func:`~repro.core.csr.repair_view`: its carried :class:`FragmentCSR`
becomes a *new* view stamped with the graph's post-write stamp, with the
edge inserted or deleted in ``indices``, a virtual node that appears or
disappears inserted or deleted as one row, and the SCC condensation and
in-node cone carried whenever the write provably keeps them.  These
properties drive random interleavings of intra and cross adds and removes
and check, after every write, that:

* the repaired view equals a fresh lowering array for array, and a
  virtual node whose label is new to the fragment (or leaves it) falls
  back to a fresh lowering instead;
* its condensation has the fresh one's SCC partition up to relabelling,
  the same DAG edges and valid levels, and Tarjan reruns exactly for a
  cycle-closing add and a remove inside one component;
* the carried cone is forward-closed and covers the in-nodes' closure;
* reach, bounded and regular rows equal the pure-python reference
  (``tests/kernel_reference.py``) buffer for buffer;
* the old view's arrays are untouched, and a later direct
  ``local_graph`` edit still forces a fresh lowering.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.core.bounded import local_eval_bounded  # noqa: E402
from repro.core.csr import (  # noqa: E402
    CSRCondensation,
    FragmentCSR,
    cached_csr,
    forward_closure,
    fragment_csr,
)
from repro.core.queries import BoundedReachQuery, ReachQuery, RegularReachQuery  # noqa: E402
from repro.core.reachability import local_eval_reach  # noqa: E402
from repro.core.regular import local_eval_regular  # noqa: E402
from repro.distributed import SimulatedCluster  # noqa: E402
from repro.graph import erdos_renyi  # noqa: E402
from repro.graph.traversal import descendants  # noqa: E402
from repro.partition import build_fragmentation, random_partition  # noqa: E402

import kernel_reference  # noqa: E402

#: Fields a repaired view must share with a fresh lowering.
VIEW_ARRAYS = ("indptr", "indices", "label_codes", "node_bytes")
#: A label no generated node carries (``erdos_renyi`` labels are L0, L1, ...).
LONELY = "lonely"
REGEXES = ("L0* L1", "(L0 | L2)* .", ". .* L1", "lonely | L1*")


def _warm(fragment):
    """Build every carried piece of ``fragment``'s view (the repair's input)."""
    csr = fragment_csr(fragment)
    csr.condensation()
    csr.node_bytes  # noqa: B018 - built on first use
    csr.cone(csr.boundary(fragment).in_rows)
    return csr


def _snapshot(csr):
    cond = csr._cond
    arrays = [getattr(csr, name).copy() for name in VIEW_ARRAYS]
    arrays += [cond.comp.copy(), cond.cindptr.copy(), cond.cindices.copy()]
    if csr._cone is not None and csr._cone.mask is not None:
        arrays.append(csr._cone.mask.copy())
    return csr.stamp, csr.order, dict(csr.index), arrays


def _partition(csr, cond):
    """SCCs as node sets, and DAG edges between them: relabelling-free."""
    members = {}
    for row, comp in enumerate(cond.comp.tolist()):
        members.setdefault(comp, set()).add(csr.order[row])
    blocks = {comp: frozenset(nodes) for comp, nodes in members.items()}
    edges = {
        (blocks[tail], blocks[int(head)])
        for tail in range(cond.num_comps)
        for head in cond.cindices[cond.cindptr[tail] : cond.cindptr[tail + 1]]
    }
    return set(blocks.values()), edges


def _assert_levels_valid(cond):
    levels = np.repeat(np.arange(cond.level_ptr.size - 1), np.diff(cond.level_ptr))
    assert levels.size == cond.num_comps
    degrees = np.diff(cond.cindptr)
    for comp in range(cond.num_comps):
        heads = cond.cindices[cond.cindptr[comp] : cond.cindptr[comp + 1]]
        assert (levels[heads] < levels[comp]).all()  # every successor lower
        assert heads.tolist() == sorted(set(heads.tolist()))
        assert (degrees[comp] > 0) == (levels[comp] > 0)  # no empty segment
    for c0, c1, segment, starts in cond.schedule:
        assert (np.diff(np.append(starts, segment.size)) > 0).all()


def _assert_matches_fresh(fragment, csr):
    fresh = FragmentCSR(fragment.local_graph)
    assert csr.stamp == fragment.local_graph.mutation_stamp
    assert csr.order == fresh.order and csr.index == fresh.index
    assert csr.labels == fresh.labels
    for name in VIEW_ARRAYS:
        got, want = getattr(csr, name), getattr(fresh, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    cond = csr.condensation()
    assert _partition(csr, cond) == _partition(fresh, CSRCondensation(fresh))
    _assert_levels_valid(cond)
    cone = csr._cone
    if cone is not None and cone.mask is not None:
        in_rows = csr.boundary(fragment).in_rows
        assert not (forward_closure(fresh, in_rows) & ~cone.mask).any()
        assert cone.mask.take(csr.indices[cone.mask.repeat(np.diff(csr.indptr))]).all()


def _assert_rows_match_reference(fragment, queries):
    for query in queries:
        if isinstance(query, RegularReachQuery):
            got = local_eval_regular(fragment, query.automaton(), kernel="numpy")
            want = kernel_reference.local_eval_regular(fragment, query.automaton())
            assert kernel_reference.regular_view(got) == kernel_reference.regular_view(want)
        elif isinstance(query, BoundedReachQuery):
            got = local_eval_bounded(fragment, query, kernel="numpy")
            want = kernel_reference.local_eval_bounded(fragment, query)
            assert kernel_reference.bounded_view(got) == kernel_reference.bounded_view(want)
        else:
            got = local_eval_reach(fragment, query, kernel="numpy")
            want = kernel_reference.local_eval_reach(fragment, query)
            assert kernel_reference.reach_view(got) == kernel_reference.reach_view(want)


def _lowerings():
    """Patch both lowering constructors; return the live call counts."""
    counts = {"csr": 0, "cond": 0}
    patches = []
    for cls, key in ((FragmentCSR, "csr"), (CSRCondensation, "cond")):
        init = cls.__init__

        def counting(self, csr_or_graph, _init=init, _key=key):
            counts[_key] += 1
            _init(self, csr_or_graph)

        patches.append(mock.patch.object(cls, "__init__", counting))
    return counts, patches


OPS = ("add", "add", "remove", "remove", "reverse", "lonely", "direct")


@st.composite
def write_streams(draw):
    num_nodes = draw(st.integers(24, 60))
    seed = draw(st.integers(0, 10_000))
    num_edges = draw(st.integers(num_nodes, 3 * num_nodes))
    graph = erdos_renyi(num_nodes, num_edges, seed=seed, num_labels=3)
    nodes = sorted(graph.nodes(), key=repr)
    lonely = nodes[draw(st.integers(0, num_nodes - 1))]
    graph.set_label(lonely, LONELY)
    k = draw(st.integers(3, 4))
    fragmentation = build_fragmentation(graph, random_partition(graph, k, seed=seed), k)
    ops = draw(
        st.lists(
            st.tuples(st.sampled_from(OPS), st.integers(0, 10**6), st.integers(0, 10**6)),
            min_size=1,
            max_size=20,
        )
    )
    s, t = draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes))
    queries = [ReachQuery(s, t), BoundedReachQuery(s, t, draw(st.integers(0, 5)))]
    queries += [RegularReachQuery(s, t, regex) for regex in REGEXES]
    return SimulatedCluster(fragmentation), nodes, lonely, ops, queries


def _pick_write(cluster, nodes, lonely, op, i, j):
    """The ``(u, v, add)`` write ``op`` names on the current graph, or None."""
    placement = cluster.fragmentation.placement
    edges = sorted(
        (
            (u, v)
            for fragment in cluster.fragmentation
            for u in fragment.nodes
            for v in fragment.local_graph.successors(u)
        ),
        key=repr,
    )
    if op == "direct":
        fragment = cluster.fragmentation[i % len(cluster.fragmentation)]
        owned = sorted(fragment.nodes, key=repr)
        absent = [(a, b) for a in owned for b in owned if not fragment.local_graph.has_edge(a, b)]
        return absent[j % len(absent)] + (False,) if absent else None
    if op == "remove" or op == "reverse":
        if not edges:
            return None
        u, v = edges[i % len(edges)]
        if op == "remove":
            return u, v, False
        u, v = v, u  # closes a two-cycle when both ends share a fragment
    elif op == "lonely":
        outside = [u for u in nodes if placement[u] != placement[lonely]]
        u, v = outside[i % len(outside)], lonely
    else:
        u, v = nodes[i % len(nodes)], nodes[j % len(nodes)]
    if u == v:
        return None
    exists = cluster.fragmentation.fragment_of(u).local_graph.has_edge(u, v)
    return u, v, not exists


class TestRepairEqualsFreshLowering:
    @given(write_streams())
    @settings(max_examples=60, deadline=None)
    def test_interleaved_writes(self, stream):
        cluster, nodes, lonely, ops, queries = stream
        for fragment in cluster.fragmentation:
            _warm(fragment)
        counts, patches = _lowerings()
        for patch in patches:
            patch.start()
        try:
            for op, i, j in ops:
                write = _pick_write(cluster, nodes, lonely, op, i, j)
                if write is None:
                    continue
                u, v, add = write
                source = cluster.fragmentation.placement[u]
                old = cluster.fragmentation[source]
                before = _warm(old)
                graph = old.local_graph
                if op == "direct":
                    # A direct edit bypasses the write path: the write that
                    # takes the edge out again finds a view its graph left.
                    graph.add_edge(u, v)
                    assert cached_csr(old) is None
                dropping = not add and v not in old.nodes and sum(
                    target == v for _, target in old.cross_edges
                ) == 1
                if v not in before.index:  # a virtual node appears
                    label = cluster.fragmentation.fragment_of(v).local_graph.label(v)
                    fallback = label not in before.label_index
                elif dropping:  # a virtual node disappears
                    code = before.label_codes[before.index[v]]
                    fallback = np.count_nonzero(before.label_codes == code) == 1
                else:
                    fallback = op == "direct"
                # Tarjan reruns for a cycle-closing add or a remove inside
                # one component; an add inside one component keeps it.
                closes = not fallback and v in before.index and u in descendants(graph, v)
                inside = closes and v in descendants(graph, u)
                tarjan = closes and not (add and inside)
                snapshot = _snapshot(before)
                counts.update(csr=0, cond=0)

                cluster.apply_edge_mutation(u, v, add)

                after = cluster.fragmentation[source]
                assert _snapshot(before)[:3] == snapshot[:3]
                for kept, now in zip(snapshot[3], _snapshot(before)[3]):
                    assert np.array_equal(kept, now)  # old arrays untouched
                repaired = cached_csr(after)
                if fallback:  # a label enters or leaves, or a direct edit
                    assert repaired is None
                    repaired = _warm(after)
                    assert counts == {"csr": 1, "cond": 1}
                else:
                    assert repaired is not None and repaired is not before
                    assert counts == {"csr": 0, "cond": 0}
                    assert (repaired._cond is None) == tarjan
                _assert_matches_fresh(after, repaired)
                for fragment in cluster.fragmentation:
                    _assert_rows_match_reference(fragment, queries)
        finally:
            for patch in patches:
                patch.stop()
