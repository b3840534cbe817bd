"""The CSR fragment core and the vectorized local-evaluation kernels.

Five contracts (DESIGN.md §9):

* **selection** — explicit ``kernel=`` argument > process-wide default
  (``--kernel``) > ``REPRO_KERNEL`` env var > ``numpy``; unknown or
  unavailable names raise :class:`~repro.errors.KernelError`.  ``numpy``
  is the one registered kernel, so precedence is checked with a made-up
  second name registered for the test.
* **CSR lowering** — interning follows the kernels' canonical
  sorted-by-``repr`` order, the arrays mirror the local graph exactly (and
  equal the per-row sorted reference lowering), and derived state
  (condensation, nonempty rows) is level-consistent.
* **invalidation** — a stale CSR is never swept after
  ``apply_edge_mutation``: the source side holds a view repaired by the
  delta (Tarjan reruns only for a cycle-closing add or a remove inside one
  component, a fresh lowering only for a label entering or leaving it);
  every other fragment keeps the identical cached arrays.
* **identity** — the numpy kernel produces bit-identical equations to the
  pure-python reference (``kernel_reference``) element by element — rows,
  columns, sets or distances, id sizes — across all three query classes
  (hypothesis-driven and pinned at the fragment level), and identical
  answers and modeled stats across executor backends and repartitions;
  sweeping only the roots' forward cone gives the rows the whole-fragment
  plans give, and the cached cone is kept exactly while it covers Fi.I.
  Bounded identity holds past 255 hops, where a narrow count would wrap.
* **compile once** — a regular query's automaton tables are built once,
  by its plan at the coordinator (or lazily by a bare
  ``local_eval_regular``), and ride through pickling without changing
  the automaton's equality, hash or modeled size.
"""

from __future__ import annotations

import pickle
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.automata import query_automaton  # noqa: E402
from repro.automata.query_automaton import QueryAutomaton  # noqa: E402
from repro.core.bes import TRUE  # noqa: E402
from repro.core.bounded import HopRows, local_eval_bounded  # noqa: E402
from repro.core.csr import (  # noqa: E402
    CSRCondensation,
    Cone,
    FragmentCSR,
    boundary_prologue,
    cached_csr,
    forward_closure,
    fragment_csr,
)
from repro.core.engine import evaluate, plan_for  # noqa: E402
from repro.core.incremental import IncrementalReachSession  # noqa: E402
from repro.core.kernels import (  # noqa: E402
    KERNEL_ENV_VAR,
    KERNEL_REGISTRY,
    KERNELS,
    _reach_masks,
    available_kernels,
    default_kernel,
    resolve_kernel,
    set_default_kernel,
)
from repro.core.options import EvalOptions  # noqa: E402
from repro.core.minplus import TARGET  # noqa: E402
from repro.core.queries import (  # noqa: E402
    BoundedReachQuery,
    ReachQuery,
    RegularReachQuery,
)
from repro.core.reachability import ReachRows, local_eval_reach  # noqa: E402
from repro.core.regular import RegularReachPlan, local_eval_regular  # noqa: E402
from repro.distributed.messages import payload_size  # noqa: E402
from repro.distributed import SimulatedCluster  # noqa: E402
from repro.distributed.executors import EXECUTORS  # noqa: E402
from repro.errors import KernelError  # noqa: E402
from repro.graph import DiGraph, erdos_renyi  # noqa: E402
from repro.graph.traversal import descendants  # noqa: E402
from repro.partition import build_fragmentation, random_partition  # noqa: E402
from repro.serving import BatchQueryEngine  # noqa: E402
from repro.serving.engine import eval_fragment_jobs  # noqa: E402
from repro.workload.query_gen import random_regular_queries  # noqa: E402

import kernel_reference  # noqa: E402

BACKENDS = sorted(EXECUTORS)


@pytest.fixture(autouse=True)
def _clean_selection(monkeypatch):
    # Each test sees the hardcoded fallback ("numpy"), whatever the
    # surrounding run exported in REPRO_KERNEL.
    monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
    set_default_kernel(None)
    yield
    set_default_kernel(None)


@pytest.fixture
def turbo(monkeypatch):
    """A made-up second kernel name, registered for one test.

    Nothing reads a resolved kernel name beyond the check that it is
    registered, so ``turbo`` evaluates exactly as ``numpy`` does.
    """
    monkeypatch.setattr(KERNEL_REGISTRY, "names", KERNELS + ("turbo",))
    return "turbo"


def _row_fields(rows):
    """A kernel partial's view and its id and payload arrays."""
    if isinstance(rows, HopRows):
        arrays = (rows.row_ids, rows.hops, rows.col_ids)
        return (*kernel_reference.bounded_view(rows), *(array.tolist() for array in arrays))
    arrays = (rows.row_ids, rows.bits, rows.col_ids)
    return (*kernel_reference.reach_view(rows), *(array.tolist() for array in arrays))


def _assert_identical(got, expected):
    """Element-by-element identity of two partial answers: rows, columns,
    sets or distances, and the recorded id sizes (a Boolean partial: its
    :func:`kernel_reference.reach_view` or
    :func:`~kernel_reference.regular_view`; a bounded one: its
    :func:`~kernel_reference.bounded_view`; wire size included)."""
    if isinstance(got, HopRows):
        assert kernel_reference.bounded_view(got) == kernel_reference.bounded_view(expected)
    elif isinstance(got, ReachRows):
        assert kernel_reference.reach_view(got) == kernel_reference.reach_view(expected)
    else:
        assert kernel_reference.regular_view(got) == kernel_reference.regular_view(expected)


def _fragmented(seed=0, num_nodes=18, num_edges=40, k=3):
    graph = erdos_renyi(num_nodes, num_edges, seed=seed, num_labels=3)
    assignment = random_partition(graph, k, seed=seed)
    return graph, build_fragmentation(graph, assignment, k)


def _automaton_of(query):
    automaton = query.automaton
    return automaton() if callable(automaton) else automaton


class TestKernelSelection:
    def test_fallback_is_python(self):
        # The fallback is the one runtime kernel, numpy.
        assert KERNELS == ("numpy",)
        assert default_kernel() == "numpy"
        assert resolve_kernel() == "numpy"
        assert resolve_kernel(None) == "numpy"

    def test_env_var_selects(self, monkeypatch, turbo):
        monkeypatch.setenv(KERNEL_ENV_VAR, turbo)
        assert default_kernel() == turbo
        assert resolve_kernel() == turbo

    def test_set_default_beats_env(self, monkeypatch, turbo):
        monkeypatch.setenv(KERNEL_ENV_VAR, turbo)
        set_default_kernel("numpy")
        assert resolve_kernel() == "numpy"
        set_default_kernel(None)  # reset restores the env layer
        assert resolve_kernel() == turbo

    def test_explicit_argument_beats_default(self, turbo):
        set_default_kernel(turbo)
        assert resolve_kernel("numpy") == "numpy"

    def test_unknown_names_rejected(self, monkeypatch):
        with pytest.raises(KernelError, match="unknown kernel"):
            resolve_kernel("fortran")
        with pytest.raises(KernelError, match="unknown kernel"):
            set_default_kernel("fortran")
        monkeypatch.setenv(KERNEL_ENV_VAR, "fortran")
        with pytest.raises(KernelError, match="unknown kernel"):
            default_kernel()

    def test_unavailable_kernel_rejected_with_advice(self, monkeypatch):
        import importlib.util

        real = importlib.util.find_spec
        monkeypatch.setattr(
            importlib.util,
            "find_spec",
            lambda name, *a: None if name == "numpy" else real(name, *a),
        )
        with pytest.raises(KernelError, match="unavailable"):
            resolve_kernel("numpy")

    def test_available_kernels_is_ordered_subset(self):
        available = available_kernels()
        assert set(available) <= set(KERNELS)
        assert available == ("numpy",)  # this test module requires numpy


def _reference_lowering(graph):
    """``(indptr, indices)`` lowered row by row, each row's ids sorted —
    the lowering :class:`FragmentCSR` replaced with one ``lexsort``."""
    order = sorted(graph.nodes(), key=repr)
    index = {node: i for i, node in enumerate(order)}
    indptr, indices = [0], []
    for node in order:
        indices.extend(sorted(index[succ] for succ in graph.successors(node)))
        indptr.append(len(indices))
    return indptr, indices


@st.composite
def lowering_cases(draw):
    """Graphs with isolated nodes and self-loops (empty included), over ids
    whose ``repr`` order is not their numeric order."""
    names = draw(st.lists(st.integers(0, 30), max_size=12, unique=True))
    nodes = [*names, *(f"n{name}" for name in names[::3])]
    graph = DiGraph()
    for node in nodes:
        graph.add_node(node)
    if nodes:
        pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
        for u, v in draw(st.lists(pairs, max_size=40)):
            graph.add_edge(u, v)
    return graph


class TestFragmentCSR:
    @pytest.fixture(scope="class")
    def case(self):
        return _fragmented(seed=5)

    def test_interning_is_sorted_by_repr(self, case):
        _, fragmentation = case
        for fragment in fragmentation:
            csr = fragment_csr(fragment)
            assert list(csr.order) == sorted(fragment.local_graph.nodes(), key=repr)
            assert all(csr.order[i] == node for node, i in csr.index.items())

    def test_adjacency_mirrors_local_graph(self, case):
        _, fragmentation = case
        for fragment in fragmentation:
            graph = fragment.local_graph
            csr = fragment_csr(fragment)
            assert csr.num_nodes == graph.num_nodes
            assert csr.num_edges == graph.num_edges
            for i, node in enumerate(csr.order):
                row = csr.indices[csr.indptr[i] : csr.indptr[i + 1]].tolist()
                assert row == sorted(row)  # per-row sorted by interned id
                assert {csr.order[j] for j in row} == set(graph.successors(node))

    def test_label_codes_roundtrip(self, case):
        _, fragmentation = case
        for fragment in fragmentation:
            graph = fragment.local_graph
            csr = fragment_csr(fragment)
            for i, node in enumerate(csr.order):
                code = int(csr.label_codes[i])
                assert csr.labels[code] == graph.label(node)
                assert csr.label_index[graph.label(node)] == code

    def test_cache_is_per_fragment_and_stamped(self, case):
        _, fragmentation = case
        fragment = fragmentation[0]
        csr = fragment_csr(fragment)
        assert fragment_csr(fragment) is csr
        assert cached_csr(fragment) is csr
        assert csr.stamp == fragment.local_graph.mutation_stamp

    def test_nonempty_rows_are_reduceat_boundaries(self, case):
        _, fragmentation = case
        for fragment in fragmentation:
            csr = fragment_csr(fragment)
            rows, starts = csr.nonempty_rows()
            out_degrees = np.diff(csr.indptr)
            assert rows.tolist() == np.flatnonzero(out_degrees).tolist()
            assert starts.tolist() == csr.indptr[rows].tolist()
            assert csr.nonempty_rows() is csr.nonempty_rows()  # cached

    def test_condensation_levels_are_dataflow_consistent(self, case):
        _, fragmentation = case
        for fragment in fragmentation:
            csr = fragment_csr(fragment)
            cond = csr.condensation()
            assert csr.condensation() is cond  # cached
            assert isinstance(cond, CSRCondensation)
            # comp ids ascend with level; every successor sits strictly
            # lower, so a single ascending-level sweep reads final rows only.
            for c in range(cond.num_comps):
                row = cond.cindices[cond.cindptr[c] : cond.cindptr[c + 1]]
                assert (row < c).all()
            level_of = np.empty(cond.num_comps, dtype=int)
            for level in range(len(cond.level_ptr) - 1):
                level_of[cond.level_ptr[level] : cond.level_ptr[level + 1]] = level
            for c in range(cond.num_comps):
                row = cond.cindices[cond.cindptr[c] : cond.cindptr[c + 1]]
                if level_of[c] == 0:
                    assert row.size == 0
                else:  # level = 1 + max successor level, so the max is hit
                    assert level_of[row].max() == level_of[c] - 1
            # the cached gather schedule: one entry per level >= 1, whose
            # reduceat segments are exactly its components' successor rows
            bounds = cond.level_ptr.tolist()
            assert [entry[:2] for entry in cond.schedule] == list(
                zip(bounds[1:-1], bounds[2:])
            )
            for c0, c1, segment, starts in cond.schedule:
                ends = [*starts[1:].tolist(), segment.size]
                for c, start, end in zip(range(c0, c1), starts.tolist(), ends):
                    row = cond.cindices[cond.cindptr[c] : cond.cindptr[c + 1]]
                    assert start < end
                    assert segment[start:end].tolist() == row.tolist()
            # node-level edges never point to a later component
            for i in range(csr.num_nodes):
                row = csr.indices[csr.indptr[i] : csr.indptr[i + 1]]
                assert (cond.comp[row] <= cond.comp[i]).all()

    @given(lowering_cases())
    @settings(max_examples=60, deadline=None)
    def test_lowering_equals_the_per_row_reference(self, graph):
        # the graph itself, then every fragment's local graph, whose
        # virtual nodes have no successors
        assignment = {node: len(repr(node)) % 2 for node in graph.nodes()}
        fragmentation = build_fragmentation(graph, assignment, 2)
        for local in (graph, *(fragment.local_graph for fragment in fragmentation)):
            indptr, indices = _reference_lowering(local)
            csr = FragmentCSR(local)
            assert csr.indptr.dtype == csr.indices.dtype == np.int64
            assert csr.indptr.tolist() == indptr
            assert csr.indices.tolist() == indices

    def test_empty_graph_lowering(self):
        csr = FragmentCSR(DiGraph())
        assert csr.indptr.tolist() == [0] and csr.indices.shape == (0,)
        assert csr.indices.dtype == np.int64

    def test_edgeless_graph_lowering(self):
        graph = DiGraph()
        for name in ("a", "b", "c"):
            graph.add_node(name, label="L")
        fragmentation = build_fragmentation(graph, {n: 0 for n in graph.nodes()}, 1)
        csr = fragment_csr(fragmentation[0])
        assert csr.num_edges == 0
        rows, starts = csr.nonempty_rows()
        assert rows.size == 0 and starts.size == 0
        cond = csr.condensation()
        assert cond.num_comps == 3
        assert cond.level_ptr.tolist() == [0, 3]  # all sinks, single level
        assert cond.schedule == ()  # nothing to absorb


class TestCSRInvalidation:
    """The mutation regression contract: stale arrays are never swept, the
    source side of a write holds a view repaired by the delta, and every
    other fragment keeps its own."""

    @staticmethod
    def _count_lowerings(monkeypatch):
        """Count ``FragmentCSR`` lowerings and ``CSRCondensation`` Tarjan
        runs, by the graph or view each was given."""
        calls = {FragmentCSR: [], CSRCondensation: []}
        for cls, found in calls.items():

            def counting(obj, arg, _init=cls.__init__, _found=found):
                _found.append(arg)
                _init(obj, arg)

            monkeypatch.setattr(cls, "__init__", counting)
        return calls

    @staticmethod
    def _assert_repaired(fragment, before):
        """``fragment`` holds a new view, current on its graph."""
        repaired = cached_csr(fragment)
        assert repaired is not None and repaired is not before
        assert repaired.stamp == fragment.local_graph.mutation_stamp
        return repaired

    def _cluster(self, seed=3):
        graph = erdos_renyi(24, 60, seed=seed, num_labels=3)
        return graph, SimulatedCluster.from_graph(graph, 3, "chunk")

    @staticmethod
    def _warm(cluster):
        return {
            fragment.fid: fragment_csr(fragment)
            for fragment in cluster.fragmentation
        }

    @staticmethod
    def _intra_edge(cluster):
        placement = cluster.fragmentation.placement
        for fragment in cluster.fragmentation:
            for u in sorted(fragment.nodes, key=repr):
                for v in sorted(fragment.local_graph.successors(u), key=repr):
                    if placement.get(v) == fragment.fid:
                        return u, v
        raise AssertionError("fixture graph has no intra-fragment edge")

    @staticmethod
    def _absent_cross_pair(cluster):
        placement = cluster.fragmentation.placement
        nodes = sorted(placement, key=repr)
        for u in nodes:
            fragment = cluster.fragmentation[placement[u]]
            for v in nodes:
                if placement[v] != placement[u] and not fragment.local_graph.has_edge(
                    u, v
                ):
                    return u, v
        raise AssertionError("fixture graph has no absent cross-fragment pair")

    def _assert_fresh_everywhere(self, cluster):
        # The invariant behind "a stale CSR is never swept": whatever a
        # kernel obtains through fragment_csr reflects the live graph.
        for fragment in cluster.fragmentation:
            assert fragment_csr(fragment).stamp == fragment.local_graph.mutation_stamp

    def test_intra_fragment_mutation_rebuilds_only_the_owner(self, monkeypatch):
        # The owner's view is repaired, never lowered; a cycle-closing add
        # and a remove inside one component rerun Tarjan on its next use.
        _, cluster = self._cluster()
        warmed = self._warm(cluster)
        for csr in warmed.values():
            csr.condensation()
        calls = self._count_lowerings(monkeypatch)
        u, v = self._intra_edge(cluster)
        owner = cluster.fragmentation.placement[u]
        assert not cluster.fragmentation[owner].local_graph.has_edge(v, u)
        for x, y, add in ((u, v, False), (u, v, True), (v, u, True), (v, u, False)):
            before = cluster.fragmentation[owner]
            view = fragment_csr(before)
            # Tarjan reruns iff (x, y) closes or lies on a cycle (the
            # edge (u, v) itself makes (v, u) do both).
            tarjan = x in descendants(before.local_graph, y) and (
                not add or y not in descendants(before.local_graph, x)
            )
            assert cluster.apply_edge_mutation(x, y, add=add) == (owner,)
            for fragment in cluster.fragmentation:
                if fragment.fid == owner:
                    self._assert_repaired(fragment, view).condensation()
                else:
                    assert cached_csr(fragment) is warmed[fragment.fid]
            assert calls[FragmentCSR] == []
            assert len(calls[CSRCondensation]) == tarjan
            calls[CSRCondensation].clear()
            if (x, y) == (v, u):
                assert tarjan  # one write of each fallback class
        self._assert_fresh_everywhere(cluster)

    def test_cross_fragment_mutation_rebuilds_at_most_two(self, monkeypatch):
        graph, cluster = self._cluster()
        # A node some other fragment does not hold yet gets a label no
        # other node carries (labels do not move the chunk partition).
        nodes = sorted(graph.nodes(), key=repr)
        lonely, writer = next(
            (x, w)
            for x in reversed(nodes)
            for w in nodes
            if not cluster.fragmentation.fragment_of(w).local_graph.has_node(x)
        )
        graph.set_label(lonely, "lonely")
        cluster = SimulatedCluster.from_graph(graph, 3, "chunk")
        warmed = self._warm(cluster)
        for csr in warmed.values():
            csr.condensation()
        calls = self._count_lowerings(monkeypatch)
        u, v = self._absent_cross_pair(cluster)
        assert lonely not in (u, v)
        source, target = affected = cluster.apply_edge_mutation(u, v, add=True)
        for fragment in cluster.fragmentation:
            if fragment.fid == source:
                # only the source side's local graph changed: its carried
                # view is repaired by the delta into a new, current one
                self._assert_repaired(fragment, warmed[source]).condensation()
            else:
                # the target side was replaced too (its in-node set grew),
                # but its graph did not move: the warmed arrays carry over
                assert cached_csr(fragment) is warmed[fragment.fid]
        assert source != target and len(affected) == 2
        self._assert_fresh_everywhere(cluster)
        # and back: removing the edge again repairs the source side only
        rewarmed = self._warm(cluster)
        cluster.apply_edge_mutation(u, v, add=False)
        for fragment in cluster.fragmentation:
            if fragment.fid == source:
                self._assert_repaired(fragment, rewarmed[source]).condensation()
            else:
                assert cached_csr(fragment) is rewarmed[fragment.fid]
        self._assert_fresh_everywhere(cluster)
        assert calls == {FragmentCSR: [], CSRCondensation: []}
        # A virtual node whose label is new to the source side, and its
        # removal, which takes the label away again, renumber the label
        # codes: both fall back to one fresh lowering and one Tarjan run.
        home = cluster.fragmentation.placement[writer]
        for add in (True, False):
            self._warm(cluster)[home].condensation()
            cluster.apply_edge_mutation(writer, lonely, add=add)
            assert cached_csr(cluster.fragmentation[home]) is None
            fragment_csr(cluster.fragmentation[home]).condensation()
            assert [len(found) for found in calls.values()] == [1, 1]
            calls[FragmentCSR].clear()
            calls[CSRCondensation].clear()
        self._assert_fresh_everywhere(cluster)

    @staticmethod
    def _absent_intra_pair(cluster):
        for fragment in cluster.fragmentation:
            nodes = sorted(fragment.nodes, key=repr)
            for u in nodes:
                for v in nodes:
                    if u != v and not fragment.local_graph.has_edge(u, v):
                        return u, v
        raise AssertionError("fixture graph has no absent intra-fragment pair")

    @pytest.mark.parametrize("cross", [False, True], ids=["intra", "cross"])
    def test_session_writes_lower_the_source_side_only(self, monkeypatch, cross):
        # The carry rule for CSR arrays across a write: the source side of
        # an edge write holds a new view repaired by the delta, with no
        # lowering; a resync's version bump and the target side of a cross
        # edge keep theirs.  Tarjan reruns only for a write that closes a
        # cycle or cuts inside one component.
        graph, cluster = self._cluster()
        nodes = sorted(graph.nodes(), key=repr)
        sessions = [
            IncrementalReachSession(cluster, ReachQuery(s, t), kernel="numpy")
            for s, t in ((nodes[0], nodes[-1]), (nodes[1], nodes[-2]))
        ]
        for session in sessions:
            session.initialize()
        pair = self._absent_cross_pair if cross else self._absent_intra_pair
        u, v = pair(cluster)
        source = cluster.fragmentation.placement[u]
        local = cluster.fragmentation[source].local_graph
        tarjan = not cross and u in descendants(local, v)  # a cross v is a sink
        calls = self._count_lowerings(monkeypatch)

        first, second = sessions
        for writer, other, write in (
            (first, second, first.add_edge),
            (second, first, second.remove_edge),
        ):
            before = cluster.fragmentation[source]
            view = cached_csr(before)
            kept = {f.fid: cached_csr(f) for f in cluster.fragmentation if f.fid != source}
            write(u, v)
            self._assert_repaired(cluster.fragmentation[source], view)
            assert calls[FragmentCSR] == []
            assert len(calls[CSRCondensation]) == tarjan
            calls[CSRCondensation].clear()
            other.resync(u)
            if cross:
                other.resync(v)
            assert calls == {FragmentCSR: [], CSRCondensation: []}
            for fid, held in kept.items():
                assert cached_csr(cluster.fragmentation[fid]) is held
            assert writer.answer == other.answer == evaluate(cluster, other.query).answer

    def test_stale_arrays_never_reach_a_kernel_sweep(self):
        graph, cluster = self._cluster(seed=9)
        nodes = sorted(graph.nodes(), key=repr)
        query = ReachQuery(nodes[0], nodes[-1])
        self._warm(cluster)
        u, v = self._intra_edge(cluster)
        cluster.apply_edge_mutation(u, v, add=False)
        x, y = self._absent_cross_pair(cluster)
        cluster.apply_edge_mutation(x, y, add=True)
        for fragment in cluster.fragmentation:
            _assert_identical(
                local_eval_reach(fragment, query),
                kernel_reference.local_eval_reach(fragment, query),
            )


@st.composite
def labeled_cases(draw, max_nodes=14):
    num_nodes = draw(st.integers(min_value=4, max_value=max_nodes))
    num_edges = draw(st.integers(min_value=0, max_value=3 * num_nodes))
    seed = draw(st.integers(0, 10_000))
    graph = erdos_renyi(num_nodes, num_edges, seed=seed, num_labels=3)
    k = draw(st.integers(min_value=1, max_value=3))
    assignment = random_partition(graph, k, seed=seed)
    fragmentation = build_fragmentation(graph, assignment, k)
    nodes = sorted(graph.nodes(), key=repr)
    s = draw(st.sampled_from(nodes))
    t = draw(st.sampled_from(nodes))
    return graph, fragmentation, s, t, seed


class TestKernelIdentityProperties:
    """Bit-identical equations on arbitrary fragments, per query class."""

    @given(labeled_cases())
    @settings(max_examples=40, deadline=None)
    def test_reach_equations_identical(self, case):
        _, fragmentation, s, t, _ = case
        query = ReachQuery(s, t)
        for fragment in fragmentation:
            _assert_identical(
                local_eval_reach(fragment, query),
                kernel_reference.local_eval_reach(fragment, query),
            )

    @given(labeled_cases(), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_bounded_equations_identical(self, case, bound):
        _, fragmentation, s, t, _ = case
        query = BoundedReachQuery(s, t, bound)
        for fragment in fragmentation:
            # Compared without re-sorting: the identity contract covers the
            # term tuples' order, not just their contents — and the matrix
            # itself, buffer for buffer.
            _assert_identical(
                local_eval_bounded(fragment, query),
                kernel_reference.local_eval_bounded(fragment, query),
            )

    @given(labeled_cases())
    @settings(max_examples=25, deadline=None)
    def test_regular_equations_identical(self, case):
        graph, fragmentation, _, _, seed = case
        (query,) = random_regular_queries(graph, 1, num_states=6, seed=seed)
        automaton = _automaton_of(query)
        for fragment in fragmentation:
            _assert_identical(
                local_eval_regular(fragment, automaton),
                kernel_reference.local_eval_regular(fragment, automaton),
            )


def _prologue_fixture():
    """Five fragments covering every boundary shape the prologue handles.

    F0 = {a, bb, ccc}: in-node ``a``, virtual ``x`` and ``yy``;
    F1 = {x, yy, zzz}: in-nodes ``x``, ``yy``, virtual ``a`` and ``q``;
    F2 = {lonely}: no in-node and no virtual node;
    F3 = {p}: no in-node, virtual ``a``;
    F4 = {q}: in-node ``q``, no virtual node.
    Node ids have different lengths, so a wrong id size shows in the bytes.
    """
    edges = [
        ("a", "bb"), ("bb", "ccc"), ("ccc", "x"), ("bb", "yy"),
        ("x", "yy"), ("yy", "zzz"), ("zzz", "a"), ("zzz", "x"),
        ("p", "a"), ("x", "q"), ("ccc", "a"),
    ]
    labels = {node: ("L0", "L1")[len(node) % 2] for edge in edges for node in edge}
    labels["lonely"] = "L0"
    graph = DiGraph.from_edges(edges, labels=labels, nodes=["lonely"])
    assignment = {
        "a": 0, "bb": 0, "ccc": 0, "x": 1, "yy": 1, "zzz": 1,
        "lonely": 2, "p": 3, "q": 4,
    }
    return build_fragmentation(graph, assignment, 5)


#: (fragment, s, t, what the case covers) — every prologue edge case.
PROLOGUE_CASES = [
    (0, "zzz", "x", "t in Fi.O becomes the TRUE column"),
    (0, "a", "zzz", "s already an in-node"),
    (0, "bb", "zzz", "s local but not an in-node"),
    (0, "zzz", "ccc", "t local"),
    (0, "bb", "ccc", "s and t both local"),
    (2, "a", "x", "empty iset and empty oset"),
    (3, "zzz", "a", "empty iset, t virtual"),
    (3, "p", "a", "s local into an empty iset"),
    (4, "a", "x", "empty oset"),
    (4, "a", "q", "empty oset, t local"),
]


def _sized(rows):
    """Every id size recorded in ``rows`` against ``payload_size``."""
    return rows.row_bytes == sum(map(payload_size, rows.rows)) and list(
        rows.col_bytes
    ) == [payload_size(column) for column in rows.columns]


class TestBoundaryPrologue:
    """The cached boundary prologue: numpy rows equal the python reference's
    row for row — ids, columns, sets, id sizes and the modeled payload."""

    @pytest.mark.parametrize(
        "fid, s, t", [case[:3] for case in PROLOGUE_CASES],
        ids=[case[3] for case in PROLOGUE_CASES],
    )
    def test_reach_rows_identical(self, fid, s, t):
        fragment = _prologue_fixture()[fid]
        query = ReachQuery(s, t)
        reference = kernel_reference.local_eval_reach(fragment, query)
        got = local_eval_reach(fragment, query, kernel="numpy")
        assert got == reference
        assert kernel_reference.reach_view(got) == kernel_reference.reach_view(reference)
        assert got.row_bytes == sum(map(payload_size, got.rows))
        assert got.col_bytes.tolist() == [payload_size(column) for column in got.columns]
        # Every row and column sits at its Vf id; true at id 0.
        ids = fragment.boundary_ids
        assert got.row_ids.tolist() == [ids.get(root, -1) for root in got.rows]
        assert got.col_ids.tolist() == [ids.get(c, 0) for c in got.columns]
        assert payload_size(got) == kernel_reference.boolean_size(reference)

    @pytest.mark.parametrize(
        "fid, s, t", [case[:3] for case in PROLOGUE_CASES],
        ids=[case[3] for case in PROLOGUE_CASES],
    )
    def test_bounded_rows_identical(self, fid, s, t):
        fragment = _prologue_fixture()[fid]
        query = BoundedReachQuery(s, t, 3)
        reference = kernel_reference.local_eval_bounded(fragment, query)
        got = local_eval_bounded(fragment, query, kernel="numpy")
        assert kernel_reference.bounded_view(got) == kernel_reference.bounded_view(reference)
        assert _sized(got)
        assert payload_size(got) == kernel_reference.bounded_size(reference)
        # Every row and column sits at its Vf id; TARGET at id 0.
        ids = fragment.boundary_ids
        assert got.row_ids.tolist() == [ids.get(root, -1) for root in got.rows]
        assert got.col_ids.tolist() == [ids.get(c, 0) for c in got.columns]

    @pytest.mark.parametrize(
        "fid, s, t", [case[:3] for case in PROLOGUE_CASES],
        ids=[case[3] for case in PROLOGUE_CASES],
    )
    @pytest.mark.parametrize("regex", [".*", "L1 (L0 | L1)*", "(L0 | L1)* L0 L1"])
    def test_regular_rows_identical(self, fid, s, t, regex):
        fragment = _prologue_fixture()[fid]
        automaton = RegularReachQuery(s, t, regex).automaton()
        reference = kernel_reference.local_eval_regular(fragment, automaton)
        got = local_eval_regular(fragment, automaton, kernel="numpy")
        assert got == reference
        assert kernel_reference.regular_view(got) == kernel_reference.regular_view(reference)
        assert _sized(got)
        assert payload_size(got) == kernel_reference.regular_size(reference)
        # Every row and column sits at its pair id; (t, ut) at id 0.
        for ids, pairs in ((got.row_ids, got.rows), (got.col_ids, got.columns)):
            assert ids.tolist() == kernel_reference.regular_ids(fragment, automaton, pairs)

    def test_virtual_target_is_the_true_column(self):
        fragment = _prologue_fixture()[0]
        reach, bounded = ReachQuery("zzz", "x"), BoundedReachQuery("zzz", "x", 3)
        for reach_eval, bounded_eval in (
            (kernel_reference.local_eval_reach, kernel_reference.local_eval_bounded),
            (local_eval_reach, local_eval_bounded),
        ):
            rows = reach_eval(fragment, reach)
            assert "x" not in rows.columns and TRUE in rows.columns
            assert rows.col_bytes[rows.columns.index(TRUE)] == 1
            distances = bounded_eval(fragment, bounded)
            assert TARGET in distances.columns and "x" not in distances.columns

    def test_boundary_is_cached_per_fragment_state(self):
        fragment = _prologue_fixture()[0]
        query = ReachQuery("bb", "ccc")
        local_eval_reach(fragment, query, kernel="numpy")
        csr = fragment_csr(fragment)
        found = csr.boundary(fragment)
        assert found.in_nodes == ("a",) and found.out_nodes == ("x", "yy")
        assert found.in_bytes == 1 and list(found.out_bytes) == [1, 2]
        assert list(csr.node_bytes) == [payload_size(node) for node in csr.order]
        # other queries on the same fragment state reuse it
        local_eval_reach(fragment, ReachQuery("a", "x"), kernel="numpy")
        assert csr.boundary(fragment) is found

    def test_cross_edge_write_refreshes_a_kept_view(self):
        # The target side of a cross-edge write keeps its CSR view (its
        # graph did not move) but gains an in-node: the prologue must see
        # the new in_nodes object, not trust the view.
        graph = erdos_renyi(24, 60, seed=3, num_labels=3)
        cluster = SimulatedCluster.from_graph(graph, 3, "chunk")
        placement = cluster.fragmentation.placement
        u, v = next(
            (u, v)
            for u in sorted(placement, key=repr)
            for v in sorted(placement, key=repr)
            if placement[u] != placement[v]
            and v not in cluster.fragmentation[placement[v]].in_nodes
        )
        nodes = sorted(graph.nodes(), key=repr)
        query = ReachQuery(nodes[0], nodes[-1])
        before = cluster.fragmentation[placement[v]]
        local_eval_reach(before, query, kernel="numpy")
        view = fragment_csr(before)
        assert v not in view.boundary(before).in_nodes
        cluster.apply_edge_mutation(u, v, add=True)
        after = cluster.fragmentation[placement[v]]
        assert after is not before and cached_csr(after) is view
        rows = local_eval_reach(after, query, kernel="numpy")
        assert v in rows.rows and v in view.boundary(after).in_nodes
        _assert_identical(rows, kernel_reference.local_eval_reach(after, query))


def _cone_fixture():
    """Four fragments whose in-node cones are proper, whole and edgeless.

    F0 = {a, b, c, d, e}: in-node ``a``, cone {a, b, c, x} (``b``/``c`` a
    cycle); ``d`` (self-loop) and ``e`` lie outside it, and so does the
    virtual ``y``;
    F1 = {x, y, z}: in-nodes ``x`` and ``y``, whose cone is the fragment;
    F2 = {p}: no in-node;
    F3 = {q, r}: in-node ``q`` without successors, so its cone has no
    edge; ``r`` lies outside it.
    """
    edges = [
        ("a", "b"), ("b", "c"), ("c", "b"), ("c", "x"),
        ("d", "d"), ("d", "e"), ("e", "a"), ("e", "y"),
        ("x", "z"), ("z", "a"), ("z", "q"),
        ("p", "a"),
        ("r", "q"), ("r", "x"),
    ]
    nodes = sorted({node for edge in edges for node in edge})
    labels = {node: f"L{i % 2}" for i, node in enumerate(nodes)}
    graph = DiGraph.from_edges(edges, labels=labels)
    assignment = {
        "a": 0, "b": 0, "c": 0, "d": 0, "e": 0,
        "x": 1, "y": 1, "z": 1, "p": 2, "q": 3, "r": 3,
    }
    return graph, assignment


#: (fragment, s, t, cone the prologue sweeps, what the case covers).
CONE_CASES = [
    (0, "a", "x", "in-node", "s in Fi.I, t virtual"),
    (0, "b", "c", "in-node", "s local inside the cone, t inside it"),
    (0, "a", "e", "in-node", "t local outside the cone"),
    (0, "d", "e", "whole", "s local outside the cone: the fallback"),
    (0, "d", "y", "whole", "fallback, t virtual outside the cone"),
    (0, "z", "q", "in-node", "neither endpoint here"),
    (1, "x", "a", "whole", "the cone covers the fragment"),
    (2, "p", "a", "whole", "empty Fi.I, s local"),
    (2, "z", "a", "in-node", "empty Fi.I, no root"),
    (3, "z", "x", "in-node", "a cone with no edges"),
    (3, "q", "r", "in-node", "s in an edgeless cone, t outside it"),
    (3, "r", "x", "whole", "s outside an edgeless cone"),
]

CONE_REGEXES = (".*", "L0 L1", "(L0 | L1)* L1", "L1 .* L0", "L0*")


def _whole_plans(thunk):
    """``thunk()`` with every prologue sweeping the whole fragment."""
    with mock.patch.object(FragmentCSR, "cone", lambda csr, roots: csr.whole_cone()):
        return thunk()


def _numpy_rows(fragment, query, bound=None):
    """The numpy kernel's rows for ``query`` (``bound`` makes it bounded)."""
    if isinstance(query, RegularReachQuery):
        return local_eval_regular(fragment, query.automaton(), kernel="numpy")
    if bound is not None:
        query = BoundedReachQuery(query.source, query.target, bound)
        return local_eval_bounded(fragment, query, kernel="numpy")
    return local_eval_reach(fragment, query, kernel="numpy")


class TestForwardCone:
    """Sweeping the roots' forward cone gives the whole-fragment rows, and
    the cached in-node cone is validated by coverage."""

    @staticmethod
    def _fragmentation():
        graph, assignment = _cone_fixture()
        return build_fragmentation(graph, assignment, 4)

    @staticmethod
    def _in_cone(fragment):
        csr = fragment_csr(fragment)
        return csr.cone(csr.boundary(fragment).in_rows)

    @staticmethod
    def _assert_same_rows(fragment, query, bound=None):
        coned = _numpy_rows(fragment, query, bound)
        whole = _whole_plans(lambda: _numpy_rows(fragment, query, bound))
        assert _row_fields(coned) == _row_fields(whole)
        assert dict(coned) == dict(whole)
        return coned

    def test_fixture_cones(self):
        fragmentation = self._fragmentation()
        members = [
            None if cone.mask is None else set(np.array(fragment_csr(f).order)[cone.mask])
            for f in fragmentation
            for cone in [self._in_cone(f)]
        ]
        assert members == [{"a", "b", "c", "x"}, None, set(), {"q"}]
        assert self._in_cone(fragmentation[1]) is fragment_csr(fragmentation[1]).whole_cone()
        edgeless = self._in_cone(fragmentation[3])
        cond = fragment_csr(fragmentation[3]).condensation()
        assert edgeless.edges(fragment_csr(fragmentation[3])) is None
        assert edgeless.schedule(cond) == ()

    @pytest.mark.parametrize(
        "fid, s, t, picked", [case[:4] for case in CONE_CASES],
        ids=[case[4] for case in CONE_CASES],
    )
    def test_prologue_picks_the_cone(self, fid, s, t, picked):
        fragment = self._fragmentation()[fid]
        csr, cone, found = boundary_prologue(fragment, s, t)
        expected = csr.whole_cone() if picked == "whole" else self._in_cone(fragment)
        assert cone is expected
        assert cone.covers(found.root_rows)

    @pytest.mark.parametrize(
        "fid, s, t", [case[:3] for case in CONE_CASES],
        ids=[case[4] for case in CONE_CASES],
    )
    def test_cone_rows_equal_whole_fragment_rows(self, fid, s, t):
        fragment = self._fragmentation()[fid]
        reach = self._assert_same_rows(fragment, ReachQuery(s, t))
        _assert_identical(reach, kernel_reference.local_eval_reach(fragment, ReachQuery(s, t)))
        for bound in range(7):
            self._assert_same_rows(fragment, ReachQuery(s, t), bound)
        for regex in CONE_REGEXES:
            self._assert_same_rows(fragment, RegularReachQuery(s, t, regex))

    @given(labeled_cases(), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_cone_rows_equal_whole_fragment_rows_on_random_graphs(self, case, bound):
        graph, fragmentation, s, t, seed = case
        (regular,) = random_regular_queries(graph, 1, num_states=6, seed=seed)
        for fragment in fragmentation:
            csr = fragment_csr(fragment)
            in_rows = csr.boundary(fragment).in_rows
            reached = set(fragment.in_nodes).union(
                *(descendants(fragment.local_graph, node) for node in fragment.in_nodes)
            )
            assert forward_closure(csr, in_rows).tolist() == [
                node in reached for node in csr.order
            ]
            self._assert_same_rows(fragment, ReachQuery(s, t))
            self._assert_same_rows(fragment, ReachQuery(s, t), bound)
            self._assert_same_rows(fragment, RegularReachQuery(s, t, regular.regex))

    def _cluster(self):
        graph, assignment = _cone_fixture()
        return SimulatedCluster(build_fragmentation(graph, assignment, 4))

    def _write(self, cluster, fid, u, v, add):
        before = cluster.fragmentation[fid]
        view, cone = fragment_csr(before), self._in_cone(before)
        cluster.apply_edge_mutation(u, v, add=add)
        after = cluster.fragmentation[fid]
        assert after is not before and cached_csr(after) is view  # view kept
        return after, cone

    def test_removed_in_node_keeps_the_cone(self):
        cluster = self._cluster()
        after, cone = self._write(cluster, 3, "z", "q", add=False)
        assert not after.in_nodes
        assert self._in_cone(after) is cone

    def test_in_node_added_inside_the_cone_keeps_it(self):
        cluster = self._cluster()
        after, cone = self._write(cluster, 0, "z", "b", add=True)
        assert after.in_nodes == {"a", "b"}
        assert self._in_cone(after) is cone

    def test_in_node_added_outside_the_cone_builds_a_covering_one(self):
        cluster = self._cluster()
        after, cone = self._write(cluster, 0, "z", "d", add=True)
        grown = self._in_cone(after)
        assert grown is not cone and isinstance(grown, Cone)
        csr = fragment_csr(after)
        assert grown.covers(csr.boundary(after).in_rows)
        assert grown.covers(csr.index["e"])  # d -> e rides along
        self._assert_same_rows(after, ReachQuery("d", "x"))
        self._assert_same_rows(after, ReachQuery("d", "x"), 4)

    def test_relowered_view_builds_a_new_cone(self, monkeypatch):
        # The write's source side is repaired, not lowered: its new view
        # carries the cone as a new object, grown by the closure of the
        # head it newly reaches (d, and with it e and y), plans unbuilt.
        cluster = self._cluster()
        before = cluster.fragmentation[0]
        view, cone = fragment_csr(before), self._in_cone(before)
        cone.edges(view)
        lowered = []
        monkeypatch.setattr(FragmentCSR, "__init__", lambda *args: lowered.append(args))
        cluster.apply_edge_mutation("a", "d", add=True)
        after = cluster.fragmentation[0]
        repaired = cached_csr(after)  # its graph moved, its view followed
        assert repaired is not None and repaired is not view and not lowered
        assert repaired.stamp == after.local_graph.mutation_stamp
        grown = self._in_cone(after)
        assert grown is not cone and grown is repaired.whole_cone()
        assert grown.covers(repaired.index["d"]) and grown.covers(repaired.index["e"])
        assert cone.covers(view.boundary(before).in_rows) and not cone.covers(view.index["d"])
        self._assert_same_rows(after, ReachQuery("a", "x"))
        self._assert_same_rows(after, ReachQuery("a", "x"), 4)

    def test_cached_cone_never_grows_for_the_source(self):
        fragment = self._fragmentation()[0]
        cone = self._in_cone(fragment)
        csr = fragment_csr(fragment)
        for query in (ReachQuery("d", "x"), RegularReachQuery("e", "x", ".*")):
            _numpy_rows(fragment, query)
            _numpy_rows(fragment, query, 3)
            assert self._in_cone(fragment) is cone
            assert not cone.covers(csr.index[query.source])


#: The hub fixture's core: fragment 0, labeled L0..L2.
HUB_CORE = [f"h{i:02d}" for i in range(12)]


def _hub_case(fanout):
    """A hub fragment whose bitsets span several ``uint64`` words.

    Fragment 0 is a 12-node labeled core (a path whose tail ``h04..h11``
    closes into a cycle) with an edge to each of ``fanout`` nodes of
    fragment 1, so it sweeps ``fanout`` boundary seeds — over 64 or over
    128 — at several distances; every outer node also points back into the
    core, so every core node is an in-node.  Outer nodes carry L0..L3: L3
    occurs only outside the hub fragment.
    """
    graph = DiGraph()
    outer = [f"o{k:03d}" for k in range(fanout)]
    for i, node in enumerate(HUB_CORE):
        graph.add_node(node, label=f"L{i % 3}")
    for k, node in enumerate(outer):
        graph.add_node(node, label=f"L{k % 4}")
    for a, b in zip(HUB_CORE, HUB_CORE[1:]):
        graph.add_edge(a, b)
    graph.add_edge(HUB_CORE[-1], HUB_CORE[4])
    for k, node in enumerate(outer):
        graph.add_edge(HUB_CORE[k % 12], node)
        graph.add_edge(node, HUB_CORE[5 * k % 12])
    assignment = {node: 0 for node in HUB_CORE}
    assignment.update({node: 1 for node in outer})
    return graph, build_fragmentation(graph, assignment, 2), outer


#: Regular queries over the hub: labels shared across automata at different
#: positions, wildcard positions, and a label absent from the hub fragment.
HUB_REGEXES = (
    "L0",
    "L0 L1",
    "L1 L0",
    ". L0",
    "L0 .",
    ".*",
    ". .",
    "(L0 | L1 | L2)* L3",
    ".* L3",
    "L1* . L2",
    "L2 (L0 | .)* L1",
    "L3 L3*",
)


class TestMultiWordKernels:
    """Deterministic identity where seeds need 2 and 3 bitset words, and
    on warm per-fragment caches.

    The property tests above draw at most 14 nodes, so their bitsets never
    leave the first word and every example lowers a fresh graph; here one
    fragmentation serves a whole sequence of queries, so every cached
    schedule and label sub-CSR is reused by later queries of other shapes
    and word counts.
    """

    @pytest.fixture(scope="class", params=[70, 150], ids=["2-words", "3-words"])
    def hub(self, request):
        return _hub_case(request.param)

    @staticmethod
    def _pairs(outer):
        # (target outside the hub fragment), (target inside it, on the
        # cycle), (source outside, target on the path before the cycle)
        return [
            (HUB_CORE[0], outer[-1]),
            (HUB_CORE[1], HUB_CORE[9]),
            (outer[3], HUB_CORE[2]),
        ]

    def test_hub_seeds_span_the_words(self, hub):
        _, fragmentation, outer = hub
        assert set(fragmentation[0].virtual_nodes) == set(outer)
        assert set(fragmentation[0].in_nodes) == set(HUB_CORE)

    def test_reach_equations_identical(self, hub):
        _, fragmentation, outer = hub
        for s, t in self._pairs(outer):
            query = ReachQuery(s, t)
            for fragment in fragmentation:
                _assert_identical(
                    local_eval_reach(fragment, query),
                    kernel_reference.local_eval_reach(fragment, query),
                )

    def test_bounded_equations_identical(self, hub):
        _, fragmentation, outer = hub
        for s, t in self._pairs(outer):
            for bound in range(7):
                query = BoundedReachQuery(s, t, bound)
                for fragment in fragmentation:
                    _assert_identical(
                        local_eval_bounded(fragment, query),
                        kernel_reference.local_eval_bounded(fragment, query),
                    )

    def test_regular_equations_identical_on_warm_caches(self, hub):
        _, fragmentation, outer = hub
        for s, t in self._pairs(outer):
            for regex in HUB_REGEXES:
                automaton = QueryAutomaton.build(regex, s, t)
                for fragment in fragmentation:
                    _assert_identical(
                        local_eval_regular(fragment, automaton),
                        kernel_reference.local_eval_regular(fragment, automaton),
                    )

    def test_seeds_sharing_a_component_keep_both_bits(self, hub):
        _, fragmentation, _ = hub
        fragment = fragmentation[0]
        # h05 and h09 lie on the cycle h04..h11: one condensation component
        seeds = [HUB_CORE[5], HUB_CORE[9]]
        roots = [HUB_CORE[0], HUB_CORE[5], HUB_CORE[11]]
        csr = fragment_csr(fragment)
        # Seed ids in two different words, the second at bit 63: the bits
        # must accumulate in one component row and never wrap or go signed.
        seed_ids = np.array([1, 127], dtype=np.int64)
        bits = _reach_masks(
            np,
            csr,
            csr.whole_cone(),
            np.array([csr.index[root] for root in roots]),
            np.array([csr.index[seed] for seed in seeds]),
            seed_ids,
            2,
        )
        assert bits.dtype == np.uint64 and bits.shape == (3, 2)
        assert bits.tolist() == [[0b10, 1 << 63]] * 3
        masks = {
            root: sum(
                1 << j
                for j, seed_id in enumerate(seed_ids.tolist())
                if row[seed_id >> 6] >> (seed_id & 63) & 1
            )
            for root, row in zip(roots, bits.tolist())
        }
        reference = kernel_reference.reachable_seed_masks_from(
            roots, fragment.local_graph.successors, seeds
        )
        assert masks == {root: reference[root] for root in roots} == {root: 0b11 for root in roots}

    def test_label_cache_is_bounded_by_the_alphabet(self, hub):
        graph, fragmentation, _ = hub
        fragment = fragmentation[0]
        regexes = {}
        for query in random_regular_queries(graph, 80, num_states=6, seed=3):
            regexes.setdefault(str(query.regex), query)
        queries = list(regexes.values())[:40]
        assert len(queries) == 40
        for query in queries:
            automaton = _automaton_of(query)
            _assert_identical(
                local_eval_regular(fragment, automaton, kernel="numpy"),
                kernel_reference.local_eval_regular(fragment, automaton),
            )
        # one entry per label code plus the wildcard, however many
        # distinct automata ran
        csr = fragment_csr(fragment)
        assert len(csr._labels) <= len(csr.labels) + 1


#: A 330-node path: fragment 0 holds p000..p299, fragment 1 the rest.
LONG_PATH = [f"p{i:03d}" for i in range(330)]


def _long_path_case():
    """A fragment whose shortest paths run past 255 hops.

    Back edges from fragment 1 make ``p000``, ``p045``, ``p050`` and
    ``p299`` in-nodes of fragment 0, 300, 255, 250 and 1 hops from its one
    virtual node ``p300``.  With ``p299`` as the target, a root is also a
    seed, at distance 0: its count is the number of snapshots, ``bound +
    1``, so a count summed in too narrow a dtype wraps and drops the entry.
    """
    graph = DiGraph.from_edges(
        [*zip(LONG_PATH, LONG_PATH[1:]), ("p329", "p000"), ("p310", "p045"),
         ("p320", "p050"), ("p305", "p299")]
    )
    assignment = {node: int(i >= 300) for i, node in enumerate(LONG_PATH)}
    return build_fragmentation(graph, assignment, 2)


class TestBoundsPastAByteCount:
    """Bounded identity where distances and snapshot counts exceed 255."""

    @pytest.mark.parametrize("bound", [254, 255, 256, 300])
    @pytest.mark.parametrize(
        "s, t", [("p000", "p299"), ("p020", "p300")], ids=["in-node-target", "virtual-target"]
    )
    def test_bounded_equations_identical(self, s, t, bound):
        fragmentation = _long_path_case()
        assert set(fragmentation[0].in_nodes) == {"p000", "p045", "p050", "p299"}
        query = BoundedReachQuery(s, t, bound)
        for fragment in fragmentation:
            _assert_identical(
                local_eval_bounded(fragment, query),
                kernel_reference.local_eval_bounded(fragment, query),
            )


class TestCompiledAutomaton:
    """The query automaton is compiled once per query, not per fragment."""

    @staticmethod
    def _counted(monkeypatch):
        calls = []
        compile_automaton = query_automaton.compile_automaton

        def counted(automaton):
            calls.append(automaton)
            return compile_automaton(automaton)

        monkeypatch.setattr(query_automaton, "compile_automaton", counted)
        return calls

    def test_one_evaluate_compiles_once(self, monkeypatch):
        graph = erdos_renyi(120, 360, seed=5, num_labels=3)
        cluster = SimulatedCluster.from_graph(graph, 8, "chunk", executor="sequential")
        queries = random_regular_queries(graph, 3, num_states=6, seed=5)
        calls = self._counted(monkeypatch)
        for count, query in enumerate(queries, start=1):
            result = evaluate(cluster, query)
            assert result.stats.visits and max(result.stats.visits.values()) == 1
            assert len(calls) == count
        # The plan compiles at the coordinator, before any fragment runs, so
        # the automaton it posts carries the tables to every worker.
        assert "compiled" in RegularReachPlan(queries[0]).automaton.__dict__

    def test_bare_local_eval_compiles_lazily_once(self, monkeypatch):
        graph, fragmentation = _fragmented(seed=4, num_nodes=30, num_edges=80, k=4)
        (query,) = random_regular_queries(graph, 1, num_states=6, seed=4)
        automaton = _automaton_of(query)
        assert "compiled" not in automaton.__dict__
        calls = self._counted(monkeypatch)
        for fragment in fragmentation:
            _assert_identical(
                local_eval_regular(fragment, automaton),
                kernel_reference.local_eval_regular(fragment, automaton),
            )
        assert calls == [automaton]

    def test_pickled_compiled_automaton_keeps_identity(self):
        compiled = QueryAutomaton.build("(L0 | L1)* . L2", "a", "b")
        plain = QueryAutomaton.build("(L0 | L1)* . L2", "a", "b")
        tables = compiled.compiled
        shipped = pickle.loads(pickle.dumps(compiled))
        assert shipped.__dict__["compiled"] == tables
        assert "compiled" not in plain.__dict__
        assert shipped == plain and hash(shipped) == hash(plain)
        assert payload_size(shipped) == payload_size(plain) == payload_size(compiled)


def _result_signature(result):
    stats = result.stats
    return (
        result.answer,
        dict(stats.visits),
        stats.traffic_bytes,
        [(m.src, m.dst, m.kind, m.size_bytes) for m in stats.messages],
        stats.supersteps,
    )


class TestClusterIdentity:
    """End-to-end: answers and modeled stats are invariant under the
    executor backend, before and after a repartition."""

    def _workload(self, seed=7):
        graph = erdos_renyi(24, 60, seed=seed, num_labels=3)
        cluster = SimulatedCluster.from_graph(graph, 3, "chunk")
        nodes = sorted(graph.nodes(), key=repr)
        queries = [
            ReachQuery(nodes[0], nodes[-1]),
            ReachQuery(nodes[1], nodes[2]),
            BoundedReachQuery(nodes[0], nodes[-1], 4),
            BoundedReachQuery(nodes[3], nodes[-2], 2),
            *random_regular_queries(graph, 2, num_states=6, seed=seed),
        ]
        return cluster, queries

    def _assert_invariant(self, cluster, queries):
        reference = [_result_signature(evaluate(cluster, q)) for q in queries]
        for kernel in available_kernels():
            for backend in BACKENDS:
                with cluster.using_executor(backend):
                    batch = BatchQueryEngine(cluster).run_batch(queries, kernel=kernel)
                got = [_result_signature(result) for result in batch.results]
                assert got == reference, (kernel, backend)
        return reference

    def test_identity_holds_across_repartition(self):
        cluster, queries = self._workload()
        before = self._assert_invariant(cluster, queries)
        cluster.repartition("refined")
        after = self._assert_invariant(cluster, queries)
        # stats legitimately move with the partition; answers never do
        assert [sig[0] for sig in after] == [sig[0] for sig in before]


class TestEvalFragmentJobs:
    def test_jobs_are_timed_and_kernel_overridable(self, turbo):
        # The kernel rides inside each job's args, exactly as a plan ships
        # it: the same job list is rebuilt per kernel name from plans.
        _, fragmentation = _fragmented(seed=11)
        nodes = sorted(fragmentation[0].nodes, key=repr)
        queries = [
            ReachQuery(nodes[0], nodes[-1]),
            BoundedReachQuery(nodes[0], nodes[-1], 3),
        ]

        def jobs_under(kernel):
            plans = [plan_for(q, options=EvalOptions(kernel=kernel)) for q in queries]
            return tuple(
                (plan.local_eval(), fragment, plan.local_eval_args())
                for plan in plans
                for fragment in fragmentation
            )

        timed = eval_fragment_jobs(jobs_under("numpy"))
        assert len(timed) == len(queries) * len(fragmentation)
        reference = [
            kernel_reference.local_eval_reach(fragment, query)
            if isinstance(query, ReachQuery)
            else kernel_reference.local_eval_bounded(fragment, query)
            for query in queries
            for fragment in fragmentation
        ]
        assert [equations for equations, _ in timed] == reference
        assert all(elapsed >= 0.0 for _, elapsed in timed)
        assert {args[1] for _, _, args in jobs_under(turbo)} == {turbo}
        rerun = eval_fragment_jobs(jobs_under(turbo))
        assert [equations for equations, _ in rerun] == reference


class TestExpKernelsShape:
    def test_rows_cover_kernels_backends_and_the_speedup_floor_row(self):
        from repro.bench.experiments import exp_kernels

        result = exp_kernels(scale=0.004, card=2, num_queries=2, seed=0)
        assert "kernel" in result.columns and "speedup" not in result.columns
        rows = result.rows
        assert {r["mode"] for r in rows} == {"evaluate"}
        evaluate_keys = {
            (r["dataset"], r["kernel"], r["backend"])
            for r in rows
            if r["mode"] == "evaluate"
        }
        assert evaluate_keys == {
            (dataset, "numpy", backend)
            for dataset in ("amazon", "youtube")
            for backend in BACKENDS
        }
        # identity inside the experiment (it also asserts this itself)
        for dataset in ("amazon", "youtube"):
            stats = {
                (r["kernel"], r["backend"]): (
                    r["answers"], r["total_visits"], r["traffic_KB"],
                    r["messages"], r["supersteps"],
                )
                for r in rows
                if r["mode"] == "evaluate" and r["dataset"] == dataset
            }
            assert len(set(stats.values())) == 1


class TestLazyNumpy:
    def test_numpy_loads_with_the_first_evaluation(self):
        """Importing the package, building the CLI parser, importing the
        broker, the server and the bench experiments, and building a
        cluster leave numpy unloaded; the first evaluation loads it."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        script = (
            "import sys\n"
            "import repro\n"
            "from repro.cli import build_parser\n"
            "build_parser()\n"
            "import repro.net.broker, repro.net.server, repro.bench.experiments\n"
            "from repro.distributed import SimulatedCluster\n"
            "from repro.workload.paper_example import figure1_fragmentation\n"
            "cluster = SimulatedCluster(figure1_fragmentation())\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported before evaluate'\n"
            "from repro.core.engine import evaluate\n"
            "from repro.core.queries import ReachQuery\n"
            "assert evaluate(cluster, ReachQuery('Ann', 'Mark')).answer\n"
            "assert 'numpy' in sys.modules, 'evaluate did not load numpy'\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        env.pop(KERNEL_ENV_VAR, None)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
