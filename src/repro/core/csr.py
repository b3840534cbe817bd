"""Compiled-friendly fragment core: interned ids + CSR adjacency arrays.

The pure-python local-evaluation kernels walk ``dict``-of-``set`` adjacency
with per-node Python objects — flexible, but every hop pays hashing and
pointer chasing.  This module lowers a fragment's ``local_graph`` to the
form vectorized (and jitted) kernels want:

* **interning** — every node of the local graph is assigned a dense int id
  (its index in :attr:`FragmentCSR.order`).  Ids are assigned in sorted
  ``repr`` order, the same deterministic order the python kernels already
  use for seeds and roots, so array kernels reproduce their outputs
  bit-for-bit;
* **CSR adjacency** — ``indptr``/``indices`` arrays in the standard
  compressed-sparse-row layout, per-row targets sorted by interned id;
* **label codes** — node labels interned to small ints (sorted by ``repr``;
  unlabeled nodes share the code of ``None``), which turns the regular
  algorithm's per-state label matching into one vectorized comparison.

A :class:`FragmentCSR` is *derived, read-only state*: it is built lazily by
:func:`fragment_csr`, cached on the fragment, and validated against the
local graph's :attr:`~repro.graph.digraph.DiGraph.mutation_stamp` on every
access — a content check (one int compare), not an identity.  Its row of
the carry table (``partition.fragment.CARRY``) is ``kept``:

* **every write** installs successor fragment states that carry the cache
  slot (:meth:`~repro.partition.fragment.Fragment.replaced`): the edge's
  source side changed its graph, so its view fails the stamp check and
  rebuilds; a version bump, the target side of a cross edge and every
  untouched fragment keep their arrays;
* **direct** ``local_graph`` **edits** bump the stamp, so the next access
  rebuilds even before anyone bumps the version;
* **repartition** builds entirely new fragments, so old arrays simply die
  with the old objects.

Requires numpy (an optional dependency — the pure-python kernels never
import this module); :func:`~repro.core.kernels.kernel_available` gates it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

import numpy as np

from ..graph.scc import tarjan_scc

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..partition.fragment import Fragment

#: Name of the per-Fragment cache slot (instance dict; dataclass is frozen).
_CACHE_SLOT = "_csr_cache"

#: ``(rows, starts, targets)``: a source-grouped subset of the CSR's edges.
SubCSR = Tuple[np.ndarray, np.ndarray, np.ndarray]
#: ``(column, edges)`` of one label code (:meth:`FragmentCSR.label_filter`).
LabelFilter = Tuple[np.ndarray, Optional[SubCSR]]


class FragmentCSR:
    """Int-array view of one fragment's local graph.

    Attributes:
        order: node objects in interned-id order (``order[i]`` has id ``i``);
            sorted by ``repr`` — the kernels' canonical deterministic order.
        index: node object -> interned id (inverse of ``order``).
        indptr: ``int64[V + 1]`` CSR row offsets.
        indices: ``int64[E]`` CSR column (successor) ids, sorted per row.
        label_codes: ``int64[V]`` interned label code per node.
        labels: label objects in code order (``labels[c]`` has code ``c``).
        label_index: label object -> code (inverse of ``labels``).
        stamp: the local graph's ``mutation_stamp`` when this was built.
    """

    __slots__ = (
        "order",
        "index",
        "indptr",
        "indices",
        "label_codes",
        "labels",
        "label_index",
        "stamp",
        "_cond",
        "_rows",
        "_labels",
    )

    def __init__(self, graph: Any) -> None:
        """Lower ``graph`` (a :class:`~repro.graph.digraph.DiGraph`)."""
        order = sorted(graph.nodes(), key=repr)
        index = {node: i for i, node in enumerate(order)}
        num_nodes = len(order)
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        cols = []
        for i, node in enumerate(order):
            row = sorted(index[succ] for succ in graph.successors(node))
            cols.extend(row)
            indptr[i + 1] = indptr[i] + len(row)
        indices = np.asarray(cols, dtype=np.int64)

        label_of = graph.label
        labels = sorted({label_of(node) for node in order}, key=repr)
        label_index = {label: code for code, label in enumerate(labels)}
        label_codes = np.fromiter(
            (label_index[label_of(node)] for node in order),
            dtype=np.int64,
            count=num_nodes,
        )

        self.order: Tuple[Any, ...] = tuple(order)
        self.index: Dict[Any, int] = index
        self.indptr = indptr
        self.indices = indices
        self.label_codes = label_codes
        self.labels: Tuple[Any, ...] = tuple(labels)
        self.label_index: Dict[Any, int] = label_index
        self.stamp: int = graph.mutation_stamp
        self._cond: Optional["CSRCondensation"] = None
        self._rows: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._labels: Dict[Optional[int], LabelFilter] = {}

    @property
    def num_nodes(self) -> int:
        """``V`` — row count of the CSR matrix."""
        return len(self.order)

    @property
    def num_edges(self) -> int:
        """``E`` — entry count of the CSR matrix."""
        return int(self.indices.shape[0])

    def condensation(self) -> "CSRCondensation":
        """The (cached) level-ordered SCC condensation of the CSR view.

        Query-*independent* derived state, so it shares this CSR's
        lifetime/invalidation: built on first use, reused by every
        reachability sweep over the same fragment version.  (The python
        reference recomputes its Tarjan condensation per call — caching it
        here is a large share of the vectorized kernels' speedup.)
        """
        if self._cond is None:
            self._cond = CSRCondensation(self)
        return self._cond

    def label_filter(self, code: Optional[int]) -> LabelFilter:
        """``(column, edges)`` of label code ``code`` (``None`` = wildcard).

        ``column`` is ``bool[V]``: does row ``v`` carry the label (all-true
        for the wildcard)?  ``edges`` is :meth:`edges_into` of that column —
        the only graph edges a product transition into a state with this
        label can follow.  Both depend on the label alone, not on the
        automaton or the position that asks, so the cache holds at most
        ``len(labels) + 1`` entries however many distinct regular queries
        run; it shares this CSR's lifetime like :meth:`condensation`.  The
        returned arrays are shared: treat them as read-only.
        """
        cached = self._labels.get(code)
        if cached is None:
            if code is None:
                column = np.ones(self.num_nodes, dtype=bool)
            else:
                column = self.label_codes == code
            cached = (column, self.edges_into(column))
            self._labels[code] = cached
        return cached

    def edges_into(self, column: np.ndarray) -> Optional[SubCSR]:
        """``(rows, starts, targets)``: the sub-CSR of edges into ``column``.

        ``targets`` lists, in CSR order, every edge target ``w`` with
        ``column[w]``; ``rows`` are the source rows keeping at least one
        such edge and ``starts`` their segment offsets into ``targets`` —
        exactly the ``reduceat`` boundaries of a gather over ``targets``.
        ``None`` when no edge qualifies.
        """
        keep = column.take(self.indices)
        targets = self.indices[keep]
        if not targets.size:
            return None
        kept_before = np.zeros(self.num_edges + 1, dtype=np.int64)
        np.cumsum(keep, out=kept_before[1:])
        offsets = kept_before[self.indptr]
        rows = np.flatnonzero(np.diff(offsets))
        return rows, offsets[rows], targets

    def nonempty_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, starts)``: rows with >= 1 successor and their offsets.

        Cached like :meth:`condensation`.  ``starts`` are the rows' CSR
        offsets — exactly the ``reduceat`` segment boundaries for a gather
        over the full ``indices`` array, since skipped rows contribute no
        edges between consecutive segments.
        """
        if self._rows is None:
            out_degrees = np.diff(self.indptr)
            rows = np.flatnonzero(out_degrees)
            self._rows = (rows, self.indptr[rows])
        return self._rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FragmentCSR(V={self.num_nodes}, E={self.num_edges}, stamp={self.stamp})"


class CSRCondensation:
    """Level-ordered SCC condensation of a :class:`FragmentCSR`.

    Components are renumbered so that ids ascend with *dataflow level*:
    level 0 holds the condensation's sinks, and every component's
    successors sit at strictly lower levels (so strictly lower ids within
    earlier ``level_ptr`` ranges).  A reachability sweep then needs exactly
    one pass: process levels in ascending order and every gather reads
    already-final rows — the vectorized analog of the python reference's
    reverse-topological Tarjan sweep, touching each condensation edge once
    instead of once per Jacobi round.

    Attributes:
        comp: ``int64[V]`` renumbered component id per node row.
        num_comps: ``C`` — component count.
        level_ptr: ``int64[L + 1]`` component-id boundaries per level.
        cindptr: ``int64[C + 1]`` component-DAG CSR offsets.
        cindices: ``int64[·]`` deduplicated successor component ids
            (every successor of a level-``l`` component has level < ``l``).
        schedule: the sweep's gather plan, one ``(c0, c1, segment,
            starts)`` per level ``>= 1`` in ascending order — components
            ``c0:c1`` absorb ``bitwise_or.reduceat(bits[segment], starts)``.
            Query-independent, so built once here rather than per sweep.
    """

    __slots__ = ("comp", "num_comps", "level_ptr", "cindptr", "cindices", "schedule")

    def __init__(self, csr: FragmentCSR) -> None:
        """Condense ``csr`` (Tarjan over interned ids + level numbering)."""
        num_nodes = csr.num_nodes
        indptr, indices = csr.indptr, csr.indices
        indptr_list = indptr.tolist()
        indices_list = indices.tolist()

        def successors(i: int) -> list:
            return indices_list[indptr_list[i] : indptr_list[i + 1]]

        # Emission order is reverse-topological: successors come earlier.
        components = tarjan_scc(range(num_nodes), successors)
        num_comps = len(components)
        raw = np.empty(num_nodes, dtype=np.int64)
        for cid, members in enumerate(components):
            for member in members:
                raw[member] = cid

        # Deduplicated component-DAG edges, vectorized over the CSR arrays.
        successor_lists: list = [[] for _ in range(num_comps)]
        if indices.size:
            edge_src_comp = raw[np.repeat(np.arange(num_nodes), np.diff(indptr))]
            edge_dst_comp = raw[indices]
            cross = edge_src_comp != edge_dst_comp
            packed = np.unique(edge_src_comp[cross] * num_comps + edge_dst_comp[cross])
            for a, b in zip((packed // num_comps).tolist(), (packed % num_comps).tolist()):
                successor_lists[a].append(b)  # b < a by emission order

        # Longest-path level, computable in one emission-order pass.
        levels = [0] * num_comps
        for cid in range(num_comps):
            if successor_lists[cid]:
                levels[cid] = 1 + max(levels[b] for b in successor_lists[cid])

        order = sorted(range(num_comps), key=lambda cid: (levels[cid], cid))
        rank = [0] * num_comps
        for new_id, cid in enumerate(order):
            rank[cid] = new_id
        rank_arr = np.asarray(rank, dtype=np.int64)

        cindptr = np.zeros(num_comps + 1, dtype=np.int64)
        cols: list = []
        for new_id, cid in enumerate(order):
            row = sorted(rank[b] for b in successor_lists[cid])
            cols.extend(row)
            cindptr[new_id + 1] = cindptr[new_id] + len(row)

        num_levels = (max(levels) + 1) if num_comps else 0
        level_counts = np.bincount(
            [levels[cid] for cid in order], minlength=num_levels
        )
        level_ptr = np.zeros(num_levels + 1, dtype=np.int64)
        np.cumsum(level_counts, out=level_ptr[1:])

        cindices = np.asarray(cols, dtype=np.int64)
        bounds = level_ptr.tolist()
        self.comp = rank_arr[raw]
        self.num_comps = num_comps
        self.level_ptr = level_ptr
        self.cindptr = cindptr
        self.cindices = cindices
        # Every component at level >= 1 has a successor, so each segment is
        # non-empty and the starts strictly ascend, as reduceat requires.
        self.schedule: Tuple[Tuple[int, int, np.ndarray, np.ndarray], ...] = tuple(
            (
                c0,
                c1,
                cindices[cindptr[c0] : cindptr[c1]],
                cindptr[c0:c1] - cindptr[c0],
            )
            for c0, c1 in zip(bounds[1:-1], bounds[2:])
        )


def fragment_csr(fragment: "Fragment") -> FragmentCSR:
    """The (cached) :class:`FragmentCSR` of ``fragment``'s local graph.

    Built at most once per graph mutation stamp: the cache lives in the
    frozen dataclass's instance dict (installed with
    ``object.__setattr__``, carried to successor states by
    :meth:`~repro.partition.fragment.Fragment.replaced`) and is
    revalidated against the live graph's
    ``mutation_stamp`` on every call, so a stale view is never returned —
    the regression contract of ``apply_edge_mutation``.
    """
    graph = fragment.local_graph
    cached = fragment.__dict__.get(_CACHE_SLOT)
    if cached is not None and cached.stamp == graph.mutation_stamp:
        return cached
    csr = FragmentCSR(graph)
    object.__setattr__(fragment, _CACHE_SLOT, csr)
    return csr


def cached_csr(fragment: "Fragment") -> "FragmentCSR | None":
    """The cached arrays of ``fragment`` if present *and current*, else None.

    Introspection helper for tests and diagnostics; never builds.
    """
    cached = fragment.__dict__.get(_CACHE_SLOT)
    if cached is not None and cached.stamp == fragment.local_graph.mutation_stamp:
        return cached
    return None
