"""Compiled-friendly fragment core: interned ids + CSR adjacency arrays.

A fragment's ``local_graph`` is ``dict``-of-``set`` adjacency with
per-node Python objects — flexible, but every hop pays hashing and
pointer chasing.  This module lowers it to the form the vectorized
kernels (:mod:`repro.core.kernels`) want:

* **interning** — every node of the local graph is assigned a dense int id
  (its index in :attr:`FragmentCSR.order`).  Ids are assigned in sorted
  ``repr`` order, the deterministic order of the equations' seeds and
  roots, so the array kernels reproduce the pure-python reference's
  outputs bit-for-bit;
* **CSR adjacency** — ``indptr``/``indices`` arrays in the standard
  compressed-sparse-row layout, per-row targets sorted by interned id;
* **label codes** — node labels interned to small ints (sorted by ``repr``;
  unlabeled nodes share the code of ``None``), which turns the regular
  algorithm's per-state label matching into one vectorized comparison;
* **the boundary prologue** — ``Fi.I`` and ``Fi.O`` as sorted interned
  rows with their modeled id sizes (:meth:`FragmentCSR.boundary`), from
  which :func:`boundary_prologue` derives one query's roots and columns by
  inserting ``s`` and ``t`` — the part of every local evaluation that does
  not depend on the query, built once per fragment state;
* **the forward cone** — the rows ``Fi.I`` reaches and the sweep plans
  restricted to them (:class:`Cone`, :meth:`FragmentCSR.cone`): a root's
  row depends only on the rows it reaches, so the kernels sweep the cone,
  not the fragment.

The adjacency is lowered in one vectorized step (one ``fromiter`` over
every successor set, one ``lexsort`` over (target, source)).

A :class:`FragmentCSR` is *derived, read-only state*: it is built lazily by
:func:`fragment_csr`, cached on the fragment, and validated against the
local graph's :attr:`~repro.graph.digraph.DiGraph.mutation_stamp` on every
access — a content check (one int compare), not an identity.  Its row of
the carry table (``partition.fragment.CARRY``) is ``repaired``:

* **every edge write** installs successor fragment states that carry the
  cache slot (:meth:`~repro.partition.fragment.Fragment.replaced`), and
  :func:`repair_view` gives the edge's source side a *new* view derived
  from its current one by the delta (:meth:`FragmentCSR.repaired`), its
  SCC partition and in-node cone carried whenever the write provably
  keeps them; a version bump, the target side of a cross edge and every
  untouched fragment keep their arrays;
* **direct** ``local_graph`` **edits** bump the stamp, so the next access
  lowers afresh even before anyone bumps the version, and no later write
  repairs a view its graph has left behind;
* **repartition** builds entirely new fragments, so old arrays simply die
  with the old objects.

Two pieces are not a function of the local graph alone: a cross-edge write
replaces the *target* fragment's ``in_nodes`` while its graph, and so its
view, stays.  The boundary prologue is therefore validated by identity
against the fragment's ``in_nodes``/``virtual_nodes`` objects (both
frozensets, replaced on change, never mutated), not by the stamp.  The
in-node cone is validated by *coverage*: a cone built for a superset of
the in-nodes is exact for any subset, so it is kept while it holds every
in-node row and rebuilt only when an in-node falls outside it.  A cone
holds no reference to its view, so retired views still die by refcount.

Imports numpy at module level, so only the kernels' function bodies
import this module: building a cluster leaves numpy unloaded.
"""

from __future__ import annotations

from bisect import bisect_right
from copy import copy
from itertools import chain
from typing import TYPE_CHECKING, Any, Dict, NamedTuple, Optional, Tuple

import numpy as np

from ..distributed.messages import payload_size
from ..graph.scc import tarjan_scc
from ..partition.fragment import TRUE_ID

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..partition.fragment import Fragment

#: Name of the per-Fragment cache slot (instance dict; dataclass is frozen).
_CACHE_SLOT = "_csr_cache"

#: ``(rows, starts, targets)``: a source-grouped subset of the CSR's edges.
SubCSR = Tuple[np.ndarray, np.ndarray, np.ndarray]
#: ``(column, edges)`` of one label code (:meth:`FragmentCSR.label_filter`).
LabelFilter = Tuple[np.ndarray, Optional[SubCSR]]


class Boundary(NamedTuple):
    """``Fi.I`` and ``Fi.O`` of one fragment state, as interned rows.

    ``in_ref``/``out_ref``/``ids_ref`` are the ``in_nodes``/
    ``virtual_nodes``/``boundary_ids`` objects it was built from (the
    identity :meth:`FragmentCSR.boundary` checks); rows ascend, so the node
    tuples are in the kernels' ``repr`` order.  ``in_ids``/``out_ids`` are
    the nodes' ``Vf`` ids (``Fragment.boundary_ids``), aligned with the
    rows.
    """

    in_ref: Any
    out_ref: Any
    ids_ref: Any
    in_rows: np.ndarray
    in_nodes: Tuple[Any, ...]
    in_bytes: int
    in_ids: np.ndarray
    out_rows: np.ndarray
    out_nodes: Tuple[Any, ...]
    out_bytes: np.ndarray
    out_ids: np.ndarray


class Prologue(NamedTuple):
    """One query's roots (``iset``) and columns (``oset``) on one fragment.

    ``row_bytes`` sums the roots' modeled id sizes; ``col_bytes`` holds one
    per column (``int64``).  ``columns`` are nodes, except that the target
    becomes the caller's token when one is given.  ``root_ids``/``col_ids``
    are their ``Vf`` ids: ``-1`` for a local endpoint outside ``Vf``, and
    ``TRUE_ID`` for the token's column.
    """

    roots: Tuple[Any, ...]
    root_rows: np.ndarray
    row_bytes: int
    root_ids: np.ndarray
    columns: Tuple[Any, ...]
    seed_rows: np.ndarray
    col_bytes: np.ndarray
    col_ids: np.ndarray


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
        node_bytes: ``int64[V]`` modeled id size (``payload_size``) per node,
            built on first use.
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
        "_node_bytes",
        "_boundary",
        "_cone",
        "_whole",
    )

    def __init__(self, graph: Any) -> None:
        """Lower ``graph`` (a :class:`~repro.graph.digraph.DiGraph`)."""
        order = sorted(graph.nodes(), key=repr)
        index = {node: i for i, node in enumerate(order)}
        num_nodes = len(order)
        # One pass over the successor sets in row order, then one lexsort
        # over (target, source) sorts every row by interned id at once.
        successor_sets = list(map(graph.successors, order))
        degrees = np.fromiter(map(len, successor_sets), dtype=np.int64, count=num_nodes)
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        targets = np.fromiter(
            map(index.__getitem__, chain.from_iterable(successor_sets)),
            dtype=np.int64,
            count=int(indptr[-1]),
        )
        sources = np.repeat(np.arange(num_nodes, dtype=np.int64), degrees)
        indices = targets.take(np.lexsort((targets, sources)))

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
        self._node_bytes: Optional[np.ndarray] = None
        self._boundary: Optional[Boundary] = None
        self._cone: Optional[Cone] = None
        self._whole: Optional[Cone] = None

    @property
    def num_nodes(self) -> int:
        """``V`` — row count of the CSR matrix."""
        return len(self.order)

    @property
    def num_edges(self) -> int:
        """``E`` — entry count of the CSR matrix."""
        return int(self.indices.shape[0])

    @property
    def node_bytes(self) -> np.ndarray:
        """``int64[V]``: each node's modeled id size, cached like
        :meth:`condensation`."""
        if self._node_bytes is None:
            self._node_bytes = np.fromiter(
                map(payload_size, self.order), dtype=np.int64, count=self.num_nodes
            )
        return self._node_bytes

    def boundary(self, fragment: "Fragment") -> Boundary:
        """The (cached) :class:`Boundary` of ``fragment``, whose local graph
        this view lowers.

        Rebuilt when ``fragment.in_nodes``, ``fragment.virtual_nodes`` or
        ``fragment.boundary_ids`` is not the object it was built from: a
        cross-edge write keeps the target side's view but gives it a new
        ``in_nodes``.
        """
        cached = self._boundary
        if (
            cached is not None
            and cached.in_ref is fragment.in_nodes
            and cached.out_ref is fragment.virtual_nodes
            and cached.ids_ref is fragment.boundary_ids
        ):
            return cached
        order, node_bytes, ids = self.order, self.node_bytes, fragment.boundary_ids

        def rows_of(nodes: Any) -> Tuple[np.ndarray, Tuple[Any, ...], np.ndarray]:
            rows = np.sort(
                np.fromiter(map(self.index.__getitem__, nodes), dtype=np.int64, count=len(nodes))
            )
            ordered = tuple(map(order.__getitem__, rows.tolist()))
            return rows, ordered, np.fromiter(
                map(ids.__getitem__, ordered), dtype=np.int64, count=len(ordered)
            )

        in_rows, in_nodes, in_ids = rows_of(fragment.in_nodes)
        out_rows, out_nodes, out_ids = rows_of(fragment.virtual_nodes)
        cached = Boundary(
            fragment.in_nodes,
            fragment.virtual_nodes,
            ids,
            in_rows,
            in_nodes,
            int(node_bytes.take(in_rows).sum()),
            in_ids,
            out_rows,
            out_nodes,
            node_bytes.take(out_rows),
            out_ids,
        )
        self._boundary = cached
        return cached

    def whole_cone(self) -> "Cone":
        """The (cached) whole-fragment :class:`Cone`: today's plans as is."""
        if self._whole is None:
            self._whole = Cone(None)
        return self._whole

    def cone(self, roots: np.ndarray) -> "Cone":
        """The (cached) forward :class:`Cone` of the in-node rows ``roots``.

        Validated by *coverage*, not identity: a cone built for a superset
        of ``roots`` is exact for ``roots`` too, so a cross-edge write that
        removes an in-node, or adds one the cone already holds, keeps it;
        only an in-node outside it builds a new one.  A closure that covers
        every row is the :meth:`whole_cone`.  One cone per view, never grown
        for a query's source (:func:`boundary_prologue` falls back to the
        whole-fragment cone instead).
        """
        cached = self._cone
        if cached is None or not cached.covers(roots):
            mask = forward_closure(self, roots)
            cached = self.whole_cone() if mask.all() else Cone(mask)
            self._cone = cached
        return cached

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

    def repaired(self, graph: Any, u: Any, v: Any, added: bool) -> Optional["FragmentCSR"]:
        """The view of ``graph`` after the edge write ``(u, v, added)``,
        derived from this one by the delta; ``None`` when it cannot be.

        This view must be current just before the write: its stamp plus
        the write's bumps (the edge, and a virtual ``v`` that appears or
        disappears) is the graph's.  The edge is one ``indices`` entry with
        the ``indptr`` tail shifted; a virtual node one row at its ``repr``
        position, later ids shifted by one compare (``None`` if its label
        enters or leaves the fragment: every code would move).  The
        condensation and in-node cone carry over (their ``repaired``); every
        other plan starts unbuilt.  This view's arrays are never touched.
        """
        order, index, indptr, indices = self.order, self.index, self.indptr, self.indices
        codes, sizes = self.label_codes, self._node_bytes
        row = index.get(v)
        grown = row is None
        dropped = not grown and not graph.has_node(v)
        if graph.mutation_stamp != self.stamp + 1 + (grown or dropped):
            return None
        if grown:
            code = self.label_index.get(graph.label(v))
            if code is None:
                return None
            row = bisect_right(order, repr(v), key=repr)
            order = (*order[:row], v, *order[row:])
            indptr = np.insert(indptr, row, indptr[row])
            indices = indices + (indices >= row)
            codes = np.insert(codes, row, code)
            if sizes is not None:
                sizes = np.insert(sizes, row, payload_size(v))
        elif dropped and np.count_nonzero(codes == codes[row]) == 1:
            return None
        tail = index[u] + (grown and index[u] >= row)
        lo, hi = int(indptr[tail]), int(indptr[tail + 1])
        at = lo + int(np.searchsorted(indices[lo:hi], row))
        indices = np.insert(indices, at, row) if added else np.delete(indices, at)
        indptr = np.concatenate((indptr[: tail + 1], indptr[tail + 1 :] + (1 if added else -1)))
        if dropped:
            order = (*order[:row], *order[row + 1 :])
            indptr = np.delete(indptr, row)  # the row is empty: either bound goes
            indices -= indices > row
            codes = np.delete(codes, row)
            if sizes is not None:
                sizes = np.delete(sizes, row)
        if grown or dropped:
            index = dict(zip(order, range(len(order))))
        new = copy(self)  # shares labels and label_index, the rest is reset
        new.order, new.index, new.indptr, new.indices = order, index, indptr, indices
        new.label_codes, new._node_bytes, new.stamp = codes, sizes, graph.mutation_stamp
        new._rows = new._boundary = new._whole = None
        new._labels = {}
        shift = grown - dropped
        new._cond = self._cond and self._cond.repaired(new, tail, row, added, shift)
        new._cone = self._cone and self._cone.repaired(new, tail, row, added, shift)
        return new

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
        """Condense ``csr``: Tarjan over interned ids, then :meth:`_derive`."""
        indptr_list, indices_list = csr.indptr.tolist(), csr.indices.tolist()

        def successors(i: int) -> list:
            return indices_list[indptr_list[i] : indptr_list[i + 1]]

        # Emission order is reverse-topological: successors come earlier.
        components = tarjan_scc(range(csr.num_nodes), successors)
        sizes = np.fromiter(map(len, components), dtype=np.int64, count=len(components))
        members = np.fromiter(chain.from_iterable(components), dtype=np.int64, count=csr.num_nodes)
        raw = np.empty(csr.num_nodes, dtype=np.int64)
        raw[members] = np.repeat(np.arange(len(components), dtype=np.int64), sizes)
        self._derive(csr, raw, len(components))

    def _derive(self, csr: FragmentCSR, raw: np.ndarray, num_comps: int) -> None:
        """Everything else from the SCC partition ``raw`` (a component id
        in ``0:num_comps`` per row): the exact DAG edges, longest-path
        levels, the renumbering by (level, raw id) and the schedule."""
        edge_src = raw.repeat(np.diff(csr.indptr))
        edge_dst = raw.take(csr.indices)
        cross = edge_src != edge_dst
        packed = np.unique(edge_src[cross] * num_comps + edge_dst[cross])
        tails, heads = np.divmod(packed, num_comps)

        # Longest path to a sink, one edge further per round until fixed:
        # fewer than num_comps rounds, unless raw is no SCC partition.
        levels = np.zeros(num_comps, dtype=np.int64)
        for _ in range(num_comps + 1):
            reach = np.zeros(num_comps, dtype=np.int64)
            np.maximum.at(reach, tails, levels.take(heads) + 1)
            if not (reach > levels).any():
                break
            np.maximum(levels, reach, out=levels)
        else:
            raise AssertionError("the component DAG has a cycle")

        rank = np.empty(num_comps, dtype=np.int64)
        rank[np.lexsort((np.arange(num_comps), levels))] = np.arange(num_comps)
        tails, heads = rank.take(tails), rank.take(heads)
        cindptr = np.zeros(num_comps + 1, dtype=np.int64)
        np.cumsum(np.bincount(tails, minlength=num_comps), out=cindptr[1:])
        cindices = np.sort(tails * num_comps + heads) % num_comps
        num_levels = int(levels.max()) + 1 if num_comps else 0
        level_ptr = np.zeros(num_levels + 1, dtype=np.int64)
        np.cumsum(np.bincount(levels, minlength=num_levels), out=level_ptr[1:])

        bounds = level_ptr.tolist()
        self.comp = rank.take(raw)
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

    def repaired(
        self, csr: FragmentCSR, tail: int, head: int, added: bool, shift: int
    ) -> Optional["CSRCondensation"]:
        """The condensation of ``csr``, the :meth:`FragmentCSR.repaired`
        view of this one's view after the edge ``tail -> head``
        (``shift``: +1 when ``head`` is a new row, -1 when its row left).

        The SCC partition carries whenever the write provably keeps it: a
        virtual sink that appears or disappears, an add whose head
        component cannot reach the tail's, a remove between components;
        :meth:`_derive` does the rest.  An add inside one component, or
        along an existing DAG edge, changes nothing: this object is kept.
        A cycle-closing add and a remove inside one component give
        ``None``, so Tarjan runs again.
        """
        comp = self.comp
        if shift > 0:
            raw = np.insert(comp + 1, head, 0)  # the new sink is component 0
        elif shift < 0:
            raw = np.delete(comp, head)
            raw -= raw > comp[head]
        else:
            ct, ch = int(comp[tail]), int(comp[head])
            if ct == ch:
                return self if added else None
            if added:
                lo, hi = self.cindptr[ct], self.cindptr[ct + 1]
                if (self.cindices[lo:hi] == ch).any():
                    return self  # the DAG edge is there already
                # Ids ascend with level, and a component reaches only lower
                # ones; a path from head back to tail never uses the edge.
                if ch > ct and forward_closure(csr, [head])[tail]:
                    return None
            raw = comp
        cond = CSRCondensation.__new__(CSRCondensation)
        cond._derive(csr, raw, self.num_comps + shift)
        return cond


def _concat_segments(
    indices: np.ndarray, lo: np.ndarray, lengths: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(starts, targets)``: the segments ``indices[lo[i] : lo[i] +
    lengths[i]]`` concatenated in order, and each one's offset into them."""
    ends = np.cumsum(lengths)
    starts = ends - lengths
    total = int(ends[-1]) if ends.size else 0
    return starts, indices.take(np.repeat(lo - starts, lengths) + np.arange(total))


def forward_closure(csr: FragmentCSR, roots: np.ndarray) -> np.ndarray:
    """``bool[V]``: the rows reachable from the rows ``roots``, roots included.

    A frontier BFS over ``indptr``/``indices``: each round gathers every
    frontier row's successors in one ``take`` and keeps the unmarked ones.
    """
    indptr, indices = csr.indptr, csr.indices
    mask = np.zeros(csr.num_nodes, dtype=bool)
    frontier = np.unique(roots)
    mask[frontier] = True
    while frontier.size:
        lo = indptr.take(frontier)
        _, reached = _concat_segments(indices, lo, indptr.take(frontier + 1) - lo)
        frontier = np.unique(reached[~mask.take(reached)])
        mask[frontier] = True
    return mask


#: Marks a :class:`Cone` plan not built yet (``None`` is a valid plan).
_UNBUILT: Any = object()


class Cone:
    """The forward cone of a set of root rows and the sweeps restricted to it.

    A root's row depends only on the rows the root reaches, and those rows'
    successors are in the cone again, so sweeping only the cone computes
    every root row exactly as a whole-fragment sweep does.  ``mask`` is the
    cone's ``bool[V]`` rows, ``None`` for the whole fragment.  The plans are
    query-independent and built lazily, once each:

    * :meth:`schedule` — the condensation schedule restricted to cone
      components, ``(ids, starts, segment)`` per level, empty levels
      skipped: components ``ids`` absorb ``bitwise_or.reduceat(
      bits[segment], starts)``;
    * :meth:`edges` — the nonempty-row :data:`SubCSR` of cone source rows;
    * :meth:`label_edges` — each label's :meth:`FragmentCSR.label_filter`
      sub-CSR restricted the same way, per code.

    The whole-fragment cone hands back the view's own plans: the
    condensation's schedule with slices for ``ids``, ``nonempty_rows()``
    over ``indices``, and ``label_filter``.

    A cone holds no reference to its view: the view caches the cone, so a
    back-reference would be a cycle that keeps a retired view alive past
    its refcount.  The plan methods therefore take the view (or its
    condensation) as an argument, and must be given the one the cone was
    built for.
    """

    __slots__ = ("mask", "_schedule", "_edges", "_labels")

    def __init__(self, mask: Optional[np.ndarray]) -> None:
        self.mask = mask
        self._schedule: Optional[Tuple[Tuple[Any, np.ndarray, np.ndarray], ...]] = None
        self._edges: Any = _UNBUILT
        self._labels: Dict[Optional[int], Optional[SubCSR]] = {}

    def repaired(
        self, csr: FragmentCSR, tail: int, head: int, added: bool, shift: int
    ) -> "Cone":
        """This cone on ``csr`` (as :meth:`CSRCondensation.repaired`), rows
        remapped, grown only by the closure of a head it newly reaches, plans
        unbuilt.  A remove keeps it: a forward-closed superset of the roots'
        cone sweeps their rows exactly."""
        if self.mask is None:
            return csr.whole_cone()
        if shift < 0:
            mask = np.delete(self.mask, head)
        else:
            mask = np.insert(self.mask, head, False) if shift else self.mask
            if added and mask[tail] and not mask[head]:
                mask = mask | forward_closure(csr, [head])
        return csr.whole_cone() if mask.all() else Cone(mask)

    def covers(self, rows: Any) -> bool:
        """Do the rows ``rows`` (an int or an int array) all lie in the cone?"""
        return self.mask is None or bool(self.mask.take(rows).all())

    def schedule(
        self, cond: "CSRCondensation"
    ) -> Tuple[Tuple[Any, np.ndarray, np.ndarray], ...]:
        """``(ids, starts, segment)`` per condensation level with cone
        components, ascending; ``ids`` is a slice on the whole fragment."""
        if self._schedule is None:
            if self.mask is None:
                plan = [
                    (slice(c0, c1), starts, segment)
                    for c0, c1, segment, starts in cond.schedule
                ]
            else:
                inside = np.zeros(cond.num_comps, dtype=bool)
                inside[cond.comp[self.mask]] = True
                plan = []
                for c0, c1, _, _ in cond.schedule:
                    ids = c0 + np.flatnonzero(inside[c0:c1])
                    if ids.size:
                        lo = cond.cindptr.take(ids)
                        starts, segment = _concat_segments(
                            cond.cindices, lo, cond.cindptr.take(ids + 1) - lo
                        )
                        plan.append((ids, starts, segment))
            self._schedule = tuple(plan)
        return self._schedule

    def edges(self, csr: FragmentCSR) -> Optional[SubCSR]:
        """``(rows, starts, targets)`` of every edge out of a cone row;
        ``None`` when there is none."""
        if self._edges is _UNBUILT:
            rows, starts = csr.nonempty_rows()
            self._edges = self.restrict((rows, starts, csr.indices) if rows.size else None)
        return self._edges

    def label_edges(self, csr: FragmentCSR, code: Optional[int]) -> Optional[SubCSR]:
        """:meth:`FragmentCSR.label_filter`'s sub-CSR of ``code``, restricted
        to cone source rows."""
        found = self._labels.get(code, _UNBUILT)
        if found is _UNBUILT:
            found = self._labels[code] = self.restrict(csr.label_filter(code)[1])
        return found

    def restrict(self, sub: Optional[SubCSR]) -> Optional[SubCSR]:
        """``sub`` with only its cone source rows (``None`` if none is left)."""
        if sub is None or self.mask is None:
            return sub
        rows, starts, targets = sub
        keep = self.mask.take(rows)
        if keep.all():
            return sub
        if not keep.any():
            return None
        lengths = np.diff(starts, append=targets.size)
        kept_starts, kept_targets = _concat_segments(targets, starts[keep], lengths[keep])
        return rows[keep], kept_starts, kept_targets


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


def repair_view(fragment: "Fragment", u: Any, v: Any, added: bool) -> None:
    """Install on ``fragment``, the source side of the applied edge write
    ``(u, v, added)``, the :meth:`FragmentCSR.repaired` view of its carried
    one; left alone (the stamp check then lowers afresh) when there is
    none."""
    cached = fragment.__dict__.get(_CACHE_SLOT)
    if cached is not None:
        repaired = cached.repaired(fragment.local_graph, u, v, added)
        if repaired is not None:
            object.__setattr__(fragment, _CACHE_SLOT, repaired)


def _insert(array: np.ndarray, at: int, value: Any) -> np.ndarray:
    """``np.insert(array, at, value)`` for a 1-D array, without its
    general-axis overhead (several times the copy at prologue sizes)."""
    out = np.empty(array.size + 1, dtype=array.dtype)
    out[:at] = array[:at]
    out[at] = value
    out[at + 1 :] = array[at:]
    return out


def boundary_prologue(
    fragment: "Fragment", source: Any, target: Any, token: Any = None
) -> Tuple[FragmentCSR, Cone, Prologue]:
    """The view of ``fragment``, the :class:`Cone` to sweep and one query's
    :class:`Prologue` on it.

    Roots are ``Fi.I`` plus ``source`` when it is stored here; columns are
    ``Fi.O`` plus ``target`` when it is stored here.  Both come from the
    cached :meth:`FragmentCSR.boundary`, the endpoints inserted by
    ``searchsorted`` so every order stays the kernels' ``repr`` order.
    With a ``token`` (``TRUE`` or ``TARGET``), the target's column — local
    or virtual — becomes the token, charged at the token's size, with id
    ``TRUE_ID``.  A local source that is no in-node is outside ``Vf``: its
    row's id is ``-1``.  The cone is the view's in-node cone, or the
    whole-fragment cone when ``source`` is an extra root outside it.
    """
    csr = fragment_csr(fragment)
    found = csr.boundary(fragment)
    cone = csr.cone(found.in_rows)
    roots, root_rows, row_bytes = found.in_nodes, found.in_rows, found.in_bytes
    root_ids = found.in_ids
    if source in fragment.nodes and source not in fragment.in_nodes:
        row = csr.index[source]
        if not cone.covers(row):
            cone = csr.whole_cone()
        at = int(np.searchsorted(root_rows, row))
        roots = (*roots[:at], source, *roots[at:])
        root_rows = _insert(root_rows, at, row)
        row_bytes += int(csr.node_bytes[row])
        root_ids = _insert(root_ids, at, -1)
    columns, seed_rows, col_bytes = found.out_nodes, found.out_rows, found.out_bytes
    col_ids = found.out_ids
    row = csr.index.get(target)
    if row is not None:
        at = int(np.searchsorted(seed_rows, row))
        if target in fragment.nodes:
            columns = (*columns[:at], target, *columns[at:])
            seed_rows = _insert(seed_rows, at, row)
            col_bytes = _insert(col_bytes, at, csr.node_bytes[row])
            col_ids = _insert(col_ids, at, fragment.boundary_ids.get(target, -1))
        if token is not None:
            columns = (*columns[:at], token, *columns[at + 1 :])
            col_bytes = col_bytes.copy()
            col_bytes[at] = payload_size(token)
            col_ids = col_ids.copy()
            col_ids[at] = TRUE_ID
    return csr, cone, Prologue(
        roots, root_rows, row_bytes, root_ids, columns, seed_rows, col_bytes, col_ids
    )


def cached_csr(fragment: "Fragment") -> "FragmentCSR | None":
    """The cached arrays of ``fragment`` if present *and current*, else None.

    Introspection helper for tests and diagnostics; never builds.
    """
    cached = fragment.__dict__.get(_CACHE_SLOT)
    if cached is not None and cached.stamp == fragment.local_graph.mutation_stamp:
        return cached
    return None
