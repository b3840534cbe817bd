"""Fragments and fragmentations (paper Section 2.1).

A fragmentation ``F = (F, Gf)`` of ``G = (V, E, L)``:

* ``F = (F1, ..., Fk)`` where fragment ``Fi = (Vi ∪ Fi.O, Ei ∪ cEi, Li)``:
  - ``(V1, ..., Vk)`` partitions ``V``;
  - ``Fi.O`` ("virtual nodes") holds one placeholder for every node in
    another fragment that some node of ``Vi`` points to;
  - ``cEi`` ("cross edges") are exactly the edges from ``Vi`` into ``Fi.O``;
  - ``Fi.I`` ("in-nodes") are the nodes of ``Vi`` with an incoming cross
    edge from some other fragment.
* the fragment graph ``Gf = (Vf, Ef)`` collects every in-node, virtual node
  and cross edge — and nothing internal to any fragment.

No constraint is placed on *how* the graph is fragmented (the paper's
guarantees are partition-agnostic); :mod:`repro.partition.partitioners`
offers several strategies, and :mod:`repro.partition.validation` checks the
invariants above.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Iterator, Mapping, Optional, Sequence, Tuple

from ..errors import FragmentationError, NodeNotFound
from ..graph.digraph import DiGraph, Edge, Node


#: How each derived artifact crosses a write (DESIGN.md §8).  ``kept``:
#: carried, revalidated by ``mutation_stamp`` on use.  ``repaired``:
#: carried, and the cluster routes the edge delta into the source side's
#: copy (a new CSR view); whatever it cannot repair rebuilds on its stamp
#: mismatch.  ``dropped``: the cluster invalidates every registered holder.
CARRY = {"_csr_cache": "repaired", "serving": "dropped"}

#: Instance-dict slots holding derived, process-local caches
#: (:mod:`repro.core.csr`) — the carried rows.
_CACHE_SLOTS = tuple(slot for slot, rule in CARRY.items() if rule != "dropped")

#: The one process-wide version source: no two fragment states share a
#: version, and a retired version never comes back.
next_version = itertools.count().__next__


def _anatomy(fragment: "Fragment") -> tuple:
    return fragment.virtual_nodes, fragment.in_nodes, fragment.cross_edges


@dataclass(frozen=True)
class Fragment:
    """One fragment ``Fi``, stored at one site.

    ``local_graph`` is what the site can traverse without communication:
    the induced subgraph on ``Vi`` plus the virtual nodes and cross edges.
    Virtual nodes keep the labels of the remote nodes they stand for (the
    paper: cross edges carry "IRIs or semantic labels of the virtual
    nodes"), which regular reachability needs for state matching.

    A ``Fragment`` is one *state* of fragment ``fid``; ``version``, unique
    in the process, is its identity and every cache key reads it.  A write
    installs a successor built by :meth:`replaced`.

    ``boundary_ids`` maps every node of ``Fi.I ∪ Fi.O`` to its id in the
    fragmentation's interned ``Vf`` (:attr:`Fragmentation.boundary_ids`),
    so a site addresses the paper's |Fi.I| × |Fi.O| bit matrix without the
    table.  Derived and read-only: a write that changes ``Fi.I`` or
    ``Fi.O`` installs a new dict with them.
    """

    fid: int
    local_graph: DiGraph
    nodes: FrozenSet[Node]  # Vi
    virtual_nodes: FrozenSet[Node]  # Fi.O
    in_nodes: FrozenSet[Node]  # Fi.I
    cross_edges: Tuple[Edge, ...]  # cEi
    boundary_ids: Mapping[Node, int] = field(compare=False)
    version: int = field(default_factory=next_version, compare=False)

    @property
    def num_internal_edges(self) -> int:
        """``|Ei|`` — edges fully inside ``Vi``."""
        return self.local_graph.num_edges - len(self.cross_edges)

    @property
    def size(self) -> int:
        """``|Fi|`` = nodes + edges of the locally stored graph."""
        return self.local_graph.size

    def __contains__(self, node: Node) -> bool:
        """Membership means *ownership*: virtual nodes do not count."""
        return node in self.nodes

    def __getstate__(self) -> dict:
        """Pickle the fragment without its site-local caches.

        The instance ``__dict__`` doubles as cache storage (CSR arrays —
        see :mod:`repro.core.csr`); those are derived, process-local and
        sometimes large, so shipping a fragment to a socket broker
        sends only the declared fields.  Brokers rebuild their
        own caches lazily on first use.
        """
        state = dict(self.__dict__)
        for slot in _CACHE_SLOTS:
            state.pop(slot, None)
        return state

    def replaced(self, **changes) -> "Fragment":
        """The successor state: ``changes`` applied, a fresh version, the
        derived caches carried per :data:`CARRY`.

        :func:`dataclasses.replace` alone drops the instance-dict cache
        slots.  The carried caches are validated against ``local_graph``'s
        ``mutation_stamp`` on use: a successor whose graph did not change
        keeps them, one whose graph did rebuilds what the write left stale.
        """
        new = replace(self, version=next_version(), **changes)
        for slot in _CACHE_SLOTS:
            if slot in self.__dict__:
                object.__setattr__(new, slot, self.__dict__[slot])
        return new

    def __setstate__(self, state: dict) -> None:
        for key, value in state.items():
            object.__setattr__(self, key, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Fragment(fid={self.fid}, v{self.version}, |Vi|={len(self.nodes)}, "
            f"|Fi.I|={len(self.in_nodes)}, |Fi.O|={len(self.virtual_nodes)}, "
            f"|cEi|={len(self.cross_edges)})"
        )


#: The id of the ``true`` disjunct in every fragmentation's ``Vf`` id space.
TRUE_ID = 0


class Fragmentation:
    """A complete fragmentation: the fragments plus node placement.

    It also owns the interned ``Vf`` of disReach's equations: every in-node
    (hence every virtual node) has a dense id, ``TRUE_ID`` (0) standing for
    ``true``.  The table is append-only: :meth:`intern` mints a fresh id for
    a node that joins ``Vf`` and never hands an id to a second node, so a
    node that leaves ``Vf`` keeps its id should it come back.  Repartition
    builds a new fragmentation, and with it a new table.
    """

    def __init__(self, fragments: Sequence[Fragment], placement: Mapping[Node, int]):
        """Bind ``fragments`` to the node -> fragment-id ``placement``; the
        interned ``Vf`` is the union of the fragments' ``boundary_ids``."""
        self._fragments: Tuple[Fragment, ...] = tuple(fragments)
        self._placement: Dict[Node, int] = dict(placement)
        self._fragment_graph: Optional[DiGraph] = None
        self._boundary_ids: Dict[Node, int] = {}
        for frag in self._fragments:
            self._boundary_ids.update(frag.boundary_ids)
        self._next_id = max(self._boundary_ids.values(), default=TRUE_ID) + 1

    @property
    def fragments(self) -> Tuple[Fragment, ...]:
        """The fragments ``(F1, ..., Fk)`` in fragment-id order."""
        return self._fragments

    @property
    def placement(self) -> Mapping[Node, int]:
        """The node -> owning-fragment-id mapping the split was built from."""
        return self._placement

    @property
    def boundary_ids(self) -> Mapping[Node, int]:
        """The interned ``Vf``: node -> id (ids from 1; 0 is ``TRUE_ID``)."""
        return self._boundary_ids

    def intern(self, node: Node) -> int:
        """``node``'s ``Vf`` id, minted (never reused) if it has none yet."""
        found = self._boundary_ids.get(node)
        if found is None:
            found = self._boundary_ids[node] = self._next_id
            self._next_id += 1
        return found

    def __len__(self) -> int:
        """``card(F)`` — the number of fragments."""
        return len(self._fragments)

    def __iter__(self) -> Iterator[Fragment]:
        return iter(self._fragments)

    def __getitem__(self, fid: int) -> Fragment:
        return self._fragments[fid]

    def fragment_of(self, node: Node) -> Fragment:
        """The fragment that *owns* ``node``."""
        try:
            return self._fragments[self._placement[node]]
        except KeyError:
            raise NodeNotFound(node) from None

    def has_node(self, node: Node) -> bool:
        """Whether some fragment owns ``node``."""
        return node in self._placement

    @property
    def num_nodes(self) -> int:
        """``|V|`` — total owned nodes over all fragments."""
        return len(self._placement)

    @property
    def max_fragment_size(self) -> int:
        """``|Fm|`` — size of the largest fragment (Theorems 1–3)."""
        return max((f.size for f in self._fragments), default=0)

    @property
    def average_fragment_size(self) -> float:
        """``size(F)`` as used in the experiments (|G| / card(F))."""
        if not self._fragments:
            return 0.0
        return sum(f.size for f in self._fragments) / len(self._fragments)

    def fragment_graph(self) -> DiGraph:
        """``Gf = (Vf, Ef)``: boundary nodes and cross edges only.

        ``Vf`` holds every endpoint of a cross edge — all in-nodes, all
        virtual nodes, and the sources of outgoing cross edges (the paper's
        Fig. 2 keeps e.g. ``Bill``, a pure cross-edge source, in ``Gf``).
        """
        if self._fragment_graph is None:
            gf = DiGraph()
            for frag in self._fragments:
                for node in frag.in_nodes:
                    gf.add_node(node, frag.local_graph.label(node))
                for node in frag.virtual_nodes:
                    gf.add_node(node, frag.local_graph.label(node))
                for u, v in frag.cross_edges:
                    gf.add_node(u, frag.local_graph.label(u))
            for frag in self._fragments:
                for u, v in frag.cross_edges:
                    gf.add_edge(u, v)
            self._fragment_graph = gf
        return self._fragment_graph

    @property
    def num_boundary_nodes(self) -> int:
        """``|Vf|`` — the node count of the fragment graph."""
        return self.fragment_graph().num_nodes

    @property
    def num_cross_edges(self) -> int:
        """``|Ef|`` — total cross edges over all fragments."""
        return sum(len(f.cross_edges) for f in self._fragments)

    def replace_fragments(self, replacements: Sequence[Fragment]) -> None:
        """Swap successor :class:`Fragment` states in by fragment id.

        The install hook of every cluster write: ownership (``placement``)
        is untouched, and the cached fragment graph is dropped only when a
        replacement's boundary anatomy (``Fi.O``/``Fi.I``/``cEi``) changed.
        """
        fragments = list(self._fragments)
        for replacement in replacements:
            if not (0 <= replacement.fid < len(fragments)):
                raise FragmentationError(
                    f"no fragment {replacement.fid} in a card-{len(fragments)} "
                    "fragmentation"
                )
            if _anatomy(replacement) != _anatomy(fragments[replacement.fid]):
                self._fragment_graph = None
            fragments[replacement.fid] = replacement
        self._fragments = tuple(fragments)

    def restore_graph(self) -> DiGraph:
        """Reassemble the original global graph ``G`` from the fragments.

        Used by the ship-all baselines (disReachn etc.) after "receiving"
        every fragment at the coordinator, and by
        :meth:`~repro.distributed.cluster.SimulatedCluster.repartition` as
        the input to the new partitioner.  Nodes are inserted in
        (fragment id, repr) order — deterministic regardless of frozenset
        hash order, so order-sensitive streaming partitioners behave
        reproducibly on a restored graph.
        """
        graph = DiGraph()
        for frag in self._fragments:
            for node in sorted(frag.nodes, key=repr):
                graph.add_node(node, frag.local_graph.label(node))
        for frag in self._fragments:
            for node in sorted(frag.nodes, key=repr):
                for nxt in frag.local_graph.successors(node):
                    graph.add_edge(node, nxt, create=True)
        return graph

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Fragmentation(card={len(self)}, |V|={self.num_nodes}, "
            f"|Vf|={self.num_boundary_nodes}, |Ef|={self.num_cross_edges})"
        )
