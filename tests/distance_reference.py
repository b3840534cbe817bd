"""Reference distance oracles: an independent check on ``localEvald``.

The paper notes that local evaluation cost can be cut "e.g., with constant
time via a distance matrix".  :class:`DistanceMatrixOracle` precomputes
all-pairs BFS distances of a fragment-local graph once and answers lookups
in O(1); :class:`BFSDistanceOracle` is the index-free default.
:func:`oracle_terms` rebuilds one fragment's min-plus equations from
either, so tests can compare them against
:func:`repro.core.bounded.local_eval_bounded`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Optional, Tuple, Type

from repro.core.minplus import TARGET, Term
from repro.core.queries import BoundedReachQuery
from repro.graph.digraph import DiGraph, Node
from repro.graph.traversal import bfs_distance, bfs_distances
from repro.partition.fragment import Fragment


class DistanceOracle(ABC):
    """Answers ``dist(u, v)`` questions on one fixed graph."""

    def __init__(self, graph: DiGraph) -> None:
        self.graph = graph

    @abstractmethod
    def distance(self, source: Node, target: Node) -> Optional[int]:
        """Hop distance, or ``None`` when unreachable."""

    @property
    def name(self) -> str:
        return type(self).__name__


class BFSDistanceOracle(DistanceOracle):
    """Index-free: one cutoff-free BFS per question."""

    def distance(self, source: Node, target: Node) -> Optional[int]:
        return bfs_distance(self.graph, source, target)


class DistanceMatrixOracle(DistanceOracle):
    """All-pairs BFS distances, materialized once per fragment.

    Memory is O(reachable pairs) — acceptable for fragment-local graphs,
    which is exactly where the paper suggests a distance matrix.
    """

    def __init__(self, graph: DiGraph) -> None:
        super().__init__(graph)
        self._rows: Dict[Node, Dict[Node, int]] = {
            node: bfs_distances(graph, node) for node in graph.nodes()
        }

    def distance(self, source: Node, target: Node) -> Optional[int]:
        row = self._rows.get(source)
        if row is None:
            return None
        return row.get(target)


def oracle_terms(
    fragment: Fragment,
    query: BoundedReachQuery,
    oracle_cls: Type[DistanceOracle],
) -> Dict[Node, Tuple[Term, ...]]:
    """``localEvald`` on one fragment, every distance looked up in an oracle
    built over the fragment's local graph (same ``iset``/``oset`` and the
    same target→``TARGET`` rewrite as the real procedure), in the dict form
    a :class:`~repro.core.bounded.HopRows` compares equal to."""
    iset = set(fragment.in_nodes)
    oset = set(fragment.virtual_nodes)
    if query.source in fragment.nodes:
        iset.add(query.source)
    if query.target in fragment.nodes:
        oset.add(query.target)
    if not oset:
        return {v: () for v in iset}
    oracle = oracle_cls(fragment.local_graph)
    seeds = sorted(oset, key=repr)
    terms = {}
    for v in iset:
        legs = ((o, oracle.distance(v, o)) for o in seeds)
        terms[v] = tuple(
            (TARGET if o == query.target else o, float(d))
            for o, d in legs
            if d is not None and d <= query.bound
        )
    return terms
