"""Min-plus (tropical) equation systems and their solvers (procedure evalDGd).

Bounded reachability replaces Boolean disjunction with minimization over
distances (Section 4): each in-node ``v`` yields

    Xv = min( Xv' + dist_Fi(v, v') , ... )

where ``Xv'`` denotes ``dist(v', t)`` and the term for ``v' = t`` has
``Xt = 0``.  The coordinator view of this system is a *weighted dependency
graph* ``Gd`` (Fig. 5(b)) with a distinguished target vertex, on which
Dijkstra computes ``dist(s, t)`` in ``O(|Ed| + |Vd| log |Vd|)`` [32].

A site ships its terms as one id-space hop matrix
(:class:`~repro.core.bounded.HopRows`), on which the coordinator runs
Dijkstra over ``Vf`` ids (:func:`~repro.core.bounded.assemble_bounded`).
This module is the node-keyed view of the same system: what
``collect_details`` returns as ``details["system"]``, with a Dijkstra and
a Bellman–Ford fixpoint solver kept as the property-test oracles.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

from ..graph.digraph import DiGraph

Var = Hashable


class _TargetToken:
    """The distinguished ``Xt = 0`` vertex of the weighted dependency graph."""

    _instance = None

    def __new__(cls) -> "_TargetToken":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "TARGET"

    def payload_size(self) -> int:
        return 1


TARGET = _TargetToken()
Term = Tuple[Hashable, float]  # (variable or TARGET, added distance)


class MinPlusSystem:
    """``var -> {successor: weight}`` with min-merge on duplicate terms."""

    def __init__(self) -> None:
        self._terms: Dict[Var, Dict[Hashable, float]] = {}
        self._num_terms = 0

    # ------------------------------------------------------------------
    def add_equation(self, var: Var, terms: Iterable[Term]) -> None:
        """Define ``var = min(term, ...)``; re-adding keeps the min weight."""
        slot = self._terms.setdefault(var, {})
        before = len(slot)
        for successor, weight in terms:
            if weight < 0:
                raise ValueError(f"negative distance {weight!r} in equation for {var!r}")
            if successor not in slot or weight < slot[successor]:
                slot[successor] = weight
        self._num_terms += len(slot) - before

    def update(self, equations: Mapping) -> None:
        """Add every equation of ``equations`` (``var -> terms``)."""
        for var, terms in equations.items():
            self.add_equation(var, terms)

    # ------------------------------------------------------------------
    def variables(self) -> Iterator[Var]:
        return iter(self._terms)

    def terms_of(self, var: Var) -> Dict[Hashable, float]:
        return dict(self._terms.get(var, {}))

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, var: Var) -> bool:
        return var in self._terms

    @property
    def num_terms(self) -> int:
        return self._num_terms

    def weighted_dependency_graph(self) -> Tuple[DiGraph, Dict[Tuple, float]]:
        """``Gd = (Vd, Ed, Ld, Wd)`` for inspection (Example 5 / Fig. 5(b))."""
        gd = DiGraph()
        weights: Dict[Tuple, float] = {}
        gd.add_node(TARGET, label="target")
        terms = self._terms
        for var in terms:
            gd.add_node(var)
        for var, slot in terms.items():
            for successor, weight in slot.items():
                gd.add_edge(var, successor, create=True)
                weights[(var, successor)] = weight
        return gd, weights

    # ------------------------------------------------------------------
    # solvers
    # ------------------------------------------------------------------
    def solve_distance(self, source: Var, cutoff: Optional[float] = None) -> Optional[float]:
        """Procedure ``evalDGd``: Dijkstra from ``source`` to ``TARGET``.

        Returns the distance, or ``None`` if the target is unreachable
        (within ``cutoff``, when given — the query bound ``l``).
        """
        if source is TARGET:
            return 0.0
        terms = self._terms
        dist: Dict[Hashable, float] = {}
        heap: List[Tuple[float, int, Hashable]] = [(0.0, 0, source)]
        counter = 1
        while heap:
            d, _, var = heapq.heappop(heap)
            if var in dist:
                continue
            dist[var] = d
            if var is TARGET:
                return d
            slot = terms.get(var)
            if slot is None:
                continue
            for successor, weight in slot.items():
                nd = d + weight
                if cutoff is not None and nd > cutoff:
                    continue
                if successor not in dist:
                    heapq.heappush(heap, (nd, counter, successor))
                    counter += 1
        return None

    def solve_bellman_ford(self, source: Var) -> Optional[float]:
        """Fixpoint oracle used by tests to validate :meth:`solve_distance`."""
        INF = float("inf")
        terms = self._terms
        dist: Dict[Hashable, float] = {source: 0.0}
        for _ in range(len(terms) + 1):
            changed = False
            for var, slot in terms.items():
                dv = dist.get(var, INF)
                if dv == INF:
                    continue
                for successor, weight in slot.items():
                    nd = dv + weight
                    if nd < dist.get(successor, INF):
                        dist[successor] = nd
                        changed = True
            if not changed:
                break
        d = dist.get(TARGET)
        return None if d is None else d

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MinPlusSystem(vars={len(self)}, terms={self.num_terms})"
