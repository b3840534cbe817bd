"""Reachability-oracle protocol for pluggable local evaluation engines.

Section 3's remark: "any indexing techniques (e.g., reachability matrix
[31], 2-hop index [5]) ... developed for centralized graph query evaluation
can be applied here, which will lead to lower computational cost."  No
``localEval`` uses one: the numpy cone sweep answers every boundary pair
faster (DESIGN.md §12).  The oracles are a leaf library, named in
:mod:`repro.index.registry`; the concrete indexes live in sibling modules.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict

from ..graph.digraph import DiGraph, Node
from ..graph.traversal import is_reachable

#: Builds a reachability oracle for one (fragment-local) graph.
OracleFactory = Callable[[DiGraph], "ReachabilityOracle"]


class ReachabilityOracle(ABC):
    """Answers "does u reach v?" on one fixed graph."""

    def __init__(self, graph: DiGraph) -> None:
        self.graph = graph

    @abstractmethod
    def reaches(self, source: Node, target: Node) -> bool:
        """True iff ``source`` reaches ``target`` (every node reaches itself)."""

    @property
    def name(self) -> str:
        return type(self).__name__


class MaintainableOracle(ReachabilityOracle):
    """An oracle that survives graph mutation instead of being rebuilt.

    The dynamic-graph contract (DESIGN.md §12): the cluster's mutation path
    calls :meth:`on_edge_added` / :meth:`on_edge_removed` *after* the
    oracle's graph object has been mutated (including any placeholder-node
    insertion/removal the cross-fragment bookkeeping performs), so the
    implementation reads the post-state graph and repairs its derived
    structures.  Two further requirements:

    * all derived state must be a pure function of the graph's *content*
      (nodes/edges), so :meth:`rebind_graph` to an equal-content graph
      object — what lets repartition adopt the indexes of unmoved
      fragments — is sound;
    * :meth:`maintenance_stats` must account every repair, including the
      internal rebuild fallbacks a bounded repair may take.
    """

    #: Stats keys every maintainable oracle reports (values start at 0).
    _STAT_KEYS = ("events", "cheap", "repairs", "rebuilds")

    def __init__(self, graph: DiGraph) -> None:
        super().__init__(graph)
        self._maintenance: Dict[str, int] = {key: 0 for key in self._STAT_KEYS}

    @abstractmethod
    def on_edge_added(self, source: Node, target: Node) -> None:
        """Repair the index after edge ``(source, target)`` was inserted."""

    @abstractmethod
    def on_edge_removed(self, source: Node, target: Node) -> None:
        """Repair the index after edge ``(source, target)`` was deleted."""

    def maintenance_stats(self) -> Dict[str, int]:
        """Counters of the maintenance events this oracle absorbed."""
        return dict(self._maintenance)

    def rebind_graph(self, graph: DiGraph) -> None:
        """Point the oracle at ``graph``, an equal-content replacement.

        Used by repartition adoption: derived state is content-pure by
        contract, so only the graph reference needs to move.
        """
        self.graph = graph

    def _note(self, kind: str) -> None:
        self._maintenance["events"] += 1
        self._maintenance[kind] += 1


class BFSOracle(MaintainableOracle):
    """No index at all: answer each question with an early-exit BFS.

    This is the paper's default ("we use DFS/BFS search") and the baseline
    that every index is benchmarked against.  It is trivially maintainable:
    there is no derived state, every query reads the live graph.
    """

    def reaches(self, source: Node, target: Node) -> bool:
        if not (self.graph.has_node(source) and self.graph.has_node(target)):
            return False
        return is_reachable(self.graph, source, target)

    def on_edge_added(self, source: Node, target: Node) -> None:
        self._note("cheap")

    def on_edge_removed(self, source: Node, target: Node) -> None:
        self._note("cheap")


class TrivialOracle(ReachabilityOracle):
    """The oracle for degenerate (empty / single-node / edgeless) graphs.

    With no edges, reachability is node identity.  Deliberately *not*
    maintainable: the first mutation that gives the fragment real structure
    invalidates the entry (by mutation stamp) and the next resolution
    builds the oracle that was actually asked for.
    """

    def reaches(self, source: Node, target: Node) -> bool:
        return source == target and self.graph.has_node(source)
