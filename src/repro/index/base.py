"""Reachability-oracle protocol for pluggable local evaluation engines.

Section 3's remark: "any indexing techniques (e.g., reachability matrix
[31], 2-hop index [5]) ... developed for centralized graph query evaluation
can be applied here, which will lead to lower computational cost."  No
``localEval`` uses one: the numpy cone sweep answers every boundary pair
faster (DESIGN.md §12).  The oracles are a static leaf library, built once
per graph and never maintained; :mod:`repro.index.registry` names them and
the concrete indexes live in sibling modules.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

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


class BFSOracle(ReachabilityOracle):
    """No index at all: answer each question with an early-exit BFS.

    This is the paper's default ("we use DFS/BFS search") and the baseline
    that every index is checked against.
    """

    def reaches(self, source: Node, target: Node) -> bool:
        if not (self.graph.has_node(source) and self.graph.has_node(target)):
            return False
        return is_reachable(self.graph, source, target)


class TrivialOracle(ReachabilityOracle):
    """The oracle for degenerate (empty / single-node / edgeless) graphs.

    With no edges, reachability is node identity.
    """

    def reaches(self, source: Node, target: Node) -> bool:
        return source == target and self.graph.has_node(source)
