"""The three query classes of Section 2.2.

* ``ReachQuery(s, t)``            — ``qr(s, t)``
* ``BoundedReachQuery(s, t, l)``  — ``qbr(s, t, l)``
* ``RegularReachQuery(s, t, R)``  — ``qrr(s, t, R)``

Queries are immutable values; ``RegularReachQuery`` carries a parsed regex
AST and compiles its query automaton on demand.  All constructors validate
locally-checkable invariants; node-existence is validated against the graph
or cluster at evaluation time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..automata.ast import RegexNode
from ..automata.parser import parse_regex
from ..automata.query_automaton import QueryAutomaton
from ..errors import QueryError
from ..graph.digraph import Node


@dataclass(frozen=True)
class ReachQuery:
    """``qr(s, t)``: does ``source`` reach ``target``?"""

    source: Node
    target: Node

    def __str__(self) -> str:
        return f"qr({self.source}, {self.target})"


@dataclass(frozen=True)
class BoundedReachQuery:
    """``qbr(s, t, l)``: is ``dist(source, target) <= bound``?"""

    source: Node
    target: Node
    bound: int

    def __post_init__(self) -> None:
        if not isinstance(self.bound, int) or isinstance(self.bound, bool):
            raise QueryError(f"bound must be an int, got {self.bound!r}")
        if self.bound < 0:
            raise QueryError(f"bound must be non-negative, got {self.bound}")

    def __str__(self) -> str:
        return f"qbr({self.source}, {self.target}, {self.bound})"


@dataclass(frozen=True)
class RegularReachQuery:
    """``qrr(s, t, R)``: is there an s→t path whose label satisfies ``R``?

    ``regex`` accepts either a parsed :class:`RegexNode` or the textual
    syntax of :mod:`repro.automata.parser` (e.g. ``"DB* | HR*"``).
    """

    source: Node
    target: Node
    regex: RegexNode

    def __init__(self, source: Node, target: Node, regex: Union[str, RegexNode]):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "regex", parse_regex(regex))

    def automaton(self) -> QueryAutomaton:
        """Compile ``Gq(R)`` for this query's (s, t) pair (Section 5.1)."""
        return QueryAutomaton(analysis=_analyze_cached(self.regex), source=self.source, target=self.target)

    def __str__(self) -> str:
        return f"qrr({self.source}, {self.target}, {self.regex})"


Query = Union[ReachQuery, BoundedReachQuery, RegularReachQuery]


def _analyze_cached(regex: RegexNode):
    # Local import to keep module import cost low and RegularReachQuery free
    # of automata internals.  Not memoized here: building a regular plan
    # (this analysis, the automaton, its compiled tables, its broadcast size)
    # takes about 150 us on a 2-vCPU x86 guest, which a serving stream would
    # pay per request, so the serving cache keeps each query's plan instead
    # (DESIGN.md §6).
    from ..automata.glushkov import analyze

    return analyze(regex)
