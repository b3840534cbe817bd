"""Query automata ``Gq(R)`` (paper Section 5.1).

A query automaton for ``qrr(s, t, R)`` accepts *paths* rather than words:
its start state ``us`` stands for the source node ``s``, its final state
``ut`` for the target ``t``, and every other state is a Glushkov position of
``R`` labeled with a symbol.  A path ``(s, v1, ..., vn, t)`` is accepted iff
the sequence of intermediate labels ``L(v1)..L(vn)`` drives the position
automaton from ``us`` to ``ut`` — matching the paper's definition where the
path label excludes both endpoints (Section 2.1).

States are small integers: ``US = -1``, ``UT = -2`` and positions ``0..n-1``,
so vectors indexed by state are cheap and the (node, state) pairs shipped by
``localEvalr`` stay compact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, List, Tuple, Union as TUnion

from ..graph.digraph import DiGraph, Node
from ..graph.scc import tarjan_scc
from .ast import RegexNode
from .glushkov import GlushkovAnalysis, PositionLabel, analyze
from .parser import parse_regex

US = -1  # start state, denotes the query's source node s
UT = -2  # final state, denotes the query's target node t

State = int
ColumnPair = Tuple[int, int]  # (state column, successor-state column)


@dataclass(frozen=True)
class CompiledAutomaton:
    """The per-query tables of ``Gq(R)`` the regular kernel reads, as ints.

    Column ``c`` is state ``states[c]`` (``US``, the positions, ``UT``).
    ``schedule`` follows the automaton's SCC condensation, successors
    first: per component, its ``incoming`` transitions (applied once) and
    its ``internal`` ones (iterated to a fixpoint).  ``target_cols`` are
    the columns some transition enters.
    """

    states: Tuple[State, ...]
    position_labels: Tuple[PositionLabel, ...]
    schedule: Tuple[Tuple[Tuple[ColumnPair, ...], Tuple[ColumnPair, ...]], ...]
    target_cols: Tuple[int, ...]
    state_bytes: Tuple[int, ...]


def compile_automaton(automaton: "QueryAutomaton") -> CompiledAutomaton:
    """``automaton``'s tables (:attr:`QueryAutomaton.compiled` memoizes them)."""
    from ..distributed.messages import payload_size

    states = automaton.states()
    col_of = {state: col for col, state in enumerate(states)}
    schedule = []
    for members in tarjan_scc(states, automaton.successors):
        member_set = set(members)
        incoming, internal = [], []
        for u in members:
            for u2 in automaton.successors(u):
                pair = (col_of[u], col_of[u2])
                (internal if u2 in member_set else incoming).append(pair)
        schedule.append((tuple(incoming), tuple(internal)))
    return CompiledAutomaton(
        states,
        automaton.analysis.position_labels,
        tuple(schedule),
        tuple(sorted({col_of[u2] for _, u2 in automaton.transitions()})),
        tuple(map(payload_size, states)),
    )


@dataclass(frozen=True)
class QueryAutomaton:
    """``Gq(R) = <Vq, Eq, Lq, us, ut>`` for a concrete (s, t) pair."""

    analysis: GlushkovAnalysis
    source: Node
    target: Node

    @classmethod
    def build(
        cls,
        regex: TUnion[str, RegexNode],
        source: Node,
        target: Node,
    ) -> "QueryAutomaton":
        """Compile ``regex`` into a query automaton for ``(source, target)``."""
        return cls(analyze(parse_regex(regex)), source, target)

    def payload_size(self) -> int:
        """What the coordinator ships: the dataclass rule's size (2 bytes
        plus the fields), the analysis sized by arithmetic."""
        from ..distributed.messages import payload_size

        ends = payload_size(self.source) + payload_size(self.target)
        return 2 + self.analysis.payload_size() + ends

    @cached_property
    def compiled(self) -> CompiledAutomaton:
        """This automaton's :class:`CompiledAutomaton`, built on first use
        and kept in the instance dict, so it pickles along with the
        automaton; equality, hashing and :meth:`payload_size` read the
        fields only."""
        return compile_automaton(self)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def states(self) -> Tuple[State, ...]:
        """``Vq``: start, every position, final."""
        return (US, *range(self.analysis.num_positions), UT)

    @property
    def num_states(self) -> int:
        """``|Vq|``."""
        return self.analysis.num_positions + 2

    def successors(self, state: State) -> Tuple[State, ...]:
        """``Eq`` transitions out of ``state``."""
        if state == UT:
            return ()
        if state == US:
            out: List[State] = list(self.analysis.first)
            if self.analysis.nullable:
                out.append(UT)
            return tuple(out)
        out = list(self.analysis.follow[state])
        if state in self.analysis.last:
            out.append(UT)
        return tuple(out)

    def transitions(self) -> Iterable[Tuple[State, State]]:
        for state in self.states():
            for nxt in self.successors(state):
                yield (state, nxt)

    @property
    def num_transitions(self) -> int:
        """``|Eq|``."""
        return sum(1 for _ in self.transitions())

    @property
    def size(self) -> int:
        """``|Gq| = |Vq| + |Eq|`` — what the coordinator ships to every site."""
        return self.num_states + self.num_transitions

    def state_label(self, state: State) -> str:
        """Human-readable ``Lq`` (used by examples and __str__)."""
        if state == US:
            return f"start:{self.source}"
        if state == UT:
            return f"final:{self.target}"
        label = self.analysis.position_labels[state]
        return "." if label is None else str(label)

    # ------------------------------------------------------------------
    # matching (Section 5.1: L(v) must equal Lq(u) at each step)
    # ------------------------------------------------------------------
    def node_matches(self, node: Node, label: object, state: State) -> bool:
        """May ``node`` (carrying ``label``) occupy ``state``?

        ``us``/``ut`` match the query's endpoints *by identity*; position
        states match by label (wildcard positions match anything).
        """
        if state == US:
            return node == self.source
        if state == UT:
            return node == self.target
        expected = self.analysis.position_labels[state]
        return expected is None or expected == label

    def match_fn(self, graph: DiGraph) -> Callable[[Node, State], bool]:
        """Bind :meth:`node_matches` to a graph's labeling for product search."""
        label_of = graph.label

        def matches(node: Node, state: State) -> bool:
            return self.node_matches(node, label_of(node), state)

        return matches

    def matching_states(self, node: Node, label: object) -> Tuple[State, ...]:
        """Every state that ``node`` may occupy (used to seed rvec entries)."""
        return tuple(
            state for state in self.states() if self.node_matches(node, label, state)
        )

    def __str__(self) -> str:
        lines = [f"QueryAutomaton(|Vq|={self.num_states}, |Eq|={self.num_transitions})"]
        for state in self.states():
            succ = ", ".join(self.state_label(n) for n in self.successors(state))
            lines.append(f"  {self.state_label(state)} -> [{succ}]")
        return "\n".join(lines)
