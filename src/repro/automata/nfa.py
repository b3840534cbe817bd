"""Position NFA built from the Glushkov analysis, with subset acceptance.

This NFA is the *language* view of a regular expression: it decides whether
a finite word of labels belongs to L(R).  The distributed algorithms never
run it directly — they use :mod:`repro.automata.query_automaton` — but it is
the semantic anchor: tests assert that query-automaton-based evaluation
agrees with NFA acceptance of actual path labels, and that NFA acceptance
agrees with Python's ``re`` engine on rendered expressions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Sequence, Set, Union as TUnion

from .ast import RegexNode
from .glushkov import GlushkovAnalysis, analyze
from .parser import parse_regex

START = -1  # the synthetic initial state of the position NFA


@dataclass(frozen=True)
class PositionNFA:
    """Glushkov position automaton: states are ``START`` plus positions."""

    analysis: GlushkovAnalysis

    @classmethod
    def from_regex(cls, regex: TUnion[str, RegexNode]) -> "PositionNFA":
        return cls(analyze(parse_regex(regex)))

    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        return self.analysis.num_positions + 1

    def transitions_from(self, state: int) -> FrozenSet[int]:
        """Positions reachable in one step (label checked at the target)."""
        if state == START:
            return self.analysis.first
        return self.analysis.follow[state]

    def position_matches(self, position: int, label: object) -> bool:
        expected = self.analysis.position_labels[position]
        return expected is None or expected == label

    def is_accepting(self, state: int) -> bool:
        if state == START:
            return self.analysis.nullable
        return state in self.analysis.last

    # ------------------------------------------------------------------
    def accepts(self, word: Sequence[object]) -> bool:
        """Subset-construction run over a word of labels.

        >>> PositionNFA.from_regex("DB* | HR*").accepts(["HR", "HR"])
        True
        >>> PositionNFA.from_regex("DB* | HR*").accepts(["HR", "DB"])
        False
        """
        current: Set[int] = {START}
        for symbol in word:
            nxt: Set[int] = set()
            for state in current:
                for pos in self.transitions_from(state):
                    if self.position_matches(pos, symbol):
                        nxt.add(pos)
            if not nxt:
                return False
            current = nxt
        return any(self.is_accepting(state) for state in current)

    def accepts_some_prefix_state(self, word: Sequence[object]) -> Set[int]:
        """The state set after reading ``word`` (empty = dead)."""
        current: Set[int] = {START}
        for symbol in word:
            current = {
                pos
                for state in current
                for pos in self.transitions_from(state)
                if self.position_matches(pos, symbol)
            }
            if not current:
                break
        return current
