"""Glushkov (position) analysis of regular expressions.

The query automaton of Section 5.1 labels *states* with symbols and checks
labels at the target of each transition — exactly the shape of the Glushkov
position automaton, where each state is an occurrence ("position") of a
symbol in the expression and transitions are label-free.  We compute the
classic four functions:

* ``nullable(R)`` — does ε ∈ L(R)?
* ``first(R)``    — positions that can start a word;
* ``last(R)``     — positions that can end a word;
* ``follow(p)``   — positions that may immediately follow position ``p``.

The construction is O(|R|^2) in the worst case (follow-set unions); the
paper cites the O(|R| log |R|) refinement of Hromkovic et al. [15], which is
unnecessary at the query sizes of the evaluation (|R| ≤ ~40).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Set, Tuple

from .ast import Concat, Epsilon, RegexNode, Star, Symbol, Union, Wildcard

#: A position's "symbol": a concrete label, or None for the wildcard.
PositionLabel = Optional[str]


@dataclass(frozen=True)
class GlushkovAnalysis:
    """Position analysis of one regular expression.

    Serving-cache keys hold the analysis and hash it many times per query,
    so its hash is memoized in the instance dict on first use.  Pickling
    drops the memo: ``str`` hashes differ per process.
    """

    regex: RegexNode
    position_labels: Tuple[PositionLabel, ...]  # index -> label (None = wildcard)
    nullable: bool
    first: FrozenSet[int]
    last: FrozenSet[int]
    follow: Tuple[FrozenSet[int], ...]  # index -> follow set

    @property
    def num_positions(self) -> int:
        return len(self.position_labels)

    def __hash__(self) -> int:
        memo = self.__dict__.get("_hash")
        if memo is None:
            memo = self._field_hash()
            object.__setattr__(self, "_hash", memo)
        return memo

    def _field_hash(self) -> int:
        return hash(
            (self.regex, self.position_labels, self.nullable, self.first, self.last, self.follow)
        )

    def __getstate__(self) -> dict:
        return {key: value for key, value in self.__dict__.items() if key != "_hash"}

    def payload_size(self) -> int:
        """The structural wire size of this dataclass, by arithmetic.

        :func:`~repro.distributed.messages.payload_size`'s dataclass rule
        (2 bytes plus the fields) walked this object and its regex field by
        field; this computes the same number from the fields' shapes: 2 per
        regex node, 2 more per ``parts`` tuple, plus each symbol's label; a
        2-byte header per tuple or set, 8 bytes per position index, 1 for
        ``nullable``.
        """
        from ..distributed.messages import payload_size

        regex, stack = 0, [self.regex]
        while stack:
            node = stack.pop()
            regex += 2
            if isinstance(node, Symbol):
                regex += payload_size(node.label)
            elif isinstance(node, (Concat, Union)):
                regex += 2
                stack.extend(node.parts)
            elif isinstance(node, Star):
                stack.append(node.inner)
        labels = 2 + sum(map(payload_size, self.position_labels))
        follow = 2 + sum(2 + 8 * len(nexts) for nexts in self.follow)
        return 2 + regex + labels + 1 + 2 + 8 * len(self.first) + 2 + 8 * len(self.last) + follow


@dataclass
class _NodeFacts:
    nullable: bool
    first: Set[int]
    last: Set[int]


def analyze(regex: RegexNode) -> GlushkovAnalysis:
    """Compute the Glushkov analysis of ``regex``."""
    position_labels: List[PositionLabel] = []
    follow: List[Set[int]] = []

    def visit(node: RegexNode) -> _NodeFacts:
        if isinstance(node, Epsilon):
            return _NodeFacts(True, set(), set())
        if isinstance(node, (Symbol, Wildcard)):
            pos = len(position_labels)
            position_labels.append(node.label if isinstance(node, Symbol) else None)
            follow.append(set())
            return _NodeFacts(False, {pos}, {pos})
        if isinstance(node, Union):
            facts = [visit(p) for p in node.parts]
            return _NodeFacts(
                any(f.nullable for f in facts),
                set().union(*(f.first for f in facts)),
                set().union(*(f.last for f in facts)),
            )
        if isinstance(node, Concat):
            facts = [visit(p) for p in node.parts]
            # follow: last(left prefix) -> first of the next part
            for i in range(len(facts) - 1):
                nxt_first = facts[i + 1].first
                for p in facts[i].last:
                    follow[p] |= nxt_first
                # nullable parts let follow flow through them
                j = i + 1
                while j + 1 < len(facts) and facts[j].nullable:
                    for p in facts[i].last:
                        follow[p] |= facts[j + 1].first
                    j += 1
            nullable = all(f.nullable for f in facts)
            first: Set[int] = set()
            for f in facts:
                first |= f.first
                if not f.nullable:
                    break
            last: Set[int] = set()
            for f in reversed(facts):
                last |= f.last
                if not f.nullable:
                    break
            return _NodeFacts(nullable, first, last)
        if isinstance(node, Star):
            inner = visit(node.inner)
            for p in inner.last:
                follow[p] |= inner.first
            return _NodeFacts(True, set(inner.first), set(inner.last))
        raise TypeError(f"unknown regex node {node!r}")

    facts = visit(regex)
    return GlushkovAnalysis(
        regex=regex,
        position_labels=tuple(position_labels),
        nullable=facts.nullable,
        first=frozenset(facts.first),
        last=frozenset(facts.last),
        follow=tuple(frozenset(f) for f in follow),
    )
