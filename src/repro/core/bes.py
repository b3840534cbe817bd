"""Disjunctive Boolean Equation Systems and their solvers (procedure evalDG).

The partial answers of disReach and disRPQ are systems of equations

    Xv = Xw1 ∨ Xw2 ∨ ... ∨ [true]

over variables that may be *recursively* defined (graphs are cyclic, unlike
the trees of prior partial-evaluation work [3, 6]).  For such purely
disjunctive systems the least fixpoint assigns ``true`` to exactly the
variables that can reach a ``true``-containing equation in the *dependency
graph* (Fig. 4 / Fig. 5(a)); an O(|system|) reachability search solves it,
matching the O(|Vf|^2) bound via |Gd| ∈ O(|Vf|^2) [14].

Two solvers are provided: the dependency-graph search the paper uses, and a
naive Kleene fixpoint iteration kept as an independent oracle for
property-based tests.  Variables are arbitrary hashables — node ids for
disReach, ``(node, state)`` pairs for disRPQ.

Variables *used* but never *defined* are ``false`` (they correspond to
boundary nodes from which the target was locally proven unreachable — the
paper's formulas simply never mention them; we allow them for robustness).

disReach and disRPQ ship the paper's bit matrices over interned ids
(:class:`~repro.core.reachability.ReachRows` over ``Vf`` ids,
:class:`~repro.core.regular.RegularRows` over (node, state) pair ids) and
solve ``evalDG``/``evalDGr`` as closures over those ids; this dict-form
system is built from their decoded equations for ``details["bes"]`` and
by the Suciu baseline.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, Set, Union

from ..errors import ReproError
from ..graph.digraph import DiGraph

Var = Hashable


class _TrueToken:
    """The ``true`` disjunct (a dedicated sentinel: ``True == 1`` in Python,
    so the builtin ``True`` could collide with integer node ids)."""

    _instance = None

    def __new__(cls) -> "_TrueToken":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "TRUE"

    def payload_size(self) -> int:
        return 1


TRUE = _TrueToken()
Disjunct = Union[Var, _TrueToken]


class BooleanEquationSystem:
    """A disjunctive BES: ``var -> frozenset of disjuncts``."""

    def __init__(self) -> None:
        self._equations: Dict[Var, FrozenSet[Disjunct]] = {}
        self._num_disjuncts = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_equation(self, var: Var, disjuncts: Iterable[Disjunct]) -> None:
        """Define ``var``; redefinition unions the disjunct sets (idempotent
        for identical equations, which lets fragments be merged blindly)."""
        new = frozenset(disjuncts)
        old = self._equations.get(var)
        if old is not None:
            new = old | new
            self._num_disjuncts -= len(old)
        self._equations[var] = new
        self._num_disjuncts += len(new)

    def update(self, equations: Mapping[Var, Iterable[Disjunct]]) -> None:
        """Add every equation of ``equations``."""
        for var, disjuncts in equations.items():
            self.add_equation(var, disjuncts)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def variables(self) -> Iterator[Var]:
        return iter(self._equations)

    def disjuncts_of(self, var: Var) -> FrozenSet[Disjunct]:
        return self._equations.get(var, frozenset())

    def __len__(self) -> int:
        return len(self._equations)

    def __contains__(self, var: Var) -> bool:
        return var in self._equations

    @property
    def num_disjuncts(self) -> int:
        return self._num_disjuncts

    def dependency_graph(self) -> DiGraph:
        """``Gd`` (Section 3): one node per variable, plus a ``TRUE`` node
        merged from every true-containing equation (Fig. 4, line 3)."""
        equations = self._equations
        gd = DiGraph()
        gd.add_node(TRUE, label="true")
        for var in equations:
            gd.add_node(var)
        for var, disjuncts in equations.items():
            for d in disjuncts:
                gd.add_edge(var, d, create=True)
        return gd

    # ------------------------------------------------------------------
    # solvers
    # ------------------------------------------------------------------
    def solve_reachability(self, start: Var) -> bool:
        """Procedure ``evalDG``: is ``start`` true in the least fixpoint?

        BFS over the dependency edges from ``start``; true iff some
        ``true``-containing equation is reached.  Early-exits without
        materializing ``Gd``.

        Rows of one local SCC often share one disjunct frozenset; an
        already-expanded set contributes nothing new, so it is skipped by
        identity, which keeps the search linear in *distinct* set content
        even when the nominal disjunct count is quadratic.
        """
        if start is TRUE:
            return True
        equations = self._equations
        seen: Set[Var] = {start}
        expanded_sets: Set[int] = set()
        queue = deque([start])
        while queue:
            disjuncts = equations.get(queue.popleft())
            if not disjuncts or id(disjuncts) in expanded_sets:
                continue
            expanded_sets.add(id(disjuncts))
            for d in disjuncts:
                if d is TRUE:
                    return True
                if d not in seen:
                    seen.add(d)
                    queue.append(d)
        return False

    def solve_all(self) -> Dict[Var, bool]:
        """Least fixpoint for every defined variable (reverse reachability
        from the ``true`` equations — linear in the system size)."""
        equations = self._equations
        reverse: Dict[Var, Set[Var]] = {}
        roots: deque = deque()
        for var, disjuncts in equations.items():
            if TRUE in disjuncts:
                roots.append(var)
            for d in disjuncts:
                if d is not TRUE:
                    reverse.setdefault(d, set()).add(var)
        true_vars: Set[Var] = set()
        while roots:
            var = roots.popleft()
            if var in true_vars:
                continue
            true_vars.add(var)
            for user in reverse.get(var, ()):
                if user not in true_vars:
                    roots.append(user)
        return {var: var in true_vars for var in equations}

    def solve_fixpoint(self, max_rounds: int = 0) -> Dict[Var, bool]:
        """Naive Kleene iteration — the test oracle for the two solvers above.

        Starts everything at ``false`` and re-evaluates equations until
        stable; guaranteed to converge in at most ``len(self)`` rounds for a
        monotone disjunctive system.
        """
        equations = self._equations
        value: Dict[Var, bool] = {var: False for var in equations}
        limit = max_rounds or (len(equations) + 1)
        for _ in range(limit):
            changed = False
            for var, disjuncts in equations.items():
                if value[var]:
                    continue
                new = any(
                    d is TRUE or value.get(d, False) for d in disjuncts
                )
                if new:
                    value[var] = True
                    changed = True
            if not changed:
                return value
        raise ReproError("fixpoint iteration failed to converge (bug)")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BooleanEquationSystem(vars={len(self)}, disjuncts={self.num_disjuncts})"
