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

A disRPQ site ships its vectors as one :class:`BitRows` (and sizes it
with :class:`BooleanPartialAnswer`): Section 5's equations over (node,
state) pairs, with rows that share a bit pattern (the in-nodes of one
local SCC, typically) pointing at one shared set.  The system loads it by
reference and decodes a set only when the search first reaches it; the
decoded disjuncts are cached on the immutable rows object, so a partial
answer served from cache is never decoded twice.  disReach ships the
paper's bit matrix over interned ``Vf`` ids instead and solves it as a
bitset closure (:mod:`repro.core.reachability`); this system is built for
its ``details["bes"]`` and for the Suciu baseline.
"""

from __future__ import annotations

from array import array
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain, compress, count, repeat
from operator import itemgetter
from typing import (
    Any,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

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


#: ``bytes.translate`` table mapping the digits ``"0"``/``"1"`` to 0/1 bytes.
_BINARY_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def int64s(buffer: Any) -> array:
    """An ``array('q')`` over native-order int64 bytes (or any int iterable)."""
    if isinstance(buffer, array) and buffer.typecode == "q":
        return buffer
    if isinstance(buffer, (bytes, bytearray, memoryview)):
        out = array("q")
        out.frombytes(buffer)
        return out
    return array("q", buffer)


class BitRows(Mapping):
    """One partial answer of ``localEval``/``localEvalr`` as shared bit rows.

    ``rows`` are the equation variables (the in-nodes plus a local ``s``,
    or ``(node, state)`` pairs), ``columns`` the disjuncts (``TRUE`` for the
    target).  Row ``i`` holds distinct set ``row_set[i]``, and set ``k`` is
    the columns ``cols[starts[k]:starts[k + 1]]`` — one CSR of
    ``array('q')`` buffers over the *distinct* bit patterns, so rows of one
    local SCC share one set, pickling is a few buffer copies, and the wire
    size is arithmetic (DESIGN.md §3.1).  ``row_bytes`` (the summed id size
    of the rows) and ``col_bytes`` (each column's id size) are the modeled
    sizes, which the emitter knows; left out, they are computed here.

    As a read-only mapping, ``rows[v]`` decodes to the frozenset of the
    equation ``Xv = ∨ ...``, so it compares equal to (and converts to) the
    plain dict form.  Stdlib only: decoding a row never needs numpy.
    """

    __slots__ = (
        "rows",
        "columns",
        "row_set",
        "starts",
        "cols",
        "row_bytes",
        "col_bytes",
        "_index",
        "_sets",
        "_tuples",
        "_entries",
    )

    def __init__(
        self,
        rows: Sequence[Var],
        columns: Sequence[Disjunct],
        row_set: Any,
        starts: Any,
        cols: Any,
        row_bytes: Optional[int] = None,
        col_bytes: Any = None,
    ) -> None:
        """Wrap the row-to-set map and the set CSR (arrays, int iterables
        or native int64 bytes)."""
        set_ = object.__setattr__
        set_(self, "rows", tuple(rows))
        set_(self, "columns", tuple(columns))
        set_(self, "row_set", int64s(row_set))
        set_(self, "starts", int64s(starts))
        set_(self, "cols", int64s(cols))
        if row_bytes is None or col_bytes is None:
            from ..distributed.messages import payload_size

            if row_bytes is None:
                row_bytes = sum(map(payload_size, self.rows))
            if col_bytes is None:
                col_bytes = map(payload_size, self.columns)
        set_(self, "row_bytes", int(row_bytes))
        set_(self, "col_bytes", int64s(col_bytes))
        for slot in ("_index", "_sets", "_tuples", "_entries"):
            set_(self, slot, None)
        if (
            len(self.row_set) != len(self.rows)
            or not self.starts
            or self.starts[-1] != len(self.cols)
            or len(self.col_bytes) != len(self.columns)
        ):
            raise ValueError("BitRows buffers disagree on rows, sets or columns")

    @classmethod
    def from_masks(
        cls,
        rows: Sequence[Var],
        columns: Sequence[Disjunct],
        masks: Iterable[int],
        row_bytes: Optional[int] = None,
        col_bytes: Any = None,
    ) -> "BitRows":
        """Build from one column bitmask per row (bit ``j`` = ``columns[j]``).

        Masks are deduplicated by value, so each distinct bit pattern is
        decoded once: a sparse one by walking its set bits, a dense one by
        one C-level ``compress`` over its binary digits.
        """
        set_of: Dict[int, int] = {}
        row_set = [set_of.setdefault(mask, len(set_of)) for mask in masks]
        starts = array("q", [0])
        cols = array("q")
        for mask in set_of:
            if mask.bit_count() << 2 > mask.bit_length():
                digits = format(mask, "b")[::-1].encode().translate(_BINARY_DIGITS)
                cols.extend(compress(count(), digits))
            else:
                while mask:
                    low = mask & -mask
                    cols.append(low.bit_length() - 1)
                    mask ^= low
            starts.append(len(cols))
        return cls(rows, columns, row_set, starts, cols, row_bytes, col_bytes)

    @classmethod
    def from_mapping(cls, equations: Mapping) -> "BitRows":
        """The plain ``{var: disjuncts}`` form, columns in first-use order."""
        if isinstance(equations, BitRows):
            return equations
        column_of: Dict[Disjunct, int] = {}
        masks = []
        for disjuncts in equations.values():
            mask = 0
            for d in disjuncts:
                mask |= 1 << column_of.setdefault(d, len(column_of))
            masks.append(mask)
        return cls.from_masks(tuple(equations), tuple(column_of), masks)

    @classmethod
    def concat(cls, parts: Sequence["BitRows"]) -> "BitRows":
        """One matrix holding every part's rows, columns re-tabled by variable.

        What a site holding several fragments ships: a shared column table,
        so a disjunct two parts both reference is one column.
        """
        column_of: Dict[Disjunct, int] = {}
        col_bytes = array("q")
        rows: List[Var] = []
        row_set = array("q")
        starts = array("q", [0])
        cols = array("q")
        row_bytes = 0
        for part in parts:
            remap = []
            for var, size in zip(part.columns, part.col_bytes):
                j = column_of.get(var)
                if j is None:
                    j = column_of[var] = len(col_bytes)
                    col_bytes.append(size)
                remap.append(j)
            set_base = len(starts) - 1
            base = len(cols)
            rows.extend(part.rows)
            row_set.extend(set_base + k for k in part.row_set)
            starts.extend(base + start for start in part.starts[1:])
            cols.extend(map(remap.__getitem__, part.cols))
            row_bytes += part.row_bytes
        if len(set(rows)) != len(rows):
            raise ValueError("BitRows.concat: parts define a row twice")
        return cls(rows, tuple(column_of), row_set, starts, cols, row_bytes, col_bytes)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return (
            BitRows,
            (
                self.rows,
                self.columns,
                self.row_set,
                self.starts,
                self.cols,
                self.row_bytes,
                self.col_bytes,
            ),
        )

    # -- decoding ------------------------------------------------------------
    @property
    def num_sets(self) -> int:
        """How many distinct disjunct sets the rows share."""
        return len(self.starts) - 1

    def set_sizes(self) -> List[int]:
        """Each distinct set's disjunct count."""
        starts = self.starts
        return [b - a for a, b in zip(starts, starts[1:])]

    def num_entries(self) -> int:
        """Total disjuncts over all rows (each row counts its whole set),
        counted once and cached like the decoded sets."""
        entries = self._entries
        if entries is None:
            entries = sum(map(self.set_sizes().__getitem__, self.row_set))
            object.__setattr__(self, "_entries", entries)
        return entries

    def disjuncts(self, k: int) -> Tuple[Disjunct, ...]:
        """Set ``k``'s disjuncts, decoded once and cached on this object."""
        tuples = self._tuples
        if tuples is None:
            tuples = [None] * self.num_sets
            object.__setattr__(self, "_tuples", tuples)
        found = tuples[k]
        if found is None:
            a, b = self.starts[k], self.starts[k + 1]
            if b - a > 1:
                found = itemgetter(*self.cols[a:b])(self.columns)
            else:
                found = tuple(self.columns[j] for j in self.cols[a:b])
            tuples[k] = found
        return found

    def frozen(self, k: int) -> FrozenSet[Disjunct]:
        """Set ``k`` as a frozenset, shared by every row that holds it."""
        sets = self._sets
        if sets is None:
            sets = [None] * self.num_sets
            object.__setattr__(self, "_sets", sets)
        found = sets[k]
        if found is None:
            found = sets[k] = frozenset(self.disjuncts(k))
        return found

    def __getitem__(self, var: Var) -> FrozenSet[Disjunct]:
        index = self._index
        if index is None:
            index = {row: i for i, row in enumerate(self.rows)}
            object.__setattr__(self, "_index", index)
        return self.frozen(self.row_set[index[var]])

    def __iter__(self) -> Iterator[Var]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BitRows(rows={len(self.rows)}, sets={self.num_sets}, columns={len(self.columns)})"


@dataclass(frozen=True)
class BooleanPartialAnswer:
    """A :class:`BitRows` on the wire: what a disRPQ site ships as ``Fi.rvset``.

    Wire format per Sections 3 and 5's traffic analysis — a shared column
    table of boundary ids plus one (bitset or sparse) row per equation.
    The rows already are that format, so the size is arithmetic over them:
    the charge :func:`~repro.distributed.messages.equation_set_size` models,
    with each distinct set's row cost computed once.  A plain
    ``{var: disjuncts}`` mapping is converted to :class:`BitRows` once.
    disReach's :class:`~repro.core.reachability.ReachRows` is its own wire
    type and charges the same formula.
    """

    equations: BitRows

    def __post_init__(self) -> None:
        if not isinstance(self.equations, BitRows):
            object.__setattr__(self, "equations", BitRows.from_mapping(self.equations))

    def payload_size(self) -> int:
        rows = self.equations
        used = set(rows.cols)
        dense = (len(used) + 7) // 8
        row_cost = [min(dense, 2 * count + 2) for count in rows.set_sizes()]
        return (
            2
            + rows.row_bytes
            + sum(map(rows.col_bytes.__getitem__, used))
            + sum(map(row_cost.__getitem__, rows.row_set))
        )


class BooleanEquationSystem:
    """A disjunctive BES: ``var -> frozenset of disjuncts``.

    Rows loaded from a :class:`BitRows` stay in the matrix: every loaded
    set gets a slot in ``_sets`` holding its ``(rows, set id)`` pair, the
    system keeps ``var -> slot``, and it decodes a set only when a solver or
    an inspection reaches it.  A variable defined a second time is
    materialized and unioned like any :meth:`add_equation`.
    """

    def __init__(self) -> None:
        self._equations: Dict[Var, FrozenSet[Disjunct]] = {}
        self._rows: Dict[Var, int] = {}
        self._sets: List[Tuple[BitRows, int]] = []
        self._num_disjuncts = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_equation(self, var: Var, disjuncts: Iterable[Disjunct]) -> None:
        """Define ``var``; redefinition unions the disjunct sets (idempotent
        for identical equations, which lets fragments be merged blindly)."""
        new = frozenset(disjuncts)
        old = self._equations.get(var)
        if old is None:
            slot = self._rows.pop(var, None)
            if slot is not None:
                owner, k = self._sets[slot]
                old = owner.frozen(k)
        if old is not None:
            new = old | new
            self._num_disjuncts -= len(old)
        self._equations[var] = new
        self._num_disjuncts += len(new)

    def update(self, equations: Mapping[Var, Iterable[Disjunct]]) -> None:
        """Add every equation of ``equations``; a :class:`BitRows` is loaded
        by reference."""
        if not isinstance(equations, BitRows):
            for var, disjuncts in equations.items():
                self.add_equation(var, disjuncts)
            return
        rows = equations.rows
        if self._rows.keys().isdisjoint(rows) and (
            not self._equations or self._equations.keys().isdisjoint(rows)
        ):
            base = len(self._sets)
            self._sets.extend(zip(repeat(equations), range(equations.num_sets)))
            self._rows.update(zip(rows, map(base.__add__, equations.row_set)))
            self._num_disjuncts += equations.num_entries()
        else:
            for var, k in zip(rows, equations.row_set):
                self.add_equation(var, equations.frozen(k))

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def variables(self) -> Iterator[Var]:
        return chain(self._equations, self._rows)

    def disjuncts_of(self, var: Var) -> FrozenSet[Disjunct]:
        slot = self._rows.get(var)
        if slot is not None:
            owner, k = self._sets[slot]
            return owner.frozen(k)
        return self._equations.get(var, frozenset())

    def _materialized(self) -> Dict[Var, FrozenSet[Disjunct]]:
        """Every equation as a frozenset (row-backed sets decoded)."""
        return {var: self.disjuncts_of(var) for var in self.variables()}

    def __len__(self) -> int:
        return len(self._equations) + len(self._rows)

    def __contains__(self, var: Var) -> bool:
        return var in self._equations or var in self._rows

    @property
    def num_disjuncts(self) -> int:
        return self._num_disjuncts

    def dependency_graph(self) -> DiGraph:
        """``Gd`` (Section 3): one node per variable, plus a ``TRUE`` node
        merged from every true-containing equation (Fig. 4, line 3)."""
        equations = self._materialized()
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

        Rows of one local SCC share one disjunct set (one frozenset, or one
        :class:`BitRows` set); an already-expanded set contributes nothing
        new, so it is skipped — a frozenset by identity, a loaded set by its
        slot, before it is even decoded — which keeps the search linear in
        *distinct* set content even when the nominal disjunct count is
        quadratic.
        """
        if start is TRUE:
            return True
        equations, rows, sets = self._equations, self._rows, self._sets
        seen: Set[Var] = {start}
        expanded_sets: Set[int] = set()
        expanded_slots = bytearray(len(sets))
        queue = deque([start])
        while queue:
            var = queue.popleft()
            slot = rows.get(var)
            if slot is not None:
                if expanded_slots[slot]:
                    continue
                expanded_slots[slot] = 1
                owner, k = sets[slot]
                disjuncts: Any = owner.disjuncts(k)
            else:
                disjuncts = equations.get(var)
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
        equations = self._materialized()
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
        equations = self._materialized()
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
