"""Min-plus (tropical) equation systems and their solvers (procedure evalDGd).

Bounded reachability replaces Boolean disjunction with minimization over
distances (Section 4): each in-node ``v`` yields

    Xv = min( Xv' + dist_Fi(v, v') , ... )

where ``Xv'`` denotes ``dist(v', t)`` and the term for ``v' = t`` has
``Xt = 0``.  The coordinator view of this system is a *weighted dependency
graph* ``Gd`` (Fig. 5(b)) with a distinguished target vertex, on which
Dijkstra computes ``dist(s, t)`` in ``O(|Ed| + |Vd| log |Vd|)`` [32].

A site ships its terms as one :class:`BoundedRows` sparse distance matrix,
which the system loads by reference: Dijkstra decodes a row only when it
settles that variable.  A Bellman–Ford fixpoint solver is kept as the
property-test oracle.
"""

from __future__ import annotations

import heapq
import sys
from array import array
from collections.abc import Mapping
from itertools import chain, repeat
from typing import (
    Any,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..graph.digraph import DiGraph
from .bes import int64s

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


#: Every byte value without its sign bit: what ``_any_negative`` strips.
_NON_NEGATIVE_BYTES = bytes(range(0x80))
#: Offset of an int64's most significant byte in its native layout.
_SIGN_BYTE = 7 if sys.byteorder == "little" else 0


def _any_negative(values: array) -> bool:
    """Whether an ``array('q')`` holds a negative value.

    Reads only the sign-carrying byte of each value, in C: several times
    faster than ``min`` over the array, which boxes every element.
    """
    return bool(values.tobytes()[_SIGN_BYTE::8].translate(None, _NON_NEGATIVE_BYTES))


class BoundedRows(Mapping):
    """One partial answer of ``localEvald`` as a sparse distance matrix.

    ``rows`` are the equation variables (the in-nodes, plus ``s`` when
    local), ``columns`` the term variables (``TARGET`` for ``t``).  Row
    ``i``'s terms are ``(columns[cols[k]], dists[k])`` for ``k`` in
    ``starts[i]:starts[i + 1]`` — CSR over three ``array('q')`` buffers, so
    a kernel hands its distance matrix over without building a tuple per
    term, pickling is three buffer copies, and the wire size is arithmetic
    over the buffers (DESIGN.md §3.1).  ``row_bytes`` and ``col_bytes`` are
    the modeled id sizes, as in :class:`~repro.core.bes.BitRows`.

    As a read-only mapping, ``rows[v]`` decodes to the term tuple the
    paper's ``Xv = min(Xv' + d, ...)`` lists, distances as floats, so it
    compares equal to (and converts to) the plain dict form.  Stdlib only:
    decoding a row never needs numpy.
    """

    __slots__ = (
        "rows",
        "columns",
        "starts",
        "cols",
        "dists",
        "row_bytes",
        "col_bytes",
        "_index",
    )

    def __init__(
        self,
        rows: Sequence[Hashable],
        columns: Sequence[Hashable],
        starts: Any,
        cols: Any,
        dists: Any,
        row_bytes: Optional[int] = None,
        col_bytes: Any = None,
    ) -> None:
        """Wrap row starts, column ids and hop distances (arrays, int
        iterables or native int64 bytes); id sizes left out are computed."""
        set_ = object.__setattr__
        set_(self, "rows", tuple(rows))
        set_(self, "columns", tuple(columns))
        set_(self, "starts", int64s(starts))
        set_(self, "cols", int64s(cols))
        set_(self, "dists", int64s(dists))
        if row_bytes is None or col_bytes is None:
            from ..distributed.messages import payload_size

            if row_bytes is None:
                row_bytes = sum(map(payload_size, self.rows))
            if col_bytes is None:
                col_bytes = map(payload_size, self.columns)
        set_(self, "row_bytes", int(row_bytes))
        set_(self, "col_bytes", int64s(col_bytes))
        set_(self, "_index", None)
        if (
            len(self.starts) != len(self.rows) + 1
            or len(self.cols) != len(self.dists)
            or len(self.col_bytes) != len(self.columns)
        ):
            raise ValueError("BoundedRows buffers disagree on rows or terms")

    @classmethod
    def from_lists(
        cls,
        rows: Sequence[Hashable],
        columns: Sequence[Hashable],
        terms: Iterable[Iterable[Tuple[int, int]]],
        row_bytes: Optional[int] = None,
        col_bytes: Any = None,
    ) -> "BoundedRows":
        """Build from per-row ``(column index, hops)`` lists, one per row."""
        starts = array("q", [0])
        cols = array("q")
        dists = array("q")
        for row in terms:
            for column, hops in row:
                cols.append(column)
                dists.append(hops)
            starts.append(len(cols))
        return cls(rows, columns, starts, cols, dists, row_bytes, col_bytes)

    @classmethod
    def concat(cls, parts: Sequence["BoundedRows"]) -> "BoundedRows":
        """One matrix holding every part's rows, columns re-tabled by variable.

        What a site holding several fragments ships: a shared column table,
        so a variable two parts both reference is one column.
        """
        column_of: Dict[Hashable, int] = {}
        col_bytes = array("q")
        rows: List[Hashable] = []
        starts = array("q", [0])
        cols = array("q")
        dists = array("q")
        row_bytes = 0
        for part in parts:
            remap = []
            for var, size in zip(part.columns, part.col_bytes):
                j = column_of.get(var)
                if j is None:
                    j = column_of[var] = len(col_bytes)
                    col_bytes.append(size)
                remap.append(j)
            base = len(cols)
            rows.extend(part.rows)
            starts.extend(base + start for start in part.starts[1:])
            cols.extend(map(remap.__getitem__, part.cols))
            dists.extend(part.dists)
            row_bytes += part.row_bytes
        if len(set(rows)) != len(rows):
            raise ValueError("BoundedRows.concat: parts define a row twice")
        return cls(rows, tuple(column_of), starts, cols, dists, row_bytes, col_bytes)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return (
            BoundedRows,
            (
                self.rows,
                self.columns,
                self.starts,
                self.cols,
                self.dists,
                self.row_bytes,
                self.col_bytes,
            ),
        )

    # -- decoding ------------------------------------------------------------
    def row_terms(self, i: int) -> Iterator[Tuple[Hashable, int]]:
        """Row ``i``'s ``(variable, hops)`` pairs, decoded lazily."""
        a, b = self.starts[i], self.starts[i + 1]
        return zip(map(self.columns.__getitem__, self.cols[a:b]), self.dists[a:b])

    def row(self, i: int) -> Tuple[Term, ...]:
        """Row ``i`` as the equation's term tuple (float distances)."""
        return tuple((var, float(hops)) for var, hops in self.row_terms(i))

    def __getitem__(self, var: Hashable) -> Tuple[Term, ...]:
        index = self._index
        if index is None:
            index = {row: i for i, row in enumerate(self.rows)}
            object.__setattr__(self, "_index", index)
        return self.row(index[var])

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BoundedRows(rows={len(self.rows)}, terms={len(self.cols)})"


class MinPlusSystem:
    """``var -> {successor: weight}`` with min-merge on duplicate terms.

    Rows loaded from a :class:`BoundedRows` stay in the matrix: the system
    keeps ``var -> (matrix, row)`` and decodes a row only when a solver or
    an inspection reaches it.  A variable defined a second time is
    materialized and min-merged like any :meth:`add_equation`.
    """

    def __init__(self) -> None:
        self._terms: Dict[Var, Dict[Hashable, float]] = {}
        self._rows: Dict[Var, Tuple[BoundedRows, int]] = {}
        self._num_terms = 0

    # ------------------------------------------------------------------
    def add_equation(self, var: Var, terms: Iterable[Term]) -> None:
        """Define ``var = min(term, ...)``; re-adding keeps the min weight."""
        slot = self._terms.get(var)
        if slot is None:
            loaded = self._rows.pop(var, None)
            slot = {} if loaded is None else dict(loaded[0].row(loaded[1]))
            self._terms[var] = slot
        before = len(slot)
        for successor, weight in terms:
            if weight < 0:
                raise ValueError(f"negative distance {weight!r} in equation for {var!r}")
            if successor not in slot or weight < slot[successor]:
                slot[successor] = weight
        self._num_terms += len(slot) - before

    def update(self, equations: Mapping) -> None:
        """Add every equation of ``equations``; a :class:`BoundedRows` is
        loaded by reference."""
        if not isinstance(equations, BoundedRows):
            for var, terms in equations.items():
                self.add_equation(var, terms)
            return
        if _any_negative(equations.dists):
            raise ValueError(f"negative distance in {equations!r}")
        rows = equations.rows
        if self._terms.keys().isdisjoint(rows) and self._rows.keys().isdisjoint(rows):
            self._rows.update(zip(rows, zip(repeat(equations), range(len(rows)))))
            self._num_terms += len(equations.cols)
        else:
            for i, var in enumerate(rows):
                self.add_equation(var, equations.row(i))

    # ------------------------------------------------------------------
    def variables(self) -> Iterator[Var]:
        return chain(self._terms, self._rows)

    def terms_of(self, var: Var) -> Dict[Hashable, float]:
        loaded = self._rows.get(var)
        if loaded is not None:
            return dict(loaded[0].row(loaded[1]))
        return dict(self._terms.get(var, {}))

    def _materialized(self) -> Dict[Var, Dict[Hashable, float]]:
        """Every equation as ``{successor: weight}`` (rows decoded)."""
        return {var: self.terms_of(var) for var in self.variables()}

    def __len__(self) -> int:
        return len(self._terms) + len(self._rows)

    def __contains__(self, var: Var) -> bool:
        return var in self._terms or var in self._rows

    @property
    def num_terms(self) -> int:
        return self._num_terms

    def weighted_dependency_graph(self) -> Tuple[DiGraph, Dict[Tuple, float]]:
        """``Gd = (Vd, Ed, Ld, Wd)`` for inspection (Example 5 / Fig. 5(b))."""
        gd = DiGraph()
        weights: Dict[Tuple, float] = {}
        gd.add_node(TARGET, label="target")
        terms = self._materialized()
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
        terms, rows = self._terms, self._rows
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
            if slot is not None:
                edges: Iterable[Tuple[Hashable, float]] = slot.items()
            else:
                loaded = rows.get(var)
                if loaded is None:
                    continue
                edges = loaded[0].row_terms(loaded[1])
            for successor, weight in edges:
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
        terms = self._materialized()
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
