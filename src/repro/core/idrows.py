"""A site's partial answer as a matrix over interned ``Vf`` ids.

disReach's :class:`~repro.core.reachability.ReachRows` and disDist's
:class:`~repro.core.bounded.HopRows` store the paper's |Fi.I| × |Fi.O|
equations the same way: one row per variable with its ``Vf`` id
(:attr:`~repro.partition.fragment.Fragmentation.boundary_ids`; ``-1`` for
a local source outside ``Vf``), and one column per distinct id (``TRUE_ID``
for the target), each with its modeled id size.  :class:`IdRows` holds
that layout; a subclass adds the payload array, its wire sizing and its
decoding (DESIGN.md §3.1).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping
from typing import Any, Dict, Iterator, Sequence, Tuple

from ..graph.digraph import Node


class IdRows(Mapping):
    """Rows and columns over ``Vf`` ids, plus one payload array.

    ``rows`` are the variables in ascending ``repr`` order and ``row_ids``
    their ids; ``columns`` are what the rows may reference, ``col_ids``
    their ids and ``col_bytes`` their modeled id sizes; ``row_bytes`` sums
    the variables'.  The payload (the field a subclass names in
    ``_payload``) has one row per variable.  ``size`` is the wire size,
    computed once by the subclass.

    As a read-only mapping, ``rows[v]`` decodes to ``v``'s equation in the
    plain dict form; the subclass's ``_decode`` runs once, on first access.
    """

    __slots__ = (
        "rows",
        "row_ids",
        "columns",
        "col_ids",
        "row_bytes",
        "col_bytes",
        "size",
        "_equations",
    )

    #: The payload field, and the constructor's parameters in order.
    _payload = ""
    _args: Sequence[str] = ()

    def _init(
        self,
        rows: Sequence[Node],
        row_ids: Any,
        payload: Any,
        columns: Sequence[Any],
        col_ids: Any,
        row_bytes: int,
        col_bytes: Any,
    ) -> None:
        """Set the common fields and the payload, and check their shapes."""
        set_ = object.__setattr__
        set_(self, "rows", tuple(rows))
        set_(self, "row_ids", row_ids)
        set_(self, self._payload, payload)
        set_(self, "columns", tuple(columns))
        set_(self, "col_ids", col_ids)
        set_(self, "row_bytes", int(row_bytes))
        set_(self, "col_bytes", col_bytes)
        set_(self, "_equations", None)
        if (
            payload.ndim != 2
            or not len(self.rows) == len(row_ids) == payload.shape[0]
            or not len(self.columns) == len(col_ids) == len(col_bytes)
        ):
            raise ValueError(f"{type(self).__name__} arrays disagree on rows or columns")

    @classmethod
    def concat(cls, parts: Sequence["IdRows"]) -> "IdRows":
        """One matrix holding every part's rows, as a site holding several
        fragments ships them: rows in ``repr`` order, columns shared by id,
        the wire size computed over the whole.  The parts must define
        disjoint rows."""
        import numpy as np

        rows = [var for part in parts for var in part.rows]
        if len(set(rows)) != len(rows):
            raise ValueError(f"{cls.__name__}.concat: parts define a row twice")
        empty = [np.zeros(0, np.int64)]
        col_ids, first, where = np.unique(
            np.concatenate([part.col_ids for part in parts] or empty),
            return_index=True,
            return_inverse=True,
        )
        payload, *extra = cls._stack(parts, where, len(col_ids))
        keys = list(map(repr, rows))
        order = sorted(range(len(rows)), key=keys.__getitem__)
        columns = [column for part in parts for column in part.columns]
        return cls(
            [rows[i] for i in order],
            np.concatenate([part.row_ids for part in parts] or empty)[order],
            payload[order],
            map(columns.__getitem__, first.tolist()),
            col_ids,
            sum(part.row_bytes for part in parts),
            np.concatenate([part.col_bytes for part in parts] or empty).take(first),
            *extra,
        )

    @classmethod
    def _stack(cls, parts: Sequence["IdRows"], where: Any, width: int) -> Tuple[Any, ...]:
        """The parts' payloads stacked in part order, over the shared
        columns (part ``k``'s column ``j`` is shared column ``where[offset
        + j]``, of ``width``), then any constructor arguments after
        ``col_bytes``."""
        raise NotImplementedError

    def _decode(self) -> Dict[Node, Any]:
        """The ``{variable: equation}`` dict form of the payload."""
        raise NotImplementedError

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # Every constructor argument, the computed size included.
        return (type(self), tuple(getattr(self, name) for name in self._args))

    def payload_size(self) -> int:
        """The modeled wire size (DESIGN.md §3.1), computed at construction."""
        return self.size

    def position(self, node: Node) -> int:
        """The row index of ``node`` (``-1`` if it has none).

        Rows are in ascending ``repr`` order, so this is a binary search;
        nodes with equal ``repr`` are told apart by ``==``.
        """
        rows = self.rows
        key = repr(node)
        at = bisect_left(rows, key, key=repr)
        while at < len(rows) and repr(rows[at]) == key:
            if rows[at] == node:
                return at
            at += 1
        return -1

    def _decoded(self) -> Dict[Node, Any]:
        equations = self._equations
        if equations is None:
            equations = self._decode()
            object.__setattr__(self, "_equations", equations)
        return equations

    def __getitem__(self, var: Node) -> Any:
        return self._decoded()[var]

    def __iter__(self) -> Iterator[Node]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)
