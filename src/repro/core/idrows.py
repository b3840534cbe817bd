"""A site's partial answer as a matrix over interned ids.

disReach's :class:`~repro.core.reachability.ReachRows`, disDist's
:class:`~repro.core.bounded.HopRows` and disRPQ's
:class:`~repro.core.regular.RegularRows` store the paper's |Fi.I| × |Fi.O|
equations the same way: one row per variable with its id, and one column
per distinct id (``TRUE_ID`` for the target, or for ``(t, ut)``), each
with its modeled id size.  The ids are ``Vf`` ids
(:attr:`~repro.partition.fragment.Fragmentation.boundary_ids`; ``-1`` for
a local source outside ``Vf``) for nodes, and pair ids for disRPQ's
(node, state) pairs.  :class:`IdRows` holds that layout; a subclass adds
the payload array, its wire sizing and its decoding (DESIGN.md §3.1).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple


def boolean_size(
    np, bits: Any, col_bits: Optional[Any], row_bytes: int, col_bytes: Any
) -> Tuple[int, int]:
    """``(wire bytes, disjuncts)`` of a Boolean bit matrix whose column ``j``
    is bit ``col_bits[j]`` (bit ``j`` when ``col_bits`` is ``None``), in
    :func:`~repro.distributed.messages.equation_set_size`'s format.

    The used columns are the OR of every row; each row costs the cheaper of
    the dense bitset over them and its sparse list (``2 * popcount + 2``).
    """
    if not (bits.shape[0] and len(col_bytes)):
        return 2 + row_bytes, 0  # no row or no column: no bit is set
    counts = np.bitwise_count(bits).sum(axis=1)
    used = np.bitwise_or.reduce(bits, axis=0)
    flags = np.unpackbits(used.astype("<u8", copy=False).view(np.uint8), bitorder="little")
    dense = (int(np.count_nonzero(flags)) + 7) // 8
    held = flags[: len(col_bytes)] if col_bits is None else flags.take(col_bits)
    col_total = int(np.dot(col_bytes, held))
    row_total = int(np.minimum(counts * 2 + 2, dense).sum())
    return 2 + row_bytes + col_total + row_total, int(counts.sum())


class IdRows(Mapping):
    """Rows and columns over interned ids, plus one payload array.

    ``rows`` are the variables in ascending ``_key`` order (``repr`` by
    default) and ``row_ids`` their ids; ``columns`` are what the rows may
    reference, ``col_ids`` their ids and ``col_bytes`` their modeled id
    sizes; ``row_bytes`` sums the variables'.  The payload (the field a
    subclass names in ``_payload``) has one row per variable.  ``size`` is
    the wire size, computed once by the subclass.

    ``rows`` and ``columns`` may be left out (``None``): a subclass whose
    ids name them decodes both on first access, in ``_name``.  As a
    read-only mapping, ``rows[v]`` decodes to ``v``'s equation in the plain
    dict form; the subclass's ``_decode`` runs once, on first access.
    """

    __slots__ = (
        "_rows",
        "row_ids",
        "_columns",
        "col_ids",
        "row_bytes",
        "col_bytes",
        "size",
        "_equations",
    )

    #: The payload field, and the constructor's parameters in order.
    _payload = ""
    _args: Sequence[str] = ()
    #: The rows' sort key.
    _key = staticmethod(repr)

    def _init(
        self,
        rows: Optional[Sequence[Any]],
        row_ids: Any,
        payload: Any,
        columns: Optional[Sequence[Any]],
        col_ids: Any,
        row_bytes: int,
        col_bytes: Any,
    ) -> None:
        """Set the common fields and the payload, and check their shapes."""
        set_ = object.__setattr__
        set_(self, "_rows", None if rows is None else tuple(rows))
        set_(self, "row_ids", row_ids)
        set_(self, self._payload, payload)
        set_(self, "_columns", None if columns is None else tuple(columns))
        set_(self, "col_ids", col_ids)
        set_(self, "row_bytes", int(row_bytes))
        set_(self, "col_bytes", col_bytes)
        set_(self, "_equations", None)
        if (
            payload.ndim != 2
            or len(row_ids) != payload.shape[0]
            or len(col_ids) != len(col_bytes)
            or self._rows is not None and len(self._rows) != len(row_ids)
            or self._columns is not None and len(self._columns) != len(col_ids)
        ):
            raise ValueError(f"{type(self).__name__} arrays disagree on rows or columns")

    @property
    def rows(self) -> Tuple[Any, ...]:
        """The variables, in ``row_ids`` order."""
        if self._rows is None:
            self._name()
        return self._rows

    @property
    def columns(self) -> Tuple[Any, ...]:
        """What the rows may reference, in ``col_ids`` order."""
        if self._columns is None:
            self._name()
        return self._columns

    @classmethod
    def concat(cls, parts: Sequence["IdRows"]) -> "IdRows":
        """One matrix holding every part's rows, as a site holding several
        fragments ships them: rows in ``_key`` order, columns shared by id,
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
        keys = list(map(cls._key, rows))
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

    def _name(self) -> None:
        """Decode ``rows`` and ``columns`` from the ids."""
        raise NotImplementedError

    def _decode(self) -> Dict[Any, Any]:
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

    def position(self, node: Any) -> int:
        """The row index of ``node`` (``-1`` if it has none).

        Rows are in ascending ``_key`` order, so this is a binary search;
        nodes with equal keys are told apart by ``==``.
        """
        rows, order = self.rows, self._key
        key = order(node)
        at = bisect_left(rows, key, key=order)
        while at < len(rows) and order(rows[at]) == key:
            if rows[at] == node:
                return at
            at += 1
        return -1

    def _decoded(self) -> Dict[Any, Any]:
        equations = self._equations
        if equations is None:
            equations = self._decode()
            object.__setattr__(self, "_equations", equations)
        return equations

    def __getitem__(self, var: Any) -> Any:
        return self._decoded()[var]

    def __iter__(self) -> Iterator[Any]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.row_ids)
