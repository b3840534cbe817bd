"""Message kinds and the byte-accounting model for network traffic.

The paper's traffic bounds count *what crosses the network*: queries and
automata going out, equation/vector sets coming back (Sections 3–6).  The
simulator therefore charges every inter-site payload with a deterministic,
documented size — :func:`payload_size` — rather than ``sys.getsizeof`` (which
measures Python overhead, not wire bytes):

======================  =======================================================
value                   charged bytes
======================  =======================================================
bool / None             1
int                     8 (one machine word; ids and distances)
float                   8
str                     UTF-8 length (node ids, labels)
tuple/list/set/frozen   2 + Σ element sizes  (2-byte length header)
dict                    2 + Σ (key + value) sizes
dataclass-like          size of its ``__dict__`` / slots, + 2
======================  =======================================================

The model is intentionally simple; what matters for the reproduction is that
it is *monotone in content* and identical across algorithms, so the paper's
comparative claims (disReach ships ~9% of disReachn, disRPQ ships ≤25% of
disRPQd, ...) are measured on equal footing.

Under the ``socket`` executor backend (DESIGN.md §5), wire objects really
do cross a process boundary: every payload type here — queries, automata,
the partial-answer dataclasses with their ``payload_size`` methods — must be
picklable, and the :data:`repro.core.bes.TRUE` / ``TARGET`` sentinels keep
singleton identity through pickling because their ``__new__`` returns the
per-process instance.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Iterable


class MessageKind(enum.Enum):
    """Why a payload crossed the network (used in reports and assertions)."""

    QUERY = "query"  # coordinator -> site: the query / query automaton
    PARTIAL = "partial"  # site -> coordinator: rvset partial answers
    DATA = "data"  # site -> coordinator: whole fragments (ship-all baselines)
    TOKEN = "token"  # Pregel-style vertex activation messages
    CONTROL = "control"  # master/worker control traffic ("idle", halting)
    REQUEST = "request"  # coordinator -> site: second-visit fetch (disRPQd)


@dataclass(frozen=True, slots=True)
class Message:
    """One simulated network transfer.

    A decoded view: :class:`~repro.distributed.stats.ExecutionStats` keeps
    its log as packed ints and builds these on demand
    (``stats.messages``), so no query's stats hold or pickle one object
    per transfer.
    """

    src: int  # site id, or COORDINATOR
    dst: int
    kind: MessageKind
    size_bytes: int


#: Pseudo site-id of the coordinator ``Sc``.
COORDINATOR = -1


def payload_size(payload: Any) -> int:
    """Charge ``payload`` according to the documented size model."""
    if payload is None or isinstance(payload, bool):
        return 1
    if isinstance(payload, (int, float)):
        return 8
    if isinstance(payload, str):
        return max(1, len(payload.encode("utf-8")))
    if isinstance(payload, bytes):
        return max(1, len(payload))
    if isinstance(payload, enum.Enum):
        return payload_size(payload.value)
    if hasattr(payload, "payload_size"):
        # Custom wire formats (bit-matrix partial answers, graphs) take
        # precedence over the generic structural rules below.
        return int(payload.payload_size())
    if isinstance(payload, dict):
        return 2 + sum(payload_size(k) + payload_size(v) for k, v in payload.items())
    if isinstance(payload, (tuple, list, set, frozenset)):
        return 2 + sum(payload_size(item) for item in payload)
    if is_dataclass(payload):
        return 2 + sum(
            payload_size(getattr(payload, f.name)) for f in fields(payload)
        )
    raise TypeError(f"cannot size payload of type {type(payload).__name__}")


def equation_set_size(
    row_ids: Iterable[Any],
    col_ids: Iterable[Any],
    row_counts: Iterable[int],
    num_cols: int,
) -> int:
    """Wire size of a partial-answer equation set, in the paper's format.

    Section 3's accounting: "Fi.rvset has |Fi.I| equations, each of |Fi.O|
    bits" — one bit-matrix row per in-node over a shared column table of
    boundary ids.  Each row is charged the *cheaper* of the dense bitset
    (⌈cols/8⌉ bytes) and a sparse index list (2 bytes per set column), as
    any practical encoder would choose; both stay within the O(|Vf|^2)
    bound of Theorem 1 (and its |R|^2-scaled analog in Theorem 3).
    """
    total = 2 + sum(map(payload_size, row_ids)) + sum(map(payload_size, col_ids))
    dense_row = (num_cols + 7) // 8
    for count in row_counts:
        total += min(dense_row, 2 * count + 2)
    return total
