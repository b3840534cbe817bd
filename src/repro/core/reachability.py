"""disReach: distributed reachability via partial evaluation (Section 3).

The three steps of Fig. 3:

1. the coordinator posts ``qr(s, t)`` to every site, as is;
2. every site runs :func:`local_eval_reach` (procedure ``localEval``) on its
   fragment *in parallel*, producing one Boolean equation per in-node:
   ``Xv = ∨ {Xv' : v' ∈ oset, v' ∈ des(v, Fi)}``, with ``true`` replacing
   ``Xv'`` when ``v'`` is the target;
3. the coordinator assembles the equations into a Boolean Equation System
   and solves it with :func:`assemble_reach` (procedure ``evalDG``).

A fragment's equations travel as one :class:`ReachRows`: Section 3's
"|Fi.I| equations, each of |Fi.O| bits", literally — one ``uint64`` row per
in-node (plus a local ``s``), with column ``v'``'s bit at ``v'``'s id in
the fragmentation's interned ``Vf``
(:attr:`~repro.partition.fragment.Fragmentation.boundary_ids`) and
``true`` at bit 0.  The numpy kernel emits the matrix its condensation
sweep computes, the wire size is computed once from it, and the
coordinator stacks every fragment's rows into one matrix indexed by id
and solves ``evalDG`` as a bitset closure over it: the dependency
graph of Fig. 4 is that matrix, read as adjacency.  The ``{node:
frozenset}`` equations are decoded only for ``collect_details``.
disRPQ ships the same kind of matrix over (node, state) pair ids
(:mod:`repro.core.regular`).

Guarantees (Theorem 1): one visit per site, ``O(|Vf|^2)`` traffic,
``O(|Vf||Fm|)`` time — asserted by the test suite on every run.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import compress
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..distributed.cluster import SimulatedCluster
from ..graph.digraph import Node
from ..partition.fragment import Fragment
from ..serving.engine import execute_plans
from ..serving.plans import QueryPlan, endpoint_params
from .bes import BooleanEquationSystem, Disjunct
from .idrows import IdRows, boolean_size
from .kernels import reach_rows, resolve_kernel
from .options import EvalOptions
from .queries import ReachQuery
from .results import QueryResult


class ReachRows(IdRows):
    """One site's ``localEval`` answer: the paper's |Fi.I| × |Fi.O| bit matrix.

    The rows and columns of an :class:`~.idrows.IdRows` (the columns are
    the disjuncts the rows may hold: ``oset``, ``TRUE`` for the target);
    ``bits[i]`` is row ``i``'s ``uint64[words]`` bitset over ``Vf`` ids
    with ``true`` at bit 0.  ``size`` is the wire size and ``num_entries``
    the disjunct count, both computed once from the matrix when it is
    built.  ``rows[v]`` decodes to the frozenset of the equation ``Xv = ∨
    ...``, so it compares equal to the plain dict form.
    """

    __slots__ = ("bits", "num_entries")
    _payload = "bits"
    _args = "rows row_ids bits columns col_ids row_bytes col_bytes size num_entries".split()

    def __init__(
        self,
        rows: Sequence[Node],
        row_ids: Any,
        bits: Any,
        columns: Sequence[Disjunct],
        col_ids: Any,
        row_bytes: int,
        col_bytes: Any,
        size: Optional[int] = None,
        num_entries: Optional[int] = None,
    ) -> None:
        """Wrap the arrays (``int64`` ids and sizes, ``uint64[rows, words]``
        bits); the wire size and disjunct count are computed unless given."""
        self._init(rows, row_ids, bits, columns, col_ids, row_bytes, col_bytes)
        if size is None or num_entries is None:
            import numpy as np

            size, num_entries = boolean_size(np, bits, col_ids, self.row_bytes, col_bytes)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "num_entries", num_entries)

    @classmethod
    def _stack(cls, parts: Sequence["ReachRows"], where: Any, width: int) -> Tuple[Any]:
        # Bits sit at their ids, not their columns: narrower rows zero-pad.
        import numpy as np

        words = max((part.words for part in parts), default=1)
        bits = np.zeros((sum(map(len, parts)), words), dtype=np.uint64)
        at = 0
        for part in parts:
            bits[at : at + len(part), : part.words] = part.bits
            at += len(part)
        return (bits,)

    @property
    def words(self) -> int:
        """``uint64`` words per row."""
        return self.bits.shape[1]

    def _decode(self) -> Dict[Node, FrozenSet[Disjunct]]:
        import numpy as np

        flags = np.unpackbits(
            self.bits.astype("<u8", copy=False).view(np.uint8), axis=1, bitorder="little"
        )
        held = flags.take(self.col_ids, axis=1).astype(bool).tolist()
        return {var: frozenset(compress(self.columns, row)) for var, row in zip(self.rows, held)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReachRows(rows={len(self.rows)}, columns={len(self.columns)}, words={self.words})"


def local_eval_reach(
    fragment: Fragment,
    query: ReachQuery,
    kernel: Optional[str] = None,
) -> ReachRows:
    """Procedure ``localEval`` (Fig. 3) on one fragment.

    ``iset`` is ``Fi.I`` (plus ``s`` when local); ``oset`` is ``Fi.O`` (plus
    ``t`` when local).  For every ``v ∈ iset`` the equation's disjuncts are
    the ``oset`` members reachable from ``v`` inside the fragment, with the
    target contributing ``true``.  Rows and columns are sorted by ``repr``.

    The numpy kernel answers all ``des(v, Fi) ∩ oset`` questions in one
    sweep of the fragment's SCC condensation (:mod:`repro.core.kernels`);
    ``kernel`` is resolved, which rejects an unknown name.  Plans pass the
    resolved name; ``None`` falls back to the registry default for direct
    callers.
    """
    resolve_kernel(kernel)
    return reach_rows(fragment, query.source, query.target)


#: Frontier size up to which a closure level ORs rows as python ints.
_NARROW = 8


def assemble_reach(partials: Mapping[int, ReachRows], query: ReachQuery) -> bool:
    """Procedure ``evalDG`` (Fig. 4): is ``Xs`` true in the least fixpoint?

    Every fragment's rows are stacked into one ``uint64[rows, words]``
    matrix, indexed by ``Vf`` id — the dependency graph ``Gd`` as adjacency
    bitsets, ``s``'s row at id ``-1`` when ``s`` is outside ``Vf``.  A
    frontier closure from ``s``'s row then ORs in the rows of every newly
    reached id, level by level, until bit 0 (``true``) is set or nothing new
    is reached.  An id without a row is a variable no site defines:
    ``false``, as in the paper's formulas.

    A wide level is one ``take`` and OR-reduce over the stack; a level of
    at most ``_NARROW`` ids ORs their rows as python ints, which costs a
    fraction of the numpy calls' overhead.  On the e2e fixture's 160 seed-1
    reach queries, 357 levels are wide (47 585 ids) and 241 narrow (621
    ids): there python ints alone make the closure about 5x slower, numpy
    alone is within 10 %.  A deep dependency chain is where the narrow path
    counts: a 1 500-node path randomly cut into 4 fragments (about a
    thousand levels of one or two ids) closes in 1.3 ms with both and in
    8-9 ms with numpy alone.
    """
    import numpy as np

    parts = list(partials.values())
    for part in parts:
        at = part.position(query.source)
        if at >= 0:
            start = int(part.row_ids[at])
            break
    else:
        return False  # no site defines Xs
    if part.bits[at, 0] & 1:
        return True  # t is reachable from s inside s's fragment
    words = max(part.words for part in parts)
    ids = np.concatenate([part.row_ids for part in parts])
    # Every site's rows stacked, then one zero row: the row of each id no
    # site defines.  ``slot`` maps an id to its row; ``slot[-1]`` is a
    # local s's, past every id a frontier can hold.
    stack = np.zeros((len(ids) + 1, words), dtype="<u8")
    top = 0
    for part in parts:
        stack[top : top + len(part), : part.words] = part.bits
        top += len(part)
    slot = np.full(max(64 * words, int(ids.max()) + 1) + 1, len(ids))
    slot[ids] = np.arange(len(ids))
    width = 8 * words

    def row(i: int) -> int:
        return int.from_bytes(stack[slot[i]].tobytes(), "little")

    reach = frontier = row(start)
    while not reach & 1:
        if not frontier:
            return False
        if frontier.bit_count() <= _NARROW:
            new = 0
            while frontier:
                low = frontier & -frontier
                new |= row(low.bit_length() - 1)
                frontier ^= low
        else:
            (reached,) = np.unpackbits(
                np.frombuffer(frontier.to_bytes(width, "little"), dtype=np.uint8),
                bitorder="little",
            ).nonzero()
            new = int.from_bytes(
                np.bitwise_or.reduce(stack.take(slot.take(reached), axis=0), axis=0).tobytes(),
                "little",
            )
        frontier = new & ~reach
        reach |= new
    return True


class ReachPlan(QueryPlan):
    """``disReach`` decomposed for the batch engine (DESIGN.md §6).

    Cache-key soundness: a fragment's equations depend on the query only
    through ``iset``/``oset`` membership and the target→``true`` rewrite —
    i.e. on the source iff it is stored locally and not already an in-node,
    and on the target iff it appears in the local graph (owned or virtual).
    Everything else about (s, t) is invisible to ``localEval``, so the vast
    majority of fragments serve one shared, query-independent partial.
    """

    algorithm = "disReach"

    def __init__(
        self,
        query: Union[ReachQuery, Tuple[Node, Node]],
        options: EvalOptions = EvalOptions(),
    ) -> None:
        if not isinstance(query, ReachQuery):
            query = ReachQuery(*query)
        self.query = query
        # Resolved here (not at eval time) so the concrete kernel name
        # ships inside local_eval_args to socket brokers, independent of
        # their environment.
        self.options = options.resolved(self.algorithm)

    def validate(self, cluster: SimulatedCluster) -> None:
        cluster.site_of(self.query.source)  # validates existence
        cluster.site_of(self.query.target)

    def trivial(self) -> Optional[Tuple[bool, Dict[str, object]]]:
        if self.query.source == self.query.target:
            # The zero-length path: answered at the coordinator, no visits.
            return True, {"trivial": True}
        return None

    def broadcast_payload(self) -> ReachQuery:
        return self.query

    def local_eval(self) -> Callable:
        return local_eval_reach

    def local_eval_args(self) -> Tuple[object, ...]:
        return (self.query, self.options.kernel)

    def fragment_params(self, fragment: Fragment) -> Hashable:
        return endpoint_params(fragment, self.query.source, self.query.target)

    def merge_partials(self, parts: Sequence[ReachRows]) -> ReachRows:
        return ReachRows.concat(parts)

    def wrap_partial(self, site_equations: ReachRows) -> ReachRows:
        return site_equations

    def assemble(
        self, partials: Dict[int, ReachRows], collect_details: bool
    ) -> Tuple[bool, Dict[str, object]]:
        answer = assemble_reach(partials, self.query)
        details: Dict[str, object] = {
            "num_variables": sum(map(len, partials.values())),
            "num_disjuncts": sum(rows.num_entries for rows in partials.values()),
        }
        if collect_details:
            equations = {fid: dict(rows) for fid, rows in partials.items()}
            bes = BooleanEquationSystem()
            for rows in equations.values():
                bes.update(rows)
            details["equations"] = equations
            details["bes"] = bes
        return answer, details


def dis_reach(
    cluster: SimulatedCluster,
    query: Union[ReachQuery, Tuple[Node, Node]],
    collect_details: bool = False,
    kernel: Optional[str] = None,
) -> QueryResult:
    """Algorithm ``disReach`` (Fig. 3) on a simulated cluster.

    Evaluation is the batch-of-one special case of the serving engine
    (:func:`repro.serving.engine.execute_plans`): one plan, a throwaway
    cache, the same broadcast → parallel local evaluation → assemble
    message sequence and accounting as ever.
    """
    plan = ReachPlan(query, EvalOptions(kernel=kernel))
    batch = execute_plans(cluster, [plan], collect_details=collect_details)
    return batch.results[0]
