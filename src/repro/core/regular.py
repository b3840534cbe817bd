"""disRPQ: distributed regular reachability (Section 5).

The same partial-evaluation skeleton a third time, now over *(node, state)*
pairs of the query automaton ``Gq(R)``:

1. the coordinator compiles ``Gq(R)`` once and posts it to every site;
2. every site runs :func:`local_eval_regular` (procedures ``localEvalr`` /
   ``cmpRvec`` / ``cmposeVec``) producing, for every in-node ``v`` and every
   state ``u`` it may occupy, a Boolean formula over variables
   ``X(w, uw)`` — "virtual node ``w`` matches state ``uw``" — with ``true``
   for pairs that locally reach ``(t, ut)``;
3. the coordinator assembles the vectors into a BES over (node, state)
   variables and solves it (procedure ``evalDGr``): the answer is the value
   of ``X(s, us)`` (Lemma 4).

A fragment's vectors travel as one :class:`RegularRows`: Section 5's
(node, state) equations as a bit matrix over interned *pair ids*.  Pair
``(w, u)`` has id ``vf_id(w) · |Vq| + col(u)``, ``col`` being ``u``'s
column in ``automaton.states()``; ``Vf`` ids start at 1, so ``TRUE_ID`` 0
stays ``(t, ut)``.  A local source outside ``Vf`` counts down from ``-1``
(``(s, us)`` is ``-1``), and a local target outside ``Vf`` from ``-1 -
|Vq|``.  Each row's bits sit in the kernel's own seed-pair order, so a row
is as wide as its fragment's seeds need, not ``|Vf|·|Vq|`` bits (ROADMAP
item 17).  The kernel sizes the matrix once; the coordinator solves
``evalDGr`` as a closure over ids from the ``(s, us)`` row, and (node,
state) tuples are decoded only for the mapping view and
``collect_details``.

Instead of the paper's recursive ``cmpRvec`` memoization — which, as
written, does not terminate on cyclic fragments (the ``visit`` flag is only
set after the recursion returns) — we compute all vectors simultaneously
with one seed-bitmask sweep over the *local product graph* (fragment ×
``Gq``); DESIGN.md §3.2 documents the equivalence.

Guarantees (Theorem 3): one visit per site, ``O(|R|^2 |Vf|^2)`` traffic,
``O(|Fm||R|^2 + |R|^2|Vf|^2)`` time.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, compress
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..automata.query_automaton import US, UT, QueryAutomaton, State
from ..distributed.cluster import SimulatedCluster
from ..graph.digraph import Node
from ..partition.fragment import TRUE_ID, Fragment
from ..serving.engine import execute_plans
from ..serving.plans import QueryPlan, endpoint_params
from .bes import TRUE, BooleanEquationSystem, Disjunct
from .idrows import IdRows, boolean_size
from .kernels import regular_rows, resolve_kernel
from .options import EvalOptions
from .queries import RegularReachQuery
from .results import QueryResult

#: A (node, state) product pair — the variables of the regular BES.
Pair = Tuple[Node, State]


def _pair_key(pair: Pair) -> Tuple[str, bool, State]:
    """Node ``repr``, then state column (``US``, the positions, ``UT``)."""
    node, state = pair
    return repr(node), state == UT, state


class RegularRows(IdRows):
    """One site's ``localEvalr`` answer: Section 5's vectors as a bit matrix.

    The rows of an :class:`~.idrows.IdRows` are the (in-node, state) pairs
    (plus the local source's), the columns the (virtual node, state) pairs
    they may hold (``TRUE`` for ``(t, ut)``), all as pair ids over
    ``num_states`` columns.  ``bits[i]`` is row ``i``'s ``uint64[words]``
    bitset over the *columns*: column ``j`` at bit ``j``.  ``nodes`` and
    ``node_ids`` name the node behind each node id, so ``rows`` and
    ``columns`` are decoded from the ids only when asked for, in the
    reference's order: node ``repr``, then state column.

    ``size`` is the wire size and ``num_entries`` the disjunct count, both
    computed once from the matrix when it is built.  ``rows[p]`` decodes to
    the frozenset of the equation ``X(p) = ∨ ...``.
    """

    __slots__ = ("bits", "num_states", "nodes", "node_ids", "num_entries")
    _payload = "bits"
    _key = staticmethod(_pair_key)

    def __init__(
        self,
        rows: Optional[Sequence[Pair]],
        row_ids: Any,
        bits: Any,
        columns: Optional[Sequence[Disjunct]],
        col_ids: Any,
        row_bytes: int,
        col_bytes: Any,
        num_states: int,
        nodes: Sequence[Node],
        node_ids: Any,
        size: Optional[int] = None,
        num_entries: Optional[int] = None,
    ) -> None:
        """Wrap the arrays (``int64`` ids and sizes, ``uint64[rows, words]``
        bits); ``rows``/``columns`` may be ``None``, and the wire size and
        disjunct count are computed unless given."""
        self._init(rows, row_ids, bits, columns, col_ids, row_bytes, col_bytes)
        if bits.shape[1] != max(1, (len(col_ids) + 63) >> 6) or len(nodes) != len(node_ids):
            raise ValueError("RegularRows arrays disagree on rows or columns")
        if size is None or num_entries is None:
            import numpy as np

            size, num_entries = boolean_size(np, bits, None, self.row_bytes, col_bytes)
        set_ = object.__setattr__
        set_(self, "num_states", num_states)
        set_(self, "nodes", tuple(nodes))
        set_(self, "node_ids", node_ids)
        set_(self, "size", size)
        set_(self, "num_entries", num_entries)

    @classmethod
    def _stack(cls, parts: Sequence["RegularRows"], where: Any, width: int) -> Tuple[Any, ...]:
        # Bits sit at their columns: each part's are moved to the shared ones.
        import numpy as np

        held = np.zeros((sum(map(len, parts)), max(1, (width + 63) >> 6) * 64), dtype=bool)
        row = col = 0
        for part in parts:
            ncols = len(part.col_ids)
            flags = np.unpackbits(
                part.bits.astype("<u8", copy=False).view(np.uint8), axis=1, bitorder="little"
            )
            held[row : row + len(part), where[col : col + ncols]] = flags[:, :ncols]
            row += len(part)
            col += ncols
        bits = np.packbits(held, axis=1, bitorder="little").view("<u8").astype(np.uint64)
        nodes = tuple(node for part in parts for node in part.nodes)
        node_ids = np.concatenate([part.node_ids for part in parts])
        return bits, parts[0].num_states, nodes, node_ids

    def __reduce__(self):
        # The arrays travel as one int64 buffer (each numpy array pickles
        # with its own header, several times this buffer's cost), and the
        # pairs decoded from them never do.
        import numpy as np

        bits = self.bits.reshape(-1).view(np.int64)
        flat = np.concatenate((self.row_ids, self.col_ids, self.col_bytes, self.node_ids, bits))
        return (
            _from_wire,
            (
                flat.tobytes(),
                len(self.row_ids),
                len(self.col_ids),
                self.row_bytes,
                self.num_states,
                self.nodes,
                self.size,
                self.num_entries,
            ),
        )

    def _name(self) -> None:
        node_of = dict(zip(self.node_ids.tolist(), self.nodes))
        last = self.num_states - 1

        def pair(pair_id: int) -> Disjunct:
            if pair_id == TRUE_ID:
                return TRUE
            if pair_id > 0:
                node_id, col = divmod(pair_id, self.num_states)
            else:
                block, col = divmod(~pair_id, self.num_states)
                node_id = ~block
            return node_of[node_id], US if col == 0 else UT if col == last else col - 1

        set_ = object.__setattr__
        set_(self, "_rows", tuple(map(pair, self.row_ids.tolist())))
        set_(self, "_columns", tuple(map(pair, self.col_ids.tolist())))

    def _decode(self) -> Dict[Pair, FrozenSet[Disjunct]]:
        import numpy as np

        flags = np.unpackbits(
            self.bits.astype("<u8", copy=False).view(np.uint8), axis=1, bitorder="little"
        )
        held = flags[:, : len(self.col_ids)].astype(bool).tolist()
        return {var: frozenset(compress(self.columns, row)) for var, row in zip(self.rows, held)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RegularRows(rows={len(self)}, columns={len(self.col_ids)}, "
            f"entries={self.num_entries})"
        )


def _from_wire(
    buffer: bytes,
    num_rows: int,
    num_cols: int,
    row_bytes: int,
    num_states: int,
    nodes: Tuple[Node, ...],
    size: int,
    num_entries: int,
) -> RegularRows:
    """A :class:`RegularRows` from its pickled buffer (``__reduce__``)."""
    import numpy as np

    flat = np.frombuffer(buffer, dtype=np.int64)
    a, b, c, d = accumulate((num_rows, num_cols, num_cols, len(nodes)))
    bits = flat[d:].view(np.uint64).reshape(num_rows, max(1, (num_cols + 63) >> 6))
    return RegularRows(
        None,
        flat[:a],
        bits,
        None,
        flat[a:b],
        row_bytes,
        flat[b:c],
        num_states,
        nodes,
        flat[c:d],
        size,
        num_entries,
    )


def local_eval_regular(
    fragment: Fragment,
    automaton: QueryAutomaton,
    kernel: Optional[str] = None,
) -> RegularRows:
    """Procedures ``localEvalr``/``cmpRvec`` (Fig. 7) on one fragment.

    Every consistent (node, state) pair of the local product graph is a
    product vertex; seeds are the boundary pairs — ``(w, uw)`` for virtual
    ``w`` — plus ``(t, ut)`` when the target is local, which contributes
    ``true``.  The returned equations cover every in-node (and the source,
    when local) at every state it matches, sorted by node ``repr`` and
    then in ``automaton.states()`` order, as one :class:`RegularRows`.
    The numpy kernel sweeps the product closure over a ``[states, V,
    words]`` bitset cube, one transition at a time in the order of
    ``automaton.compiled`` — built by the plan at the coordinator, or here
    on first use when called bare (:mod:`repro.core.kernels`); ``kernel``
    is resolved, which rejects an unknown name.
    """
    resolve_kernel(kernel)
    return regular_rows(fragment, automaton)


def assemble_regular(partials: Mapping[int, RegularRows], automaton: QueryAutomaton) -> bool:
    """Procedure ``evalDGr``: is ``X(s, us)`` true in the least fixpoint?

    ``us`` occurs only at ``s``, so the start row is the one row whose pair
    id is in ``us``'s column: ``-1``, or a positive multiple of ``|Vq|``.
    From it, a closure over pair ids reads only the rows it reaches: each
    reached column's id maps to its row through a slot array (built on the
    first step past the start row), and a part's column is followed once,
    however many of its rows hold it.  ``TRUE_ID`` is ``(t, ut)``; an id
    without a row is a variable no site defines: ``false``, as in the
    paper's formulas.
    """
    import numpy as np

    num_states = automaton.num_states
    parts = list(partials.values())
    if not parts:
        return False
    ids = np.concatenate([part.row_ids for part in parts])
    (found,) = (ids == -1).nonzero()  # s outside Vf, the common case
    if not found.size:
        (found,) = ((ids % num_states == 0) & (ids > 0)).nonzero()
        if not found.size:
            return False  # no site defines X(s, us)
    offsets = [0, *accumulate(map(len, parts))]
    slot: Any = None
    held = [0] * len(parts)
    columns: list = [None] * len(parts)
    queue = [int(found[0])]
    seen = {int(ids[queue[0]])}
    while queue:
        at = queue.pop()
        index = bisect_right(offsets, at) - 1
        part = parts[index]
        new = int.from_bytes(part.bits[at - offsets[index]].tobytes(), "little") & ~held[index]
        if not new:
            continue
        held[index] |= new
        col_ids = columns[index]
        if col_ids is None:
            col_ids = columns[index] = part.col_ids.tolist()
        while new:
            low = new & -new
            new ^= low
            var = col_ids[low.bit_length() - 1]
            if var == TRUE_ID:
                return True
            if var in seen:
                continue
            seen.add(var)
            if slot is None:
                # Each id's index in the stacked rows (-1: no row); a local
                # s's negative ids sit in the last |Vq| slots.
                top = int(ids.max())
                slot = np.full(top + 1 + num_states, -1)
                slot[ids] = np.arange(len(ids))
            if -num_states <= var <= top and slot[var] >= 0:
                queue.append(int(slot[var]))
    return False


class RegularReachPlan(QueryPlan):
    """``disRPQ`` decomposed for the batch engine (DESIGN.md §6).

    The automaton travels in the cache key as its Glushkov *analysis*
    (structural regex identity): the local product sweep is determined by
    the analysis plus label matching, never by which concrete regex text
    produced it.  Endpoint relevance differs from the Boolean case in one
    spot: a locally stored source always matters — even as an in-node it
    adds the ``(s, us)`` product root, which no other node can occupy.
    """

    algorithm = "disRPQ"

    def __init__(
        self,
        query: Union[RegularReachQuery, Tuple[Node, Node, object]],
        options: EvalOptions = EvalOptions(),
    ) -> None:
        if not isinstance(query, RegularReachQuery):
            query = RegularReachQuery(*query)
        self.query = query
        # Step 1: the coordinator builds Gq(R) once and posts it (not the
        # raw regex) to every site — its size is O(|R|), independent of |G|;
        # its compiled tables are built here once and travel inside it.
        self.automaton = query.automaton()
        self.automaton.compiled
        self.options = options.resolved(self.algorithm)

    def validate(self, cluster: SimulatedCluster) -> None:
        cluster.site_of(self.query.source)
        cluster.site_of(self.query.target)

    def trivial(self) -> Optional[Tuple[bool, Dict[str, object]]]:
        if self.query.source == self.query.target and self.automaton.analysis.nullable:
            return True, {"trivial": True}
        return None

    def broadcast_payload(self) -> QueryAutomaton:
        return self.automaton

    def local_eval(self) -> Callable:
        return local_eval_regular

    def local_eval_args(self) -> Tuple[object, ...]:
        return (self.automaton, self.options.kernel)

    def fragment_params(self, fragment: Fragment) -> Hashable:
        return (
            self.automaton.analysis,
            *endpoint_params(
                fragment,
                self.query.source,
                self.query.target,
                source_matters_as_in_node=True,
            ),
        )

    def merge_partials(self, parts: Sequence[RegularRows]) -> RegularRows:
        return RegularRows.concat(parts)

    def wrap_partial(self, site_equations: RegularRows) -> RegularRows:
        return site_equations

    def assemble(
        self, partials: Dict[int, RegularRows], collect_details: bool
    ) -> Tuple[bool, Dict[str, object]]:
        answer = assemble_regular(partials, self.automaton)
        details: Dict[str, object] = {
            "num_variables": sum(map(len, partials.values())),
            "num_disjuncts": sum(rows.num_entries for rows in partials.values()),
            "automaton_states": self.automaton.num_states,
            "automaton_transitions": self.automaton.num_transitions,
        }
        if collect_details:
            equations = {fid: dict(rows) for fid, rows in partials.items()}
            bes = BooleanEquationSystem()
            for rows in equations.values():
                bes.update(rows)
            details["equations"] = equations
            details["bes"] = bes
            details["automaton"] = self.automaton
        return answer, details


def dis_rpq(
    cluster: SimulatedCluster,
    query: Union[RegularReachQuery, Tuple[Node, Node, object]],
    collect_details: bool = False,
    kernel: Optional[str] = None,
) -> QueryResult:
    """Algorithm ``disRPQ`` (Section 5.2) on a simulated cluster.

    The batch-of-one special case of the serving engine; see
    :func:`repro.core.reachability.dis_reach`.
    """
    plan = RegularReachPlan(query, EvalOptions(kernel=kernel))
    batch = execute_plans(cluster, [plan], collect_details=collect_details)
    return batch.results[0]
