"""disDist: distributed bounded reachability (Section 4).

Same partial-evaluation skeleton as disReach, with distances in place of
Booleans:

* ``localEvald`` — for every in-node ``v``, ship the *min-plus terms*
  ``(Xv', dist_Fi(v, v'))`` for every boundary node ``v'`` that ``v``
  reaches within the query bound (``Xt`` is the constant 0);
* ``evalDGd`` — assemble the weighted dependency graph (Fig. 5(b)) and run
  Dijkstra from ``Xs``; answer ``true`` iff the distance to ``Xt`` is ≤ l.

A fragment's equations travel as one :class:`HopRows`: the paper's
|Fi.I| × |Fi.O| matrix of local hop distances, each column at its node's
id in the fragmentation's interned ``Vf``
(:attr:`~repro.partition.fragment.Fragmentation.boundary_ids`) and
``TARGET`` at ``TRUE_ID``.  The numpy kernel reads the matrix off its
level sweep, the wire size is computed once from it, and the coordinator
runs Dijkstra over ids with a bucket queue — weights are integer hops of
at most ``l`` — decoding only the rows it settles.  The ``{node: ((Xv',
hops), ...)}`` equations and their :class:`~.minplus.MinPlusSystem` are
built only for ``collect_details``.

Fidelity note (DESIGN.md §3.3): the paper prunes local legs with
``dist(v, v') < l``; we keep ``<= l``, since a leg of length exactly ``l``
ending at ``t`` still witnesses ``dist(s, t) <= l``.

Guarantees (Theorem 2): identical to Theorem 1 — one visit per site,
``O(|Vf|^2)`` traffic, ``O(|Fm||Vf|)`` time.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Mapping
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple, Union

from ..distributed.cluster import SimulatedCluster
from ..graph.digraph import Node
from ..partition.fragment import TRUE_ID, Fragment
from ..serving.engine import execute_plans
from ..serving.plans import QueryPlan, endpoint_params
from .idrows import IdRows
from .kernels import bounded_seed_rows, resolve_kernel
from .minplus import MinPlusSystem, Term
from .options import EvalOptions
from .queries import BoundedReachQuery
from .results import QueryResult


class HopRows(IdRows):
    """One site's ``localEvald`` answer: the paper's |Fi.I| × |Fi.O| hop matrix.

    The rows and columns of an :class:`~.idrows.IdRows` (the columns are
    ``oset``, ``TARGET`` for the target); ``hops[i, j]`` is the local hop
    distance from ``rows[i]`` to ``columns[j]``, and ``bound + 1`` marks
    "no term", so the matrix is the narrowest unsigned dtype that holds it.

    ``size`` is the wire size (:meth:`payload_size`): a shared column table
    of the used columns, then 2 bytes of column index + 4 bytes of distance
    per term, bounded by O(|Vf|^2) total as Theorem 2 requires.  It and
    ``num_terms`` are computed once from the matrix when it is built.
    ``rows[v]`` decodes to the term tuple the paper's ``Xv = min(Xv' + d,
    ...)`` lists, in column order with float distances, so it compares
    equal to the plain dict form.
    """

    __slots__ = ("hops", "bound", "num_terms")
    _payload = "hops"
    _args = "rows row_ids hops columns col_ids row_bytes col_bytes bound size num_terms".split()

    def __init__(
        self,
        rows: Sequence[Node],
        row_ids: Any,
        hops: Any,
        columns: Sequence[Hashable],
        col_ids: Any,
        row_bytes: int,
        col_bytes: Any,
        bound: int,
        size: Optional[int] = None,
        num_terms: Optional[int] = None,
    ) -> None:
        """Wrap the arrays (``int64`` ids and sizes, ``[rows, columns]``
        hops); the wire size and term count are computed unless given."""
        self._init(rows, row_ids, hops, columns, col_ids, row_bytes, col_bytes)
        if hops.shape[1] != len(self.columns):
            raise ValueError("HopRows arrays disagree on rows or columns")
        if size is None or num_terms is None:
            import numpy as np

            held = hops <= bound
            num_terms = int(np.count_nonzero(held))
            used = int(np.dot(col_bytes, held.any(axis=0)))
            size = 2 + self.row_bytes + used + 6 * num_terms
        set_ = object.__setattr__
        set_(self, "bound", bound)
        set_(self, "size", size)
        set_(self, "num_terms", num_terms)

    @classmethod
    def _stack(cls, parts: Sequence["HopRows"], where: Any, width: int) -> Tuple[Any, int]:
        # A part's missing columns are "no term".
        import numpy as np

        first = parts[0]
        hops = np.full((sum(map(len, parts)), width), first.bound + 1, first.hops.dtype)
        row = col = 0
        for part in parts:
            hops[row : row + len(part), where[col : col + len(part.columns)]] = part.hops
            row += len(part)
            col += len(part.columns)
        return hops, first.bound

    def _decode(self) -> Dict[Node, Tuple[Term, ...]]:
        bound, columns = self.bound, self.columns
        return {
            var: tuple((column, float(hops)) for column, hops in zip(columns, row) if hops <= bound)
            for var, row in zip(self.rows, self.hops.tolist())
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HopRows(rows={len(self)}, columns={len(self.columns)}, terms={self.num_terms})"


def local_eval_bounded(
    fragment: Fragment,
    query: BoundedReachQuery,
    kernel: Optional[str] = None,
) -> HopRows:
    """Procedure ``localEvald`` on one fragment.

    The numpy kernel propagates a per-seed bitset level by level, cut off
    at the bound, and reads each root's hop distances off one snapshot of
    the root rows per level (:mod:`repro.core.kernels`); ``kernel`` is
    resolved, which rejects an unknown name.  The result is a
    :class:`HopRows`: rows (``iset``) and columns (``oset``, the target as
    ``TARGET``) sorted by ``repr``.
    """
    resolve_kernel(kernel)
    return bounded_seed_rows(fragment, query.source, query.target, query.bound)


def assemble_bounded(
    partials: Mapping[int, HopRows], query: BoundedReachQuery
) -> Optional[float]:
    """Procedure ``evalDGd``: ``dist(s, t)`` if it is at most ``l``, else ``None``.

    Dijkstra over ``Vf`` ids from ``s``'s row (id ``-1`` when ``s`` is
    outside ``Vf``), with a bucket queue keyed by distance: weights are
    integer hops of at most ``l``.  Settling an id reads its row, in the
    part its id maps to, and pushes every column within the remaining
    bound; the first settled ``TRUE_ID`` is ``Xt``.  An id without a row
    is a variable no site defines: a dead end, as in the paper's formulas.
    Only settled rows are read, and the id map is one ``int64`` per id.
    """
    import numpy as np

    bound = query.bound
    parts = list(partials.values())
    for part in parts:
        row = part.position(query.source)
        if row >= 0:
            break
    else:
        return None  # no site defines Xs
    start = int(part.row_ids[row])
    slot: Any = None
    settled = set()
    buckets: Dict[int, List[int]] = {0: [start]}
    while buckets:
        dist = min(buckets)
        for var in buckets.pop(dist):
            if var in settled:
                continue
            settled.add(var)
            if var == TRUE_ID:
                return float(dist)
            if var != start:
                if slot is None:
                    # Built on the first settle past s (most queries on the
                    # e2e fixture end at s's row): each id's index in the
                    # parts' stacked rows (-1: no row); s's id -1 has the
                    # extra last slot.
                    ids = np.concatenate([part.row_ids for part in parts])
                    top = int(ids.max())
                    slot = np.full(top + 2, -1)
                    slot[ids] = np.arange(len(ids))
                    offsets = np.cumsum([0, *map(len, parts)]).tolist()
                at = int(slot[var]) if var <= top else -1
                if at < 0:
                    continue
                index = bisect_right(offsets, at) - 1
                part, row = parts[index], at - offsets[index]
            hops = part.hops[row]
            (near,) = np.nonzero(hops <= bound - dist)
            for col, step in zip(part.col_ids.take(near).tolist(), hops.take(near).tolist()):
                if col not in settled:
                    buckets.setdefault(dist + step, []).append(col)
    return None


class BoundedReachPlan(QueryPlan):
    """``disDist`` decomposed for the batch engine (DESIGN.md §6).

    Same boundary-relevance argument as :class:`~.reachability.ReachPlan`
    (``localEvald`` sees the endpoints only through ``iset``/``oset`` and
    the target→``TARGET`` rewrite), with the bound ``l`` joining the key:
    it caps every local BFS, so partials of different bounds never mix.
    """

    algorithm = "disDist"

    def __init__(
        self,
        query: Union[BoundedReachQuery, Tuple[Node, Node, int]],
        options: EvalOptions = EvalOptions(),
    ) -> None:
        if not isinstance(query, BoundedReachQuery):
            query = BoundedReachQuery(*query)
        self.query = query
        self.options = options.resolved(self.algorithm)

    def validate(self, cluster: SimulatedCluster) -> None:
        cluster.site_of(self.query.source)
        cluster.site_of(self.query.target)

    def trivial(self) -> Optional[Tuple[bool, Dict[str, object]]]:
        if self.query.source == self.query.target:
            return True, {"distance": 0.0, "trivial": True}
        return None

    def broadcast_payload(self) -> BoundedReachQuery:
        return self.query

    def local_eval(self) -> Callable:
        return local_eval_bounded

    def local_eval_args(self) -> Tuple[object, ...]:
        return (self.query, self.options.kernel)

    def fragment_params(self, fragment: Fragment) -> Hashable:
        return (
            *endpoint_params(fragment, self.query.source, self.query.target),
            self.query.bound,
        )

    def merge_partials(self, parts: Sequence[HopRows]) -> HopRows:
        return HopRows.concat(parts)

    def wrap_partial(self, site_equations: HopRows) -> HopRows:
        return site_equations

    def assemble(
        self, partials: Dict[int, HopRows], collect_details: bool
    ) -> Tuple[bool, Dict[str, object]]:
        dist = assemble_bounded(partials, self.query)
        details: Dict[str, object] = {
            "distance": dist,
            "num_variables": sum(map(len, partials.values())),
            "num_terms": sum(rows.num_terms for rows in partials.values()),
        }
        if collect_details:
            equations = {fid: dict(rows) for fid, rows in partials.items()}
            system = MinPlusSystem()
            for rows in equations.values():
                system.update(rows)
            details["equations"] = equations
            details["system"] = system
        return dist is not None, details


def dis_dist(
    cluster: SimulatedCluster,
    query: Union[BoundedReachQuery, Tuple[Node, Node, int]],
    collect_details: bool = False,
    kernel: Optional[str] = None,
) -> QueryResult:
    """Algorithm ``disDist`` (Section 4) on a simulated cluster.

    The batch-of-one special case of the serving engine; see
    :func:`repro.core.reachability.dis_reach`.
    """
    plan = BoundedReachPlan(query, EvalOptions(kernel=kernel))
    batch = execute_plans(cluster, [plan], collect_details=collect_details)
    return batch.results[0]
