"""disDist: distributed bounded reachability (Section 4).

Same partial-evaluation skeleton as disReach, with distances in place of
Booleans:

* ``localEvald`` — for every in-node ``v``, ship the *min-plus terms*
  ``(Xv', dist_Fi(v, v'))`` for every boundary node ``v'`` that ``v``
  reaches within the query bound (``Xt`` is the constant 0);
* ``evalDGd`` — assemble the weighted dependency graph (Fig. 5(b)) and run
  Dijkstra from ``Xs``; answer ``true`` iff the distance to ``Xt`` is ≤ l.

Fidelity note (DESIGN.md §3.3): the paper prunes local legs with
``dist(v, v') < l``; we keep ``<= l``, since a leg of length exactly ``l``
ending at ``t`` still witnesses ``dist(s, t) <= l``.

Guarantees (Theorem 2): identical to Theorem 1 — one visit per site,
``O(|Vf|^2)`` traffic, ``O(|Fm||Vf|)`` time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Optional, Sequence, Tuple, Union

from ..distributed.cluster import SimulatedCluster
from ..graph.digraph import Node
from ..partition.fragment import Fragment
from ..serving.engine import execute_plans
from ..serving.plans import QueryPlan, endpoint_params
from .kernels import bounded_seed_rows, resolve_kernel
from .minplus import BoundedRows, MinPlusSystem
from .options import EvalOptions
from .queries import BoundedReachQuery
from .results import QueryResult

@dataclass(frozen=True)
class BoundedPartialAnswer:
    """What a site ships: ``Fi.rvset`` of min-plus equations.

    Wire format mirrors the Boolean case (shared column table of boundary
    ids) except each set entry also carries its local distance — 2 bytes of
    column index + 4 bytes of distance per term, bounded by O(|Vf|^2) total
    as Theorem 2 requires.  The matrix already is that format, so its size
    is arithmetic over the buffers and the id sizes the emitter recorded."""

    equations: BoundedRows

    def payload_size(self) -> int:
        rows = self.equations
        return (
            2
            + rows.row_bytes
            + sum(map(rows.col_bytes.__getitem__, set(rows.cols)))
            + 6 * len(rows.cols)
        )


def local_eval_bounded(
    fragment: Fragment,
    query: BoundedReachQuery,
    kernel: Optional[str] = None,
) -> BoundedRows:
    """Procedure ``localEvald`` on one fragment.

    The numpy kernel propagates a per-seed bitset level by level, cut off
    at the bound, and reads each root's hop distances off one snapshot of
    the root rows per level (:mod:`repro.core.kernels`); ``kernel`` is
    resolved, which rejects an unknown name.  The result is a
    :class:`~.minplus.BoundedRows`: rows (``iset``) and columns (``oset``,
    the target as ``TARGET``) sorted by ``repr``, each row's terms in
    column order.
    """
    resolve_kernel(kernel)
    return bounded_seed_rows(fragment, query.source, query.target, query.bound)


def assemble_bounded(
    partials: Dict[int, BoundedRows],
    query: BoundedReachQuery,
) -> Tuple[bool, Optional[float], MinPlusSystem]:
    """Procedure ``evalDGd``: Dijkstra over the weighted dependency graph."""
    system = MinPlusSystem()
    for equations in partials.values():
        system.update(equations)
    dist = system.solve_distance(query.source, cutoff=float(query.bound))
    answer = dist is not None and dist <= query.bound
    return answer, dist, system


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

    def merge_partials(self, parts: Sequence[BoundedRows]) -> BoundedRows:
        return BoundedRows.concat(parts)

    def wrap_partial(self, site_equations: BoundedRows) -> BoundedPartialAnswer:
        return BoundedPartialAnswer(site_equations)

    def assemble(
        self, partials: Dict[int, BoundedRows], collect_details: bool
    ) -> Tuple[bool, Dict[str, object]]:
        answer, dist, system = assemble_bounded(partials, self.query)
        details: Dict[str, object] = {
            "distance": dist,
            "num_variables": len(system),
            "num_terms": system.num_terms,
        }
        if collect_details:
            details["equations"] = {
                fid: dict(equations) for fid, equations in partials.items()
            }
            details["system"] = system
        return answer, details


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
