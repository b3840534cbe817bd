"""disReach: distributed reachability via partial evaluation (Section 3).

The three steps of Fig. 3:

1. the coordinator posts ``qr(s, t)`` to every site, as is;
2. every site runs :func:`local_eval_reach` (procedure ``localEval``) on its
   fragment *in parallel*, producing one Boolean equation per in-node:
   ``Xv = ∨ {Xv' : v' ∈ oset, v' ∈ des(v, Fi)}``, with ``true`` replacing
   ``Xv'`` when ``v'`` is the target;
3. the coordinator assembles the equations into a Boolean Equation System
   and solves it with :func:`assemble_reach` (procedure ``evalDG``).

A fragment's equations travel as one :class:`~repro.core.bes.BitRows`:
the in-node rows over the shared ``oset`` column table, rows of one local
SCC pointing at one shared set.  The numpy kernel emits it through
:meth:`~repro.core.bes.BitRows.from_masks`, the wire size is arithmetic
over it (:class:`BooleanPartialAnswer`), and the coordinator's
:class:`~repro.core.bes.BooleanEquationSystem` loads it by reference.
The same wire type carries disRPQ's vectors (:mod:`repro.core.regular`).

Guarantees (Theorem 1): one visit per site, ``O(|Vf|^2)`` traffic,
``O(|Vf||Fm|)`` time — asserted by the test suite on every run.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Mapping, Optional, Sequence, Tuple, Union

from dataclasses import dataclass

from ..distributed.cluster import SimulatedCluster
from ..graph.digraph import Node
from ..partition.fragment import Fragment
from ..serving.engine import execute_plans
from ..serving.plans import QueryPlan, endpoint_params
from .bes import BitRows, BooleanEquationSystem
from .kernels import reach_rows, resolve_kernel
from .options import EvalOptions
from .queries import ReachQuery
from .results import QueryResult


@dataclass(frozen=True)
class BooleanPartialAnswer:
    """What a site ships to the coordinator: ``Fi.rvset`` (disReach, disRPQ).

    Wire format per Sections 3 and 5's traffic analysis — a shared column
    table of boundary ids plus one (bitset or sparse) row per equation.
    The rows already are that format, so the size is arithmetic over them:
    the charge :func:`~repro.distributed.messages.equation_set_size` models,
    with each distinct set's row cost computed once.  A plain
    ``{var: disjuncts}`` mapping is converted to :class:`BitRows` once.
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


#: The disReach name of the one Boolean wire type.
ReachPartialAnswer = BooleanPartialAnswer


def local_eval_reach(
    fragment: Fragment,
    query: ReachQuery,
    kernel: Optional[str] = None,
) -> BitRows:
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


def assemble_reach(
    partials: Dict[int, Mapping],
    query: ReachQuery,
) -> Tuple[bool, BooleanEquationSystem]:
    """Procedure ``evalDG`` (Fig. 4): solve the assembled BES for ``Xs``."""
    bes = BooleanEquationSystem()
    for equations in partials.values():
        bes.update(equations)
    return bes.solve_reachability(query.source), bes


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

    def merge_partials(self, parts: Sequence[BitRows]) -> BitRows:
        return BitRows.concat(parts)

    def wrap_partial(self, site_equations: BitRows) -> BooleanPartialAnswer:
        return BooleanPartialAnswer(site_equations)

    def assemble(
        self, partials: Dict[int, BitRows], collect_details: bool
    ) -> Tuple[bool, Dict[str, object]]:
        answer, bes = assemble_reach(partials, self.query)
        details: Dict[str, object] = {
            "num_variables": len(bes),
            "num_disjuncts": bes.num_disjuncts,
        }
        if collect_details:
            details["equations"] = {
                fid: dict(equations) for fid, equations in partials.items()
            }
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
