"""disReach: distributed reachability via partial evaluation (Section 3).

The three steps of Fig. 3:

1. the coordinator posts ``qr(s, t)`` to every site, as is;
2. every site runs :func:`local_eval_reach` (procedure ``localEval``) on its
   fragment *in parallel*, producing one Boolean equation per in-node:
   ``Xv = ∨ {Xv' : v' ∈ oset, v' ∈ des(v, Fi)}``, with ``true`` replacing
   ``Xv'`` when ``v'`` is the target;
3. the coordinator assembles the equations into a Boolean Equation System
   and solves it with :func:`assemble_reach` (procedure ``evalDG``).

Guarantees (Theorem 1): one visit per site, ``O(|Vf|^2)`` traffic,
``O(|Vf||Fm|)`` time — asserted by the test suite on every run.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Hashable, Optional, Tuple, Union

from dataclasses import dataclass

from ..distributed.cluster import SimulatedCluster
from ..distributed.messages import equation_set_size
from ..graph.digraph import Node
from ..graph.reachsets import reachable_seed_masks_from
from ..index.registry import resolve_oracle
from ..index.store import fragment_oracle
from ..partition.fragment import Fragment
from ..serving.engine import execute_plans
from ..serving.plans import QueryPlan, endpoint_params
from .bes import TRUE, BooleanEquationSystem, Disjunct
from .kernels import resolve_kernel
from .options import EvalOptions
from .queries import ReachQuery
from .results import QueryResult

#: One fragment's partial answer: in-node -> disjuncts of its equation.
ReachEquations = Dict[Node, FrozenSet[Disjunct]]


@dataclass(frozen=True)
class ReachPartialAnswer:
    """What a site ships to the coordinator: ``Fi.rvset``.

    Wire format per Section 3's traffic analysis — a shared column table of
    boundary-node ids plus one (bitset or sparse) row per in-node equation.
    """

    equations: ReachEquations

    def payload_size(self) -> int:
        # Rows of one SCC share one frozenset: union each distinct set once.
        rows = self.equations.values()
        columns = set().union(*{id(d): d for d in rows}.values())
        return equation_set_size(
            row_ids=self.equations.keys(),
            col_ids=columns,
            row_counts=map(len, rows),
            num_cols=len(columns),
        )


def local_eval_reach(
    fragment: Fragment,
    query: ReachQuery,
    kernel: Optional[str] = None,
    oracle: Optional[str] = None,
) -> ReachEquations:
    """Procedure ``localEval`` (Fig. 3) on one fragment.

    ``iset`` is ``Fi.I`` (plus ``s`` when local); ``oset`` is ``Fi.O`` (plus
    ``t`` when local).  For every ``v ∈ iset`` the equation's disjuncts are
    the ``oset`` members reachable from ``v`` inside the fragment, with the
    target contributing ``true``.

    The default reachability engine answers all ``des(v, Fi) ∩ oset``
    questions in one SCC-condensation bitmask sweep; ``kernel`` swaps that
    sweep for a vectorized one (:mod:`repro.core.kernels`) with
    bit-identical equations.  ``oracle`` names a registry index (Section
    3's "any indexing techniques ... can be applied here") resolved from
    the fragment's per-stamp store — built at most once, maintained
    across mutations.  Both inner engines are exact, so equations stay
    bit-identical either way.  Plans pass resolved names; ``None`` falls
    back to the registry defaults for direct callers.
    """
    kernel = resolve_kernel(kernel)
    oracle = resolve_oracle(oracle)
    iset = set(fragment.in_nodes)
    oset = set(fragment.virtual_nodes)
    if query.source in fragment.nodes:
        iset.add(query.source)
    if query.target in fragment.nodes:
        oset.add(query.target)

    def as_disjunct(boundary: Node) -> Disjunct:
        return TRUE if boundary == query.target else boundary

    equations: ReachEquations = {}
    if not iset:
        return equations
    seeds = sorted(oset, key=repr)
    if not seeds:
        return {v: frozenset() for v in iset}

    if oracle != "none":
        engine = fragment_oracle(fragment, oracle)
        for v in iset:
            equations[v] = frozenset(
                as_disjunct(o) for o in seeds if engine.reaches(v, o)
            )
        return equations

    roots = sorted(iset, key=repr)
    if kernel != "python":
        from .kernels import reach_seed_masks

        masks = reach_seed_masks(fragment, roots, seeds)
    else:
        # Sweep only what the in-nodes can see (one shared forward closure).
        masks = reachable_seed_masks_from(roots, fragment.local_graph.successors, seeds)
    # Nodes in the same SCC share one mask; decode each distinct mask once
    # (on well-connected fragments this collapses thousands of decodes).
    decoded: Dict[int, FrozenSet[Disjunct]] = {}
    for v in iset:
        mask = masks[v]
        disjuncts = decoded.get(mask)
        if disjuncts is None:
            disjuncts = frozenset(
                as_disjunct(seed) for i, seed in enumerate(seeds) if mask >> i & 1
            )
            decoded[mask] = disjuncts
        equations[v] = disjuncts
    return equations


def assemble_reach(
    partials: Dict[int, ReachEquations],
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
        # Resolved here (not at eval time) so the concrete kernel/oracle
        # names ship inside local_eval_args to process-pool and socket
        # workers, independent of their environment.
        self.options = options.resolved(self.algorithm)
        self._keyed = self.options.cache_key()

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
        return (self.query, self.options.kernel, self.options.oracle)

    def fragment_params(self, fragment: Fragment) -> Hashable:
        return (
            *endpoint_params(fragment, self.query.source, self.query.target),
            *self._keyed,
        )

    def wrap_partial(self, site_equations: ReachEquations) -> ReachPartialAnswer:
        return ReachPartialAnswer(site_equations)

    def assemble(
        self, partials: Dict[int, ReachEquations], collect_details: bool
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
    oracle: Optional[str] = None,
) -> QueryResult:
    """Algorithm ``disReach`` (Fig. 3) on a simulated cluster.

    Evaluation is the batch-of-one special case of the serving engine
    (:func:`repro.serving.engine.execute_plans`): one plan, a throwaway
    cache, the same broadcast → parallel local evaluation → assemble
    message sequence and accounting as ever.
    """
    plan = ReachPlan(query, EvalOptions(kernel=kernel, oracle=oracle))
    batch = execute_plans(cluster, [plan], collect_details=collect_details)
    return batch.results[0]
