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

A fragment's vectors travel as one :class:`~repro.core.bes.BitRows` over
(node, state) rows and columns, ``TRUE`` standing for ``(t, ut)``, sized
by :class:`~repro.core.bes.BooleanPartialAnswer` and loaded by reference
into the :class:`~repro.core.bes.BooleanEquationSystem`, with every
pair's id size ``2 + node + state`` bytes.  (disReach's
:class:`~repro.core.reachability.ReachRows` addresses columns by ``Vf``
id instead; the product-pair space, ``|Vf|·|Vq|`` bits wide, is too wide
to place seeds in directly — ROADMAP item 17.)

Instead of the paper's recursive ``cmpRvec`` memoization — which, as
written, does not terminate on cyclic fragments (the ``visit`` flag is only
set after the recursion returns) — we compute all vectors simultaneously
with one seed-bitmask sweep over the *local product graph* (fragment ×
``Gq``); DESIGN.md §3.2 documents the equivalence.

Guarantees (Theorem 3): one visit per site, ``O(|R|^2 |Vf|^2)`` traffic,
``O(|Fm||R|^2 + |R|^2|Vf|^2)`` time.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Mapping, Optional, Sequence, Tuple, Union

from ..automata.query_automaton import US, QueryAutomaton, State
from ..distributed.cluster import SimulatedCluster
from ..graph.digraph import Node
from ..partition.fragment import Fragment
from ..serving.engine import execute_plans
from ..serving.plans import QueryPlan, endpoint_params
from .bes import BitRows, BooleanEquationSystem, BooleanPartialAnswer
from .kernels import regular_rows, resolve_kernel
from .options import EvalOptions
from .queries import RegularReachQuery
from .results import QueryResult

#: A (node, state) product pair — the variables of the regular BES.
Pair = Tuple[Node, State]

#: The disRPQ name of the :class:`BitRows` wire type (Section 5's
#: ``O(|R|^2 |Fi.I| |Fi.O|)`` vector set).
RegularPartialAnswer = BooleanPartialAnswer


def local_eval_regular(
    fragment: Fragment,
    automaton: QueryAutomaton,
    kernel: Optional[str] = None,
) -> BitRows:
    """Procedures ``localEvalr``/``cmpRvec`` (Fig. 7) on one fragment.

    Every consistent (node, state) pair of the local product graph is a
    product vertex; seeds are the boundary pairs — ``(w, uw)`` for virtual
    ``w`` — plus ``(t, ut)`` when the target is local, which contributes
    ``true``.  The returned equations cover every in-node (and the source,
    when local) at every state it matches, sorted by node ``repr`` and
    then in ``automaton.states()`` order.  The numpy kernel sweeps the
    product closure over a ``[states, V, words]`` bitset cube, one
    transition at a time in the order of ``automaton.compiled`` — built by
    the plan at the coordinator, or here on first use when called bare
    (:mod:`repro.core.kernels`); ``kernel`` is resolved, which rejects an
    unknown name.
    """
    resolve_kernel(kernel)
    return regular_rows(fragment, automaton)


def assemble_regular(
    partials: Dict[int, Mapping],
    automaton: QueryAutomaton,
) -> Tuple[bool, BooleanEquationSystem]:
    """Procedure ``evalDGr``: solve the (node, state) BES for ``X(s, us)``."""
    bes = BooleanEquationSystem()
    for equations in partials.values():
        bes.update(equations)
    return bes.solve_reachability((automaton.source, US)), bes


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

    def merge_partials(self, parts: Sequence[BitRows]) -> BitRows:
        return BitRows.concat(parts)

    def wrap_partial(self, site_equations: BitRows) -> BooleanPartialAnswer:
        return BooleanPartialAnswer(site_equations)

    def assemble(
        self, partials: Dict[int, BitRows], collect_details: bool
    ) -> Tuple[bool, Dict[str, object]]:
        answer, bes = assemble_regular(partials, self.automaton)
        details: Dict[str, object] = {
            "num_variables": len(bes),
            "num_disjuncts": bes.num_disjuncts,
            "automaton_states": self.automaton.num_states,
            "automaton_transitions": self.automaton.num_transitions,
        }
        if collect_details:
            details["equations"] = {
                fid: dict(equations) for fid, equations in partials.items()
            }
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
