"""Uniform front end over all distributed algorithms.

``evaluate(cluster, query)`` dispatches to the paper's partial-evaluation
algorithm for the query's class; ``algorithm=`` selects a baseline instead.
The registry keys are the paper's algorithm names (Section 7):

=============  ======================  =================================
name           query class             strategy
=============  ======================  =================================
``disReach``   ReachQuery              partial evaluation (Section 3)
``disReachn``  ReachQuery              ship-all + centralized BFS
``disReachm``  ReachQuery              Pregel-style message passing [21]
``disDist``    BoundedReachQuery       partial evaluation (Section 4)
``disDistn``   BoundedReachQuery       ship-all + centralized BFS
``disRPQ``     RegularReachQuery       partial evaluation (Section 5)
``disRPQn``    RegularReachQuery       ship-all + centralized product BFS
``disRPQd``    RegularReachQuery       Suciu-variant, two visits [30]
=============  ======================  =================================

(The MapReduce algorithm ``MRdRPQ`` lives in :mod:`repro.mapreduce`; it runs
on a graph + mapper count rather than on a prebuilt cluster.)
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple, Type, Union

from ..baselines.message_passing import dis_reach_m
from ..baselines.pregel_programs import dis_dist_m
from ..baselines.ship_all import dis_dist_n, dis_reach_n, dis_rpq_n
from ..baselines.suciu import dis_rpq_d
from ..distributed.cluster import SimulatedCluster
from ..distributed.executors import ExecutorBackend
from ..errors import QueryError
from ..serving.plans import QueryPlan
from .bounded import BoundedReachPlan, dis_dist
from .options import EvalOptions
from .queries import BoundedReachQuery, Query, ReachQuery, RegularReachQuery
from .reachability import ReachPlan, dis_reach
from .regular import RegularReachPlan, dis_rpq
from .results import QueryResult

Algorithm = Callable[[SimulatedCluster, Query], QueryResult]

#: name -> (query class, implementation)
REGISTRY: Dict[str, Tuple[Type, Algorithm]] = {
    "disReach": (ReachQuery, dis_reach),
    "disReachn": (ReachQuery, dis_reach_n),
    "disReachm": (ReachQuery, dis_reach_m),
    "disDist": (BoundedReachQuery, dis_dist),
    "disDistn": (BoundedReachQuery, dis_dist_n),
    # extension: message-passing bounded reachability (not in the paper)
    "disDistm": (BoundedReachQuery, dis_dist_m),
    "disRPQ": (RegularReachQuery, dis_rpq),
    "disRPQn": (RegularReachQuery, dis_rpq_n),
    "disRPQd": (RegularReachQuery, dis_rpq_d),
}

_DEFAULTS: Dict[Type, str] = {
    ReachQuery: "disReach",
    BoundedReachQuery: "disDist",
    RegularReachQuery: "disRPQ",
}


#: Batchable algorithms: the paper's partial-evaluation family, whose
#: per-fragment partial results the serving layer can cache and share
#: across queries.  Baselines stay un-batched (DESIGN.md §6).
PLANS: Dict[str, Callable[..., QueryPlan]] = {
    plan_cls.algorithm: plan_cls
    for plan_cls in (ReachPlan, BoundedReachPlan, RegularReachPlan)
}


def is_batchable(algorithm: str) -> bool:
    """Can ``algorithm`` run on the batch engine with cross-query reuse?"""
    return algorithm in PLANS


def resolve_algorithm(query: Query, algorithm: Optional[str] = None) -> str:
    """The registered algorithm that evaluates ``query``.

    With no ``algorithm``, the paper's partial-evaluation algorithm for the
    query's class; a named one is checked against :data:`REGISTRY` and the
    query's class.
    """
    if algorithm is None:
        try:
            return _DEFAULTS[type(query)]
        except KeyError:
            raise QueryError(f"unsupported query type {type(query).__name__}") from None
    try:
        query_type, _ = REGISTRY[algorithm]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise QueryError(f"unknown algorithm {algorithm!r}; known: {known}") from None
    if not isinstance(query, query_type):
        raise QueryError(
            f"algorithm {algorithm!r} evaluates {query_type.__name__}, "
            f"got {type(query).__name__}"
        )
    return algorithm


def plan_for(
    query: Query,
    algorithm: Optional[str] = None,
    options: EvalOptions = EvalOptions(),
) -> QueryPlan:
    """Build the :class:`~repro.serving.plans.QueryPlan` for ``query``.

    With no ``algorithm``, the paper's partial-evaluation algorithm for the
    query's class is chosen — every default algorithm is batchable, so a
    mixed workload needs no per-query configuration.  ``options`` are the
    caller's *explicit* strategy choices (hard: an option the algorithm
    does not take raises :class:`QueryError`); the plan resolves the rest
    from the registry defaults (:mod:`repro.core.options`).
    """
    algorithm = resolve_algorithm(query, algorithm)
    try:
        plan_cls = PLANS[algorithm]
    except KeyError:
        known = ", ".join(sorted(PLANS))
        raise QueryError(
            f"algorithm {algorithm!r} is not batchable (batchable: {known})"
        ) from None
    return plan_cls(query, options=options)


def algorithms_for(query: Query) -> Tuple[str, ...]:
    """Names of every registered algorithm applicable to ``query``."""
    return tuple(
        name
        for name, (query_type, _) in REGISTRY.items()
        if isinstance(query, query_type)
    )


def evaluate(
    cluster: SimulatedCluster,
    query: Query,
    algorithm: Optional[str] = None,
    executor: Union[str, ExecutorBackend, None] = None,
    kernel: Optional[str] = None,
    shortcuts: Optional[str] = None,
) -> QueryResult:
    """Evaluate ``query`` on ``cluster``.

    With no ``algorithm``, the paper's partial-evaluation algorithm for the
    query's class is used.  ``executor`` overrides the cluster's execution
    backend for this one evaluation (``sequential``/``socket``).
    ``kernel`` and ``shortcuts`` are explicit strategy choices: which
    algorithms take which is the option table of
    :mod:`repro.core.options` (DESIGN.md §14), and passing one to an
    algorithm that does not take it raises :class:`QueryError`.  Backends,
    kernels and shortcuts change superstep/wall-clock behavior only —
    answers are identical under all.
    """
    algorithm = resolve_algorithm(query, algorithm)
    names = EvalOptions(kernel, shortcuts).resolved(algorithm).given()
    fn = REGISTRY[algorithm][1]
    if executor is None:
        return fn(cluster, query, **names)
    with cluster.using_executor(executor):
        return fn(cluster, query, **names)
