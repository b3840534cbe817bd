"""Serving layer: batch query evaluation with cross-query reuse (DESIGN.md §6).

:class:`BatchQueryEngine` takes a workload of mixed reach / bounded / RPQ
queries and evaluates them over one partitioned graph with a per-fragment
partial-result cache and per-batch site-task deduplication.  Per-query
answers and modeled stats stay bit-identical to sequential one-by-one
evaluation; the batch-level :class:`~repro.distributed.stats.WorkloadStats`
shows what the amortization saved.
"""

from .cache import CacheEntry, CacheKey, SiteResultCache
from .engine import BatchQueryEngine, BatchResult, eval_fragment_jobs, execute_plans
from .plans import ABSENT, QueryPlan, endpoint_params

__all__ = [
    "ABSENT",
    "BatchQueryEngine",
    "BatchResult",
    "CacheEntry",
    "CacheKey",
    "QueryPlan",
    "SiteResultCache",
    "endpoint_params",
    "eval_fragment_jobs",
    "execute_plans",
]
