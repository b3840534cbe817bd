"""Batch query engine with cross-query site-result caching (DESIGN.md §6).

The paper's guarantees are per-query: every evaluation visits each site
once and ships boundary-sized partial answers.  A serving workload redoes
identical per-site work for query after query — the per-fragment partial
answer depends only on the query kind and its *boundary-relevant*
parameters (:mod:`repro.serving.plans`), not on the full query.  This
engine exploits that three ways:

1. **deduplication** — identical (fragment, query-kind, params) tasks in a
   batch are evaluated once, in a single :meth:`ParallelPhase.map` round
   that serves every query in the batch;
2. **caching** — results persist in a :class:`SiteResultCache` across
   batches, keyed by fragment *version* so in-place fragment mutation
   invalidates them structurally;
3. **amortized accounting** — the batch's own :class:`Run` charges only
   what a batching coordinator would really pay (one broadcast round, one
   compute round over the distinct tasks, one overlapped partial round),
   while every query still gets the paper-faithful *per-query* stats.  A
   partial answer's modeled wire size is a function of its rvset alone, so
   it is computed once, when the cache entry is produced, and every later
   charge reads it from the entry.  Likewise a query's stats are a
   function of its partial entries: a persistent cache stores them with
   the solved answer, and a repeat whose entries this batch did not
   recompute gets a copy of them — one lookup, no replayed message.

The per-query accounting contract: each query's answer, details, visits,
traffic, message log and superstep count are **bit-identical** to
sequential one-by-one evaluation (the engine replays the exact broadcast /
partial / assemble message sequence, crediting cached compute times), so
Theorems 1–3 remain checkable on every individual query.  Single-query
evaluation (:func:`repro.core.reachability.dis_reach` and friends) is
literally the batch-of-one special case of :func:`execute_plans`.

This module imports nothing from :mod:`repro.core` at module level, so the
core algorithms can depend on it without an import cycle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..distributed.cluster import SimulatedCluster
from ..errors import QueryError
from ..distributed.messages import MessageKind, payload_size
from ..distributed.stats import ExecutionStats, WorkloadStats
from ..partition.fragment import Fragment
from .cache import AnswerKey, CacheEntry, CacheKey, PlanKey, SiteResultCache, SolvedAnswer
from .plans import QueryPlan

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids the core cycle)
    from ..core.options import EvalOptions
    from ..core.results import QueryResult

#: One deduplicated unit of site work: (fn, fragment, args) — picklable.
FragmentJob = Tuple[Callable[..., Any], Fragment, Tuple[Any, ...]]


def eval_fragment_jobs(jobs: Tuple[FragmentJob, ...]) -> Tuple[Tuple[Any, float], ...]:
    """One site's visit in a batched round: run its missing fragment jobs.

    Module-level (hence picklable) so the socket backend can ship it; each
    job is timed individually (CPU time, the simulator's per-site clock) so
    cache entries can later replay per-query response accounting.  Plans
    ship their resolved strategy names *inside* each job's args.
    """
    out = []
    for fn, fragment, args in jobs:
        start = time.thread_time()
        equations = fn(fragment, *args)
        out.append((equations, time.thread_time() - start))
    return tuple(out)


@dataclass
class BatchResult:
    """Outcome of one batched evaluation: per-query results + batch stats.

    ``partials`` holds, per query, the fid -> equations map its assembly
    solved (``None`` for a trivially-answered query) — what an incremental
    session installs as its standing state.
    """

    results: List["QueryResult"] = field(default_factory=list)
    workload: WorkloadStats = field(default_factory=WorkloadStats)
    partials: List[Optional[Dict[int, Dict]]] = field(default_factory=list)

    @property
    def answers(self) -> List[bool]:
        """The per-query Boolean answers, in submission order."""
        return [result.answer for result in self.results]

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator["QueryResult"]:
        return iter(self.results)

    def __getitem__(self, index: int):
        return self.results[index]


def _accumulate(workload: WorkloadStats, stats: ExecutionStats) -> None:
    workload.total_response_seconds += stats.response_seconds
    workload.total_network_seconds += stats.network_seconds
    workload.total_traffic_bytes += stats.traffic_bytes
    workload.total_visits += stats.total_visits
    workload.total_messages += stats.num_messages


def execute_plans(
    cluster: SimulatedCluster,
    plans: Sequence[QueryPlan],
    cache: Optional[SiteResultCache] = None,
    collect_details: bool = False,
) -> BatchResult:
    """Evaluate ``plans`` over ``cluster`` with cross-query reuse.

    Phase 1 walks every (plan, fragment) pair, resolving each against the
    cache and collecting the distinct missing evaluations; phase 2 runs all
    misses in one parallel round on the cluster's executor backend; phase 3
    replays each query's one-by-one accounting from the resolved entries
    and solves it at the coordinator.  On a persistent ``cache`` without
    ``collect_details``, a query solved earlier over the same partial
    entries takes its answer from the cache, and also its stats when this
    batch recomputed none of those entries (else the replay runs and
    charges the stored solve time).  A persistent cache serves one
    cluster: the stored stats carry its site layout and network model.
    Passing ``cache=None`` uses a throwaway cache — within-batch
    deduplication still applies, every query is solved, nothing survives
    the call.
    """
    from ..core.results import QueryResult

    # The one-shot path (cache=None) and detail collection always solve.
    solved_answers = cache if cache is not None and not collect_details else None
    cache = cache if cache is not None else SiteResultCache()
    plans = list(plans)
    for plan in plans:
        plan.validate(cluster)

    workload = WorkloadStats(num_queries=len(plans))
    trivials: List[Optional[Tuple[bool, Dict[str, object]]]] = []
    payloads: List[Optional[object]] = []
    payload_sizes: List[int] = []
    plan_keys: List[Optional[Dict[int, CacheKey]]] = []
    #: key -> resolved entry (None = scheduled, filled in by phase 2).
    resolved: Dict[CacheKey, Optional[CacheEntry]] = {}
    jobs_by_site: Dict[int, List[Tuple[CacheKey, QueryPlan, Fragment]]] = {}
    plans_with_misses: List[int] = []

    # ------------------------------------------------------------------
    # phase 1: resolve every (query, fragment) pair against the cache
    # ------------------------------------------------------------------
    for index, plan in enumerate(plans):
        trivial = plan.trivial()
        trivials.append(trivial)
        if trivial is not None:
            payloads.append(None)
            payload_sizes.append(0)
            plan_keys.append(None)
            workload.num_trivial += 1
            continue
        payloads.append(plan.broadcast_payload())
        if plan.broadcast_size is None:
            plan.broadcast_size = payload_size(payloads[-1])
        payload_sizes.append(plan.broadcast_size)
        keys: Dict[int, CacheKey] = {}
        missed = False
        for site in cluster.sites:
            for fragment in site.fragments:
                key: CacheKey = (
                    fragment.fid,
                    fragment.version,
                    plan.algorithm,
                    plan.fragment_params(fragment),
                )
                keys[fragment.fid] = key
                if key in resolved:
                    # Either cached earlier in this walk or already scheduled
                    # by a previous query of this batch: served either way.
                    workload.cache_hits += 1
                    continue
                entry = cache.get(key)
                if entry is not None:
                    workload.cache_hits += 1
                    resolved[key] = entry
                else:
                    workload.cache_misses += 1
                    resolved[key] = None
                    jobs_by_site.setdefault(site.site_id, []).append(
                        (key, plan, fragment)
                    )
                    missed = True
        plan_keys.append(keys)
        if missed:
            plans_with_misses.append(index)

    # ------------------------------------------------------------------
    # phase 2: one parallel round over the distinct missing site tasks
    # ------------------------------------------------------------------
    batch_run = cluster.start_run("batch")
    if jobs_by_site:
        # A batching coordinator ships the distinct outstanding payloads
        # once, and only to sites that actually have work this round.
        # The bundle is a tuple, so its size is the 2-byte header plus the
        # already-known sizes of the distinct payloads in it.
        distinct = {payloads[i]: payload_sizes[i] for i in plans_with_misses}
        bundle = tuple(distinct)
        bundle_size = 2 + sum(distinct.values())
        site_ids = sorted(jobs_by_site)
        for site_id in site_ids:
            batch_run.send_to_site(
                site_id,
                bundle,
                MessageKind.QUERY,
                charge_time=False,
                size=bundle_size,
            )
        batch_run.network_round({site_id: bundle_size for site_id in site_ids})
        with batch_run.parallel_phase() as phase:
            site_values = phase.map(
                eval_fragment_jobs,
                [
                    (
                        site_id,
                        (
                            tuple(
                                (plan.local_eval(), fragment, plan.local_eval_args())
                                for _key, plan, fragment in jobs_by_site[site_id]
                            ),
                        ),
                    )
                    for site_id in site_ids
                ],
            )
            for site_id, values in zip(site_ids, site_values):
                shipped = 2  # the tuple header of the site's partials
                for (key, plan, _fragment), (equations, seconds) in zip(
                    jobs_by_site[site_id], values
                ):
                    # Sized once, here: every later charge reads the entry.
                    entry = CacheEntry(
                        equations, seconds, payload_size(plan.wrap_partial(equations))
                    )
                    resolved[key] = entry
                    cache.put(key, entry)
                    workload.tasks_executed += 1
                    shipped += entry.size
                # Each distinct partial crosses the wire once; transfers of
                # one round overlap (charged at phase exit as their max).
                batch_run.send_to_coordinator(
                    site_id, kind=MessageKind.PARTIAL, size=shipped
                )

    # ------------------------------------------------------------------
    # phase 3: per-query one-by-one accounting — stored or replayed
    # ------------------------------------------------------------------
    # Observed-parallelism bookkeeping for the replayed stats: a query whose
    # partials were (even partly) computed by this batch's round reports
    # that round's real wall, keeping parallel_speedup's §5 meaning on the
    # batch-of-one path; a fully cache-served query executed no site work,
    # so its observed pair is zeroed and parallel_speedup reads None.
    scheduled_keys = {
        key for jobs in jobs_by_site.values() for key, _plan, _fragment in jobs
    }
    executed_wall = batch_run.stats.phase_wall_seconds
    results: List[QueryResult] = []
    resolved_partials: List[Optional[Dict[int, Dict]]] = []
    for index, plan in enumerate(plans):
        trivial = trivials[index]
        if trivial is not None:
            answer, details = trivial
            run = cluster.start_run(plan.algorithm)
            stats = run.finish()
            _accumulate(workload, stats)
            results.append(QueryResult(answer, stats, dict(details)))
            resolved_partials.append(None)
            continue
        keys = plan_keys[index]
        scheduled = bool(scheduled_keys) and any(
            key in scheduled_keys for key in keys.values()
        )
        answer_key: Optional[AnswerKey] = None
        solved = start = None
        if solved_answers is not None:
            # The lookup is timed as part of the query: a hit's wall, or
            # the start of the run a miss or a replay goes on to.
            start = time.perf_counter()
            answer_key = (plan.algorithm, plan.query, tuple(keys.values()))
            solved = solved_answers.get_answer(answer_key)
            if solved is not None:
                workload.answer_hits += 1
            if solved is not None and not scheduled:
                # Solved earlier over these very entries, none of which
                # this batch recomputed: the stored stats are the replay's.
                stats = solved.stats.copy()
                stats.wall_seconds = time.perf_counter() - start
                _accumulate(workload, stats)
                results.append(QueryResult(solved.answer, stats, dict(solved.details)))
                resolved_partials.append(
                    {fid: resolved[key].equations for fid, key in keys.items()}
                )
                continue
        run = cluster.start_run(plan.algorithm, start)
        run.broadcast(payloads[index], MessageKind.QUERY, size=payload_sizes[index])
        partials: Dict[int, Dict] = {}
        with run.parallel_phase() as phase:
            for site in cluster.sites:
                if len(site.fragments) == 1:
                    # The site ships exactly this entry's partial answer.
                    fid = site.fragments[0].fid
                    entry = resolved[keys[fid]]
                    partials[fid] = entry.equations
                    phase.credit(site.site_id, entry.seconds)
                    run.send_to_coordinator(
                        site.site_id, kind=MessageKind.PARTIAL, size=entry.size
                    )
                    continue
                # Several fragments on one site ship one combined partial
                # whose column table is shared, so its size is not the sum
                # of the entries' sizes: size the merged equations.
                parts = []
                seconds = 0.0
                for fragment in site.fragments:
                    entry = resolved[keys[fragment.fid]]
                    partials[fragment.fid] = entry.equations
                    parts.append(entry.equations)
                    seconds += entry.seconds
                phase.credit(site.site_id, seconds)
                run.send_to_coordinator(
                    site.site_id,
                    plan.wrap_partial(plan.merge_partials(parts)),
                    MessageKind.PARTIAL,
                )
        if solved is None:
            with run.coordinator_work():
                answer, details = plan.assemble(partials, collect_details)
            # The assemble really ran once, here; mirror its cost into the
            # batch's accounting (a batching coordinator solves every query
            # it has not solved before).
            batch_run.stats.add_coordinator_time(run.stats.coordinator_seconds)
        else:
            # A key of this query was (re)computed by this batch: replay the
            # run over the entries, charging the stored solve's time.
            answer, details = solved.answer, dict(solved.details)
            run.stats.add_coordinator_time(solved.stats.coordinator_seconds)
        stats = run.finish()
        if solved is None and answer_key is not None:
            template = stats.copy()
            template.site_compute_seconds = template.phase_wall_seconds = 0.0
            solved_answers.put_answer(
                answer_key, SolvedAnswer(answer, dict(details), template)
            )
            workload.answer_misses += 1
        if scheduled:
            stats.phase_wall_seconds += executed_wall
        else:
            stats.site_compute_seconds = 0.0
            stats.phase_wall_seconds = 0.0
        _accumulate(workload, stats)
        results.append(QueryResult(answer, stats, details))
        resolved_partials.append(partials)

    workload.batch = batch_run.finish()
    return BatchResult(results=results, workload=workload, partials=resolved_partials)


class BatchQueryEngine:
    """Serve workloads of mixed reach/bounded/RPQ queries over one cluster.

    Wraps :func:`execute_plans` with a persistent :class:`SiteResultCache`,
    so consecutive batches (and repeated queries within a batch) reuse
    per-fragment partial results, each distinct query's plan and its
    solved answer::

        engine = BatchQueryEngine(cluster)
        batch = engine.run_batch(queries)          # mixed query classes OK
        batch.answers, batch.workload.hit_rate, batch.workload.summary()

    Only the paper's partial-evaluation algorithms are batchable; asking
    for a baseline algorithm falls back to one-by-one evaluation (DESIGN.md
    §6 explains why the Pregel/ship-all baselines stay un-batched).
    """

    def __init__(
        self,
        cluster: SimulatedCluster,
        cache: Optional[SiteResultCache] = None,
        max_entries: int = 4096,
    ) -> None:
        """Serve ``cluster`` with ``cache`` (or a fresh LRU of ``max_entries``)."""
        self.cluster = cluster
        self.cache = cache if cache is not None else SiteResultCache(max_entries)
        # Version-keyed lookups keep the cache *sound* under mutation and
        # repartition on their own; registering it lets the cluster reclaim
        # the dead entries eagerly (per-fragment, via the cache's fid index)
        # so mutation storms don't leave a long-lived server full of
        # unreachable rvsets.  The registry is weak — dropping the engine
        # (and its cache) deregisters it.
        cluster.register_cache(self.cache)

    def run_batch(
        self,
        queries: Sequence,
        algorithm: Optional[str] = None,
        collect_details: bool = False,
        kernel: Optional[str] = None,
    ) -> BatchResult:
        """Evaluate ``queries`` as one batch (default algorithm per class).

        ``kernel`` is an explicit strategy choice for every query in the
        batch (hard: a query whose algorithm does not take it raises
        :class:`~repro.errors.QueryError`, baselines included; DESIGN.md
        §14).  Cached partials are shared across kernels — all kernels
        produce bit-identical equations.
        """
        from ..core.engine import evaluate, is_batchable
        from ..core.options import EvalOptions

        options = EvalOptions(kernel=kernel)
        queries = list(queries)
        if algorithm is not None and not is_batchable(algorithm):
            # Baselines have no partial results to cache; evaluate honestly
            # one by one and report the batch as entirely un-batched.
            results = [
                evaluate(self.cluster, query, algorithm, **options.given())
                for query in queries
            ]
            workload = WorkloadStats(
                num_queries=len(queries), num_unbatched=len(queries)
            )
            for result in results:
                _accumulate(workload, result.stats)
            return BatchResult(results=results, workload=workload)
        hits_before = self.cache.plan_hits
        plans = [self._plan(query, algorithm, options) for query in queries]
        hits = self.cache.plan_hits - hits_before
        batch = execute_plans(
            self.cluster, plans, cache=self.cache, collect_details=collect_details
        )
        batch.workload.plan_hits = hits
        batch.workload.plan_misses = len(plans) - hits
        return batch

    def _plan(
        self, query, algorithm: Optional[str], options: "EvalOptions"
    ) -> QueryPlan:
        """The cached plan of ``query``, built by ``plan_for`` on a miss.

        The key holds each option as the plan would resolve it *now* — the
        explicit name, else the process default (``set_default`` > env var
        > fallback) where the algorithm takes the option — so a changed
        default builds a new plan.  Only a miss pays ``plan_for``'s
        availability probe and the plan's own construction (for a regular
        query, its automaton).
        """
        from ..core import engine as core_engine
        from ..core.options import OPTIONS

        algorithm = core_engine.resolve_algorithm(query, algorithm)
        key: PlanKey = (
            algorithm,
            query,
            tuple(
                value
                if (value := getattr(options, name)) is not None
                else spec.registry.default() if algorithm in spec.takers else None
                for name, spec in OPTIONS.items()
            ),
        )
        plan = self.cache.get_plan(key)
        if plan is None:
            plan = core_engine.plan_for(query, algorithm, options)
            self.cache.put_plan(key, plan)
        return plan

    def evaluate(
        self,
        query,
        algorithm: Optional[str] = None,
        collect_details: bool = False,
        kernel: Optional[str] = None,
    ):
        """Single query through the serving path (a batch of one)."""
        return self.run_batch([query], algorithm, collect_details, kernel=kernel).results[0]

    def open_session(self, query, kernel: Optional[str] = None):
        """Open a standing incremental session for ``query``.

        The engine-side factory behind ``Client.session()``: dispatches on
        the query class to the matching incremental session
        (:class:`~repro.core.incremental.IncrementalReachSession` /
        :class:`~repro.core.incremental.IncrementalRegularSession`),
        initializes it, and returns it with its first answer standing.
        Bounded queries have no incremental maintenance story (the
        boundedness certificate is not locally repairable), so they raise
        :class:`~repro.errors.QueryError`.
        """
        from ..core.incremental import (
            IncrementalReachSession,
            IncrementalRegularSession,
        )
        from ..core.queries import ReachQuery, RegularReachQuery

        if isinstance(query, ReachQuery):
            session = IncrementalReachSession(self.cluster, query, kernel=kernel)
        elif isinstance(query, RegularReachQuery):
            session = IncrementalRegularSession(self.cluster, query, kernel=kernel)
        else:
            raise QueryError(
                f"no incremental session for {type(query).__name__}; "
                "sessions support ReachQuery and RegularReachQuery"
            )
        session.initialize()
        return session

    def invalidate_fragment(self, fid: int) -> int:
        """Drop cached partials of ``fid`` (see also ``bump_fragment_version``)."""
        return self.cache.invalidate_fragment(fid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BatchQueryEngine(sites={self.cluster.num_sites}, cache={self.cache!r})"
