"""Execution statistics: the three quantities the paper guarantees.

Two layers live here.  :class:`ExecutionStats` tracks one query evaluation
(or one batched run); :class:`WorkloadStats` aggregates a *batch* of queries
served by :mod:`repro.serving` — per-query totals, cache hit rate, and the
amortized/batched cost side by side with what one-by-one evaluation would
have charged.

For every query evaluation the simulator tracks

1. **site visits** — how many times each site received work.  The paper's
   partial-evaluation algorithms visit every site exactly once; message
   passing (disReachm) visits sites hundreds of times (Section 7, Exp-1).
2. **network traffic** — total bytes shipped between sites, under the model
   of :mod:`repro.distributed.messages`.
3. **response time** — simulated *parallel* time: the run is a sequence of
   phases, each phase contributing the maximum of its per-site durations
   (sites compute concurrently) plus any coordinator-side time.  This is the
   quantity Theorems 1–3 bound by ``O(|Vf||Fm|)`` etc.

``wall_seconds`` additionally records real elapsed time of the whole
simulation.  Since the executor backends (:mod:`repro.distributed.executors`)
can run site tasks concurrently, two further counters separate *modeled*
from *actual* parallelism: ``site_compute_seconds`` sums every site's
measured compute over all phases (the serial work), and
``phase_wall_seconds`` is the real time those phases took — their ratio,
:attr:`ExecutionStats.parallel_speedup`, is the observed speedup (~1.0 for
the sequential backend, up to the core count for the process backend).
Backends never change ``response_seconds`` semantics: per-site durations
are measured where the task runs and combined as a maximum either way.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from .messages import COORDINATOR, Message, MessageKind


@dataclass
class ExecutionStats:
    """Counters for one distributed query evaluation."""

    algorithm: str
    num_sites: int
    visits: Counter = field(default_factory=Counter)
    messages: List[Message] = field(default_factory=list)
    traffic_bytes: int = 0
    response_seconds: float = 0.0
    coordinator_seconds: float = 0.0
    wall_seconds: float = 0.0
    supersteps: int = 0
    executor: str = "sequential"
    site_compute_seconds: float = 0.0
    phase_wall_seconds: float = 0.0
    #: The deterministic communication share of ``response_seconds``:
    #: latency + transfer + routing charges under the network model, with no
    #: measured compute mixed in.  Byte sizes and round structure are fixed
    #: by the algorithm, so this quantity is reproducible across machines —
    #: it is what the CI benchmark-regression gate compares.
    network_seconds: float = 0.0
    extras: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_message(self, src: int, dst: int, kind: MessageKind, size: int) -> None:
        self.messages.append(Message(src, dst, kind, size))
        self.traffic_bytes += size
        if dst != COORDINATOR:
            self.visits[dst] += 1

    def add_parallel_phase(
        self, site_seconds: Dict[int, float], wall_seconds: float = 0.0
    ) -> None:
        """One round of concurrent local work: charge the slowest site.

        ``wall_seconds`` is the real elapsed time of the round (phase body
        plus executor dispatch), kept separate from the modeled charge so
        the observed speedup of a parallel backend can be reported.
        """
        if site_seconds:
            self.response_seconds += max(site_seconds.values())
            self.site_compute_seconds += sum(site_seconds.values())
        self.phase_wall_seconds += wall_seconds

    def add_coordinator_time(self, seconds: float) -> None:
        self.coordinator_seconds += seconds
        self.response_seconds += seconds

    def accumulate(self, other: "ExecutionStats") -> None:
        """Fold another run's counters into this one.

        Multi-round drivers (the dynamic-graph workload loop serves query
        batches between mutation bursts) aggregate their per-round runs
        with this: visit counters add, message logs concatenate, and every
        modeled/measured time sums — rounds are sequential, they do not
        overlap the way sites within one round do.
        """
        self.visits.update(other.visits)
        self.messages.extend(other.messages)
        self.traffic_bytes += other.traffic_bytes
        self.response_seconds += other.response_seconds
        self.coordinator_seconds += other.coordinator_seconds
        self.wall_seconds += other.wall_seconds
        self.supersteps += other.supersteps
        self.site_compute_seconds += other.site_compute_seconds
        self.phase_wall_seconds += other.phase_wall_seconds
        self.network_seconds += other.network_seconds

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    @property
    def num_messages(self) -> int:
        return len(self.messages)

    @property
    def total_visits(self) -> int:
        return sum(self.visits.values())

    @property
    def max_visits_per_site(self) -> int:
        return max(self.visits.values(), default=0)

    @property
    def parallel_speedup(self) -> Optional[float]:
        """Observed speedup of the parallel phases: serial compute over real
        elapsed time.  ``None`` until a phase with site work has run."""
        if self.phase_wall_seconds <= 0.0 or self.site_compute_seconds <= 0.0:
            return None
        return self.site_compute_seconds / self.phase_wall_seconds

    def visits_per_site(self) -> Dict[int, int]:
        return {sid: self.visits.get(sid, 0) for sid in range(self.num_sites)}

    def traffic_by_kind(self) -> Dict[MessageKind, int]:
        out: Dict[MessageKind, int] = {}
        for msg in self.messages:
            out[msg.kind] = out.get(msg.kind, 0) + msg.size_bytes
        return out

    def summary(self) -> str:
        kinds = ", ".join(
            f"{kind.value}={size}B" for kind, size in sorted(
                self.traffic_by_kind().items(), key=lambda kv: kv[0].value
            )
        )
        speedup = self.parallel_speedup
        tail = f" speedup={speedup:.2f}x" if speedup is not None else ""
        return (
            f"[{self.algorithm}] visits/site(max)={self.max_visits_per_site} "
            f"total_visits={self.total_visits} messages={self.num_messages} "
            f"traffic={self.traffic_bytes}B ({kinds}) "
            f"response={self.response_seconds * 1e3:.2f}ms "
            f"wall={self.wall_seconds * 1e3:.2f}ms "
            f"executor={self.executor}{tail}"
        )


@dataclass
class WorkloadStats:
    """Aggregates for one batch of queries served with cross-query reuse.

    The ``total_*`` fields sum the *per-query* modeled stats — by
    construction exactly what sequential one-by-one evaluation would charge
    (the serving engine replays every query's paper-faithful accounting).
    ``batch`` is the engine's own run: what actually crossed the simulated
    network and which site tasks actually executed after deduplication and
    cache hits.  Their ratio is the amortization the batch engine buys.
    """

    num_queries: int = 0
    num_trivial: int = 0
    #: Queries evaluated outside the batch path (non-batchable baselines).
    num_unbatched: int = 0
    #: (query, fragment) partial-result lookups served from the cache —
    #: including within-batch deduplication (second lookup of a key that an
    #: earlier query in the same batch already scheduled).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Distinct per-fragment evaluations actually executed this batch.
    tasks_executed: int = 0
    #: Lookups of the serving cache's plan table (``run_batch``) and of its
    #: solved-answer table (phase 3 on a persistent cache); a hit skipped
    #: building the plan or solving the query at the coordinator.
    plan_hits: int = 0
    plan_misses: int = 0
    answer_hits: int = 0
    answer_misses: int = 0
    #: The batched run's own accounting (None when nothing was batched).
    batch: Optional[ExecutionStats] = None
    total_response_seconds: float = 0.0
    total_network_seconds: float = 0.0
    total_traffic_bytes: int = 0
    total_visits: int = 0
    total_messages: int = 0

    @property
    def lookups(self) -> int:
        return self.cache_hits + self.cache_misses

    @property
    def hit_rate(self) -> float:
        """Fraction of partial-result lookups served without recomputation."""
        if self.lookups == 0:
            return 0.0
        return self.cache_hits / self.lookups

    @property
    def amortized_response_seconds(self) -> Optional[float]:
        """Batched response per query — the serving-side latency figure."""
        if self.batch is None or self.num_queries == 0:
            return None
        return self.batch.response_seconds / self.num_queries

    @property
    def modeled_speedup(self) -> Optional[float]:
        """One-by-one modeled response over batched modeled response."""
        if self.batch is None or self.batch.response_seconds <= 0.0:
            return None
        return self.total_response_seconds / self.batch.response_seconds

    @property
    def traffic_ratio(self) -> Optional[float]:
        """Batched bytes over one-by-one bytes (lower is better)."""
        if self.batch is None or self.total_traffic_bytes == 0:
            return None
        return self.batch.traffic_bytes / self.total_traffic_bytes

    def summary(self) -> str:
        head = (
            f"[batch] queries={self.num_queries} "
            f"hit-rate={self.hit_rate * 100:.1f}% "
            f"tasks={self.tasks_executed}/{self.lookups}"
        )
        if self.num_unbatched:
            head += f" unbatched={self.num_unbatched}"
        if self.plan_hits or self.plan_misses:
            head += f" plans-reused={self.plan_hits}/{self.plan_hits + self.plan_misses}"
        if self.answer_hits or self.answer_misses:
            head += (
                f" answers-reused={self.answer_hits}/"
                f"{self.answer_hits + self.answer_misses}"
            )
        parts = [head]
        if self.batch is not None:
            amortized = self.amortized_response_seconds or 0.0
            parts.append(
                f"batch-response={self.batch.response_seconds * 1e3:.2f}ms "
                f"(amortized {amortized * 1e3:.3f}ms/query) "
                f"batch-traffic={self.batch.traffic_bytes}B"
            )
            speedup = self.modeled_speedup
            if speedup is not None:
                parts.append(
                    f"vs one-by-one: response={self.total_response_seconds * 1e3:.2f}ms "
                    f"traffic={self.total_traffic_bytes}B speedup={speedup:.2f}x"
                )
        return " | ".join(parts)


class PhaseTimer:
    """Times per-site work inside one parallel phase.

    Durations are CPU time of the executing thread (``thread_time``) — the
    same clock :func:`repro.distributed.executors.run_timed` uses for
    submitted tasks — so every algorithm's per-site compute is measured
    identically, immune to scheduler contention, whether it runs inline
    (``phase.at``, ad-hoc callers) or on an executor backend.
    """

    def __init__(self) -> None:
        self.site_seconds: Dict[int, float] = {}

    def credit(self, site_id: int, seconds: float) -> None:
        """Credit compute time measured elsewhere (cached partial replay)."""
        self.site_seconds[site_id] = self.site_seconds.get(site_id, 0.0) + seconds

    @contextmanager
    def at(self, site_id: int) -> Iterator[None]:
        start = time.thread_time()
        try:
            yield
        finally:
            elapsed = time.thread_time() - start
            self.site_seconds[site_id] = self.site_seconds.get(site_id, 0.0) + elapsed


@contextmanager
def stopwatch() -> Iterator[List[float]]:
    """``with stopwatch() as sw: ...`` — ``sw[0]`` holds the elapsed seconds."""
    box = [0.0]
    start = time.perf_counter()
    try:
        yield box
    finally:
        box[0] = time.perf_counter() - start
