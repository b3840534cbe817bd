"""Pluggable execution backends for the simulated cluster's parallel phases.

The paper's central performance claim is that partial evaluation runs "in
parallel at each site, without waiting for the outcome or messages from any
other site" (Section 1).  The simulator *models* that concurrency — each
parallel phase charges the maximum of its per-site durations; this module
makes how site-local work *executes* a pluggable backend (DESIGN.md §5):

``sequential``
    The default: run every site task inline, in submission order.  Fully
    deterministic; zero overhead; the reference semantics every other
    backend must reproduce bit-for-bit.

``thread``
    A shared :class:`concurrent.futures.ThreadPoolExecutor`.  Site tasks are
    pure functions over immutable fragments, so they release work to the OS
    scheduler freely; CPython's GIL limits the speedup for pure-Python
    compute, but any oracle/index releasing the GIL benefits immediately.

``socket``
    Broker processes reached over TCP (:mod:`repro.net`).  Task functions
    must be module-level and all task inputs/outputs picklable — which they
    are: fragments, queries, query automata, Pregel vertex programs, and the
    partial-answer containers all round-trip through :mod:`pickle`, and the
    ``TRUE``/``TARGET`` sentinels preserve identity because their
    ``__new__`` returns the per-process singleton.

The registered task functions (what algorithms actually submit):
``serving.engine.eval_fragment_jobs`` (partial evaluation, batch serving,
incremental-session updates), ``baselines.pregel.run_superstep`` (the
Pregel substrate's sharded supersteps), ``baselines.ship_all.
serialize_site`` and ``baselines.suciu.site_accessibility``.

Backends only change *how fast the wall clock runs*; they never change
answers or modeled costs.  Per-site compute time is measured inside the
worker (:func:`run_timed`), so the modeled ``response_seconds`` keeps the
same max-of-phase semantics under every backend, while
``ExecutionStats.phase_wall_seconds`` records what actually elapsed — their
ratio is the observed speedup.

Thread pools are shared per worker count across clusters and shut down at
interpreter exit, so constructing many clusters (the test suite builds
hundreds) costs nothing until a parallel phase actually runs.
"""

from __future__ import annotations

import atexit
import os
import time
import weakref
from concurrent import futures
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Type, Union

from ..errors import DistributedError
from ..strategies import StrategyRegistry


class SiteTask(NamedTuple):
    """One unit of site-local work submitted to a backend.

    ``fn`` must be a module-level function (the socket backend pickles it)
    and ``args`` must be picklable for the same reason.
    """

    site_id: int
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()


class TaskResult(NamedTuple):
    """A task's return value plus its measured compute time."""

    site_id: int
    value: Any
    seconds: float


def run_timed(task: SiteTask) -> TaskResult:
    """Execute one task, timing it where it runs (worker side).

    The duration is *CPU time of the executing thread* (``thread_time``),
    not wall clock: concurrent backends time-slice tasks whenever workers
    outnumber schedulable cores (GIL contention for threads, oversubscribed
    or cgroup-limited hosts for brokers), which inflates each task's wall
    clock by the waiting.  CPU time measures the quantity the simulator
    models — the site's own compute — identically under every backend, so
    the modeled response time and the reported speedup stay honest even on
    a contended machine (where ``parallel_speedup`` correctly reads ~1.0
    instead of a phantom ``num_workers``x).
    """
    start = time.thread_time()
    value = task.fn(*task.args)
    return TaskResult(task.site_id, value, time.thread_time() - start)


class ExecutorBackend:
    """Strategy interface: run one phase's site tasks, results in task order."""

    name: str = "abstract"

    def run_tasks(self, tasks: Sequence[SiteTask]) -> List[TaskResult]:
        raise NotImplementedError

    def bind_cluster(self, cluster: Any) -> None:
        """Notify the backend which cluster it executes for (optional hook).

        The in-process backends ignore this; the socket backend uses it to
        key shipped fragments by ``(cluster, fid, Fragment.version, stamp)``
        so writes and repartitions invalidate remote broker state.
        """

    def close(self) -> None:
        """Release any worker pool (optional; pools are also reaped at exit)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class SequentialExecutor(ExecutorBackend):
    """Inline execution in submission order — deterministic reference."""

    name = "sequential"

    def run_tasks(self, tasks: Sequence[SiteTask]) -> List[TaskResult]:
        return [run_timed(task) for task in tasks]


#: Shared thread pools keyed by worker count.
_POOLS: Dict[int, futures.ThreadPoolExecutor] = {}


@atexit.register
def shutdown_pools() -> None:
    """Shut down every shared thread pool (idempotent; runs at exit)."""
    while _POOLS:
        _, pool = _POOLS.popitem()
        pool.shutdown(wait=False, cancel_futures=True)


class ThreadExecutor(ExecutorBackend):
    """Concurrent site tasks on a shared thread pool."""

    name = "thread"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise DistributedError(f"max_workers must be >= 1, got {max_workers}")
        # Floor at 4: containerized environments routinely under-report
        # cores (cgroup pinning can say 1 while several are schedulable),
        # and a 1-worker pool would silently serialize every phase.  Mild
        # oversubscription on a genuinely small host costs little for
        # site-task shapes; pass max_workers explicitly to pin it.
        self.max_workers = max_workers or max(os.cpu_count() or 1, 4)

    def run_tasks(self, tasks: Sequence[SiteTask]) -> List[TaskResult]:
        tasks = list(tasks)
        if len(tasks) <= 1:
            # Nothing to overlap: skip pool dispatch.
            return [run_timed(task) for task in tasks]
        pool = _POOLS.get(self.max_workers)
        if pool is None:
            pool = _POOLS[self.max_workers] = futures.ThreadPoolExecutor(
                max_workers=self.max_workers, thread_name_prefix="repro-site"
            )
        return list(pool.map(run_timed, tasks))

    def close(self) -> None:
        pool = _POOLS.pop(self.max_workers, None)
        if pool is not None:
            pool.shutdown(wait=True)


class SocketExecutor(ExecutorBackend):
    """Site tasks on broker *processes* reached over TCP (DESIGN.md §10).

    The one backend that crosses a process boundary, as the paper's sites
    do: a coordinator (this side) round-robins each phase's tasks over
    broker processes speaking length-prefixed pickle frames, shipping each
    fragment once and addressing it by ``(fid, Fragment.version, stamp)``
    afterwards.  Answers and modeled stats stay bit-identical to
    ``sequential``; broker death degrades to retry-then-inline evaluation
    (``degraded_tasks`` counts how often), never to a wrong answer.

    By default the pool spawns ``num_brokers`` localhost children and is
    shared per configuration across executor instances.  Pass
    ``addresses=["host:port", ...]`` to use externally managed ``python -m
    repro.net.broker --listen`` brokers, ``timeout`` to tighten the
    per-round response deadline, and ``shared=False`` for a dedicated pool
    (what the crash tests use).  A configuration that can reach no broker
    (empty ``addresses``, ``timeout <= 0``) is refused here, not degraded.
    """

    name = "socket"

    def __init__(
        self,
        num_brokers: Optional[int] = None,
        addresses: Optional[Sequence[str]] = None,
        timeout: Optional[float] = None,
        shared: bool = True,
    ) -> None:
        """Configure the backend; brokers start on first ``run_tasks``."""
        from ..net import coordinator

        if num_brokers is not None and num_brokers < 1:
            raise DistributedError(f"num_brokers must be >= 1, got {num_brokers}")
        if addresses is not None and not addresses:
            raise DistributedError("addresses must name at least one broker")
        if timeout is not None and timeout <= 0:
            raise DistributedError(f"timeout must be > 0 seconds, got {timeout}")
        self.num_brokers = num_brokers or coordinator.DEFAULT_NUM_BROKERS
        self.addresses = tuple(addresses) if addresses is not None else None
        self.timeout = coordinator.DEFAULT_TIMEOUT if timeout is None else timeout
        self.shared = shared
        self.degraded_tasks = 0
        self._own_pool = None
        self._clusters: Any = weakref.WeakValueDictionary()

    def bind_cluster(self, cluster: Any) -> None:
        """Register ``cluster`` for version-addressed fragment keys."""
        from ..net import coordinator

        coordinator.bind_cluster(self, cluster)

    def run_tasks(self, tasks: Sequence[SiteTask]) -> List[TaskResult]:
        from ..net import coordinator

        return coordinator.run_socket_tasks(self, tasks)

    def close(self) -> None:
        """Shut down this executor's broker pool."""
        from ..net import coordinator

        coordinator.close_executor(self)


#: Registry of the interchangeable backends (``--executor`` choices).
EXECUTORS: Dict[str, Type[ExecutorBackend]] = {
    SequentialExecutor.name: SequentialExecutor,
    ThreadExecutor.name: ThreadExecutor,
    SocketExecutor.name: SocketExecutor,
}

#: The executor family of the one strategy registry (DESIGN.md §14); the
#: only family without an environment variable.
EXECUTOR_REGISTRY = StrategyRegistry(
    "executor",
    EXECUTORS,
    fallback=SequentialExecutor.name,
    error=DistributedError,
    summary="execution backend for site-local work: answers and modeled "
    "costs are identical under every backend, wall time is not; 'socket' "
    "runs the sites on TCP broker processes (DESIGN.md §5, §10)",
)

set_default_executor = EXECUTOR_REGISTRY.set_default
default_executor_name = EXECUTOR_REGISTRY.default


def get_executor(name: Optional[str] = None, **kwargs: Any) -> ExecutorBackend:
    """Instantiate a backend by registry name (``None`` = the default)."""
    return EXECUTORS[EXECUTOR_REGISTRY.resolve(name)](**kwargs)


def resolve_executor(
    spec: Union[str, ExecutorBackend, None] = None,
) -> ExecutorBackend:
    """Coerce ``spec`` (name, instance, or None = default) to a backend."""
    if isinstance(spec, ExecutorBackend):
        return spec
    if spec is None or isinstance(spec, str):
        return get_executor(spec)
    raise DistributedError(
        f"executor must be a name, an ExecutorBackend, or None; got {type(spec).__name__}"
    )
