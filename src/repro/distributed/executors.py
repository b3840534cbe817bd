"""Pluggable execution backends for the simulated cluster's parallel phases.

The paper's central performance claim is that partial evaluation runs "in
parallel at each site, without waiting for the outcome or messages from any
other site" (Section 1).  The simulator *models* that concurrency — each
parallel phase charges the maximum of its per-site durations; this module
makes how site-local work *executes* a pluggable backend (DESIGN.md §5):

``sequential``
    The default: run every site task inline, in submission order.  Fully
    deterministic; zero overhead; the reference semantics the socket
    backend must reproduce bit-for-bit.

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
"""

from __future__ import annotations

import time
import weakref
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
    not wall clock: broker processes time-slice tasks whenever they
    outnumber schedulable cores (oversubscribed or cgroup-limited hosts),
    which inflates each task's wall clock by the waiting.  CPU time
    measures the quantity the simulator models — the site's own compute —
    identically under every backend, so the modeled response time and the
    reported speedup stay honest even on a contended machine (where
    ``parallel_speedup`` correctly reads ~1.0 instead of a phantom
    ``num_brokers``x).
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

        The sequential backend ignores this; the socket backend uses it to
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
    (empty ``addresses``, a bare address string, ``timeout <= 0``) is
    refused here, not degraded.
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
        if isinstance(addresses, str):
            raise DistributedError(
                f"addresses must be a list of 'host:port' strings, got the "
                f"string {addresses!r}"
            )
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
