"""Pluggable execution backends for the simulated cluster's parallel phases.

The paper's central performance claim is that partial evaluation runs "in
parallel at each site, without waiting for the outcome or messages from any
other site" (Section 1).  The simulator *models* that concurrency — each
parallel phase charges the maximum of its per-site durations — but until now
it always *executed* the site-local work sequentially in one process.  This
module makes the execution strategy a pluggable backend (DESIGN.md §5):

``sequential``
    Today's behavior and the default: run every site task inline, in
    submission order.  Fully deterministic; zero overhead; the reference
    semantics every other backend must reproduce bit-for-bit.

``thread``
    A shared :class:`concurrent.futures.ThreadPoolExecutor`.  Site tasks are
    pure functions over immutable fragments, so they release work to the OS
    scheduler freely; CPython's GIL limits the speedup for pure-Python
    compute, but any oracle/index releasing the GIL benefits immediately.

``process``
    A shared :class:`concurrent.futures.ProcessPoolExecutor`.  True
    parallelism across cores.  Task functions must be module-level and all
    task inputs/outputs picklable — which they are: fragments, queries,
    query automata, Pregel vertex programs, and the partial-answer
    containers all round-trip through :mod:`pickle`, and the
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

Worker pools are shared per (backend kind, worker count) across clusters and
shut down at interpreter exit, so constructing many clusters (the test suite
builds hundreds) costs nothing until a parallel phase actually runs.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import sys
import time
from concurrent import futures
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Type, Union

from ..errors import DistributedError
from ..strategies import StrategyRegistry


class SiteTask(NamedTuple):
    """One unit of site-local work submitted to a backend.

    ``fn`` must be a module-level function (the process backend pickles it)
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
    or cgroup-limited hosts for processes), which inflates each task's wall
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


# ---------------------------------------------------------------------------
# shared worker pools
# ---------------------------------------------------------------------------
_POOLS: Dict[Tuple[str, int], futures.Executor] = {}


def _worker_init(parent_sys_path: List[str]) -> None:
    """Align a worker's import paths with the parent's.

    Spawn/forkserver workers re-import task modules by qualified name and do
    not inherit in-process ``sys.path`` edits (e.g. pytest's ``pythonpath``
    config on an uninstalled checkout), so the parent ships its path over.
    """
    sys.path[:] = parent_sys_path


def _process_context():
    """A start method that is safe with live threads in the parent.

    The thread and process backends share one interpreter, so the process
    pool may be created while thread-pool workers are alive; plain ``fork``
    with live threads is deprecated (3.12+) and can deadlock a child on an
    inherited lock.  Prefer ``forkserver`` (POSIX), else the platform
    default (``spawn`` on Windows/macOS).
    """
    if "forkserver" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("forkserver")
    return multiprocessing.get_context()


def _shared_pool(kind: str, max_workers: int) -> futures.Executor:
    key = (kind, max_workers)
    pool = _POOLS.get(key)
    if pool is None:
        if kind == "thread":
            pool = futures.ThreadPoolExecutor(
                max_workers=max_workers, thread_name_prefix="repro-site"
            )
        else:
            pool = futures.ProcessPoolExecutor(
                max_workers=max_workers,
                mp_context=_process_context(),
                initializer=_worker_init,
                initargs=(list(sys.path),),
            )
        _POOLS[key] = pool
    return pool


@atexit.register
def shutdown_pools() -> None:
    """Shut down every shared worker pool (idempotent; runs at exit)."""
    while _POOLS:
        _, pool = _POOLS.popitem()
        pool.shutdown(wait=False, cancel_futures=True)


class _PoolBackend(ExecutorBackend):
    """Common machinery for the thread and process backends."""

    _kind = "abstract"

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
            # Nothing to overlap: skip pool dispatch (and its pickling).
            return [run_timed(task) for task in tasks]
        pool = _shared_pool(self._kind, self.max_workers)
        return list(pool.map(run_timed, tasks))

    def close(self) -> None:
        pool = _POOLS.pop((self._kind, self.max_workers), None)
        if pool is not None:
            pool.shutdown(wait=True)


class ThreadExecutor(_PoolBackend):
    """Concurrent site tasks on a shared thread pool."""

    name = "thread"
    _kind = "thread"


class ProcessExecutor(_PoolBackend):
    """True multi-core parallelism on a shared process pool.

    Requires module-level task functions and picklable inputs/outputs.
    Strategies (kernel, oracle) cross the boundary as registry names.
    """

    name = "process"
    _kind = "process"


class SocketExecutor(ExecutorBackend):
    """Site tasks on broker *processes* reached over TCP (DESIGN.md §10).

    The networked shape of the process backend: a coordinator (this side)
    round-robins each phase's tasks over a pool of broker processes
    speaking length-prefixed pickle frames, shipping each fragment across
    the wire once and addressing it by ``(fid, Fragment.version, stamp)``
    afterwards.  Answers and modeled stats stay bit-identical to
    ``sequential``; broker death degrades to retry-then-inline evaluation
    (``degraded_tasks`` counts how often), never to a wrong answer.

    By default the pool spawns ``num_brokers`` localhost children and is
    shared per configuration across executor instances (like the
    thread/process pools).  Pass ``addresses=["host:port", ...]`` to use
    externally managed ``python -m repro.net.broker --listen`` brokers,
    ``timeout`` to tighten the per-round response deadline, and
    ``shared=False`` for a dedicated pool (what the crash tests use).
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
        import weakref

        from ..net import coordinator

        if num_brokers is not None and num_brokers < 1:
            raise DistributedError(f"num_brokers must be >= 1, got {num_brokers}")
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
    ProcessExecutor.name: ProcessExecutor,
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
