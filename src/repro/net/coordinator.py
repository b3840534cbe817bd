"""Coordinator side of the ``socket`` executor backend.

The coordinator owns everything the brokers must not: the cluster, the
modeled cost accounting, and `ParallelPhase.map` scheduling.  What crosses
the wire is pickled module-level task functions and their arguments,
except that fragments make the trip *once*.  The substitution walk in
:func:`run_socket_tasks` replaces each
:class:`~repro.partition.fragment.Fragment` in a task's arguments with a
:class:`~repro.net.framing.FragmentRef`; fragments a broker has not seen
ride along in the same ``run`` frame (TCP ordering makes ship-before-use
implicit), and every later round addresses them by key.

Fragment keys tie remote state to the cluster's own invalidation
machinery.  A fragment installed in a bound cluster is keyed
``("v", cluster_token, fid, fragment.version, mutation_stamp)`` — every
write and every repartition installs a state with a new version, which
changes the key, so brokers lazily age out stale copies exactly like the
serving cache does.  Free-standing fragments fall back to
``("o", object_token, mutation_stamp)``.

Failure model (DESIGN.md §10): *task* exceptions are authoritative — the
broker ships the exception object back and the coordinator re-raises the
submission-order-first one, matching the sequential backend.  *Transport*
failures (timeout, torn frame, connection reset) mark the broker dead; its
tasks are retried once on the surviving brokers, and whatever still cannot
be placed degrades to inline evaluation on the coordinator — the answer is
computed either way, never wrong, and ``SocketExecutor.degraded_tasks``
counts the degradations.  A frame the broker's wire decoder refuses comes
back as a typed ``refused`` reply: the link stays up, and its tasks run
inline without a retry, which every broker would refuse alike.  Spawned
pools replace dead brokers lazily at the start of the next round.
"""

from __future__ import annotations

import atexit
import itertools
import os
import socket
import subprocess
import sys
import tempfile
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import DistributedError, QueryError
from .framing import FragmentRef, recv_frame, send_frame

#: Brokers a spawned pool keeps alive (the CI serving job's shape).
DEFAULT_NUM_BROKERS = 2

#: Per-broker response deadline for one round, in seconds.
DEFAULT_TIMEOUT = 60.0

#: How long the coordinator waits for a spawned broker to dial back.
SPAWN_TIMEOUT = 30.0

#: How often a pending dial-back checks whether the broker child exited.
SPAWN_POLL = 0.05

#: How much of a dead broker child's stderr its spawn error quotes.
STDERR_TAIL = 2000

#: Fragment keys remembered per broker before the oldest are evicted.
SHIPPED_KEY_CAP = 512

_tokens = itertools.count(1)


def _next_token() -> int:
    """A process-unique monotone token (cluster and fragment identities)."""
    return next(_tokens)


# ---------------------------------------------------------------------------
# broker links and pools
# ---------------------------------------------------------------------------
class BrokerLink:
    """One live TCP connection to a broker, plus what it has been shipped."""

    def __init__(
        self,
        sock: socket.socket,
        proc: Optional[subprocess.Popen] = None,
    ) -> None:
        """Wrap ``sock`` (and the broker process, when this side spawned it)."""
        self.sock = sock
        self.proc = proc
        self.alive = True
        #: Insertion-ordered set of fragment keys this broker holds.
        self.shipped: "OrderedDict[Tuple[Any, ...], None]" = OrderedDict()

    def mark_dead(self) -> None:
        """Retire the link: close the socket, reap a spawned process."""
        self.alive = False
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - close() rarely fails
            pass
        if self.proc is not None and self.proc.poll() is None:
            self.proc.terminate()

    def shutdown(self) -> None:
        """Politely stop the broker (best effort), then retire the link."""
        if self.alive:
            try:
                self.sock.settimeout(1.0)
                send_frame(self.sock, {"op": "exit"})
                recv_frame(self.sock)
            except (OSError, EOFError, QueryError):
                pass
        self.mark_dead()
        if self.proc is not None:
            try:
                self.proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck child
                self.proc.kill()


def _broker_env() -> Dict[str, str]:
    """Environment for a spawned broker: the parent's import paths.

    A subprocess re-imports ``repro`` by name and does not see in-process
    ``sys.path`` edits (e.g. pytest's ``pythonpath`` config on an
    uninstalled checkout), so the parent ships its path via ``PYTHONPATH``.
    """
    env = dict(os.environ)
    paths = [p for p in sys.path if p]
    if paths:
        env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


class BrokerPool:
    """A set of broker links, either spawned locally or dialed by address.

    Spawn mode (``addresses is None``) binds a localhost listener, launches
    ``python -m repro.net.broker --connect host:port`` children, and
    replaces dead brokers lazily at the start of the next round.  Address
    mode connects out to externally managed ``--listen`` brokers and never
    respawns — a dead address stays dead (retry/degrade still guarantees
    answers).
    """

    def __init__(
        self,
        num_brokers: int = DEFAULT_NUM_BROKERS,
        addresses: Optional[Sequence[str]] = None,
    ) -> None:
        """Start (or dial) the brokers; raises if none can be reached."""
        if addresses is None and num_brokers < 1:
            raise DistributedError(f"num_brokers must be >= 1, got {num_brokers}")
        self.lock = threading.Lock()
        self._listener: Optional[socket.socket] = None
        self._links: List[BrokerLink] = []
        if addresses is not None:
            for address in addresses:
                host, _, port = address.rpartition(":")
                try:
                    sock = socket.create_connection(
                        (host or "127.0.0.1", int(port)), timeout=SPAWN_TIMEOUT
                    )
                except OSError as exc:
                    self.close()
                    raise DistributedError(
                        f"cannot reach broker at {address!r}: {exc}"
                    ) from exc
                self._links.append(BrokerLink(sock))
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.bind(("127.0.0.1", 0))
            listener.listen()
            listener.settimeout(SPAWN_POLL)
            self._listener = listener
            try:
                for _ in range(num_brokers):
                    self._links.append(self._spawn_link())
            except DistributedError:
                self.close()
                raise

    def _spawn_link(self) -> BrokerLink:
        """Launch one broker child and accept its dial-back connection."""
        assert self._listener is not None
        host, port = self._listener.getsockname()
        # A file, not a pipe: nobody drains the child's stderr while it runs.
        with tempfile.TemporaryFile() as stderr:
            proc = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.net.broker",
                    "--connect",
                    f"{host}:{port}",
                ],
                env=_broker_env(),
                stdout=subprocess.DEVNULL,
                stderr=stderr,
            )
            try:
                conn = self._accept(proc, stderr)
                conn.settimeout(SPAWN_TIMEOUT)
                send_frame(conn, {"op": "ping"})
                reply = recv_frame(conn)
                if not (isinstance(reply, dict) and reply.get("ok")):
                    raise DistributedError(f"broker handshake failed: {reply!r}")
            except (OSError, EOFError, QueryError, DistributedError) as exc:
                proc.terminate()
                raise DistributedError(f"broker failed to start: {exc}") from exc
        return BrokerLink(conn, proc)

    def _accept(self, proc: subprocess.Popen, stderr: Any) -> socket.socket:
        """The child's dial-back, accepted in ``SPAWN_POLL`` slices.

        Between slices the child is polled, so one that exits first fails
        the spawn at once with its status and the tail of its stderr.
        """
        assert self._listener is not None
        deadline = time.monotonic() + SPAWN_TIMEOUT
        while True:
            try:
                return self._listener.accept()[0]
            except socket.timeout:
                pass
            status = proc.poll()
            if status is not None:
                stderr.seek(0)
                tail = stderr.read()[-STDERR_TAIL:].decode(errors="replace").strip()
                raise DistributedError(
                    f"broker exited with status {status} before dialing back: "
                    f"{tail or '<no stderr>'}"
                )
            if time.monotonic() >= deadline:
                raise DistributedError(f"no dial-back within {SPAWN_TIMEOUT:g} s")

    def live_links(self) -> List[BrokerLink]:
        """The live links, respawning dead spawned brokers first."""
        if self._listener is not None:
            for index, link in enumerate(self._links):
                if not link.alive:
                    try:
                        self._links[index] = self._spawn_link()
                    except DistributedError:
                        pass  # still dead; inline degrade covers the round
        return [link for link in self._links if link.alive]

    def close(self) -> None:
        """Shut every broker down and release the listener."""
        for link in self._links:
            link.shutdown()
        self._links.clear()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - close() rarely fails
                pass
            self._listener = None


#: Shared broker pools keyed by configuration (see :func:`_pool_key`).
_SHARED_BROKERS: Dict[Tuple[Any, ...], BrokerPool] = {}


@atexit.register
def shutdown_broker_pools() -> None:
    """Shut down every shared broker pool (idempotent; runs at exit)."""
    while _SHARED_BROKERS:
        _, pool = _SHARED_BROKERS.popitem()
        pool.close()


def _pool_key(executor: Any) -> Tuple[Any, ...]:
    """The sharing key of an executor's broker-pool configuration."""
    if executor.addresses is not None:
        return ("addr", tuple(executor.addresses))
    return ("spawn", executor.num_brokers)


def pool_for(executor: Any) -> BrokerPool:
    """The executor's broker pool, creating (and sharing) it on first use."""
    if not executor.shared:
        if executor._own_pool is None:
            executor._own_pool = BrokerPool(
                num_brokers=executor.num_brokers, addresses=executor.addresses
            )
        return executor._own_pool
    key = _pool_key(executor)
    pool = _SHARED_BROKERS.get(key)
    if pool is None:
        pool = BrokerPool(
            num_brokers=executor.num_brokers, addresses=executor.addresses
        )
        _SHARED_BROKERS[key] = pool
    return pool


def close_executor(executor: Any) -> None:
    """Release the executor's pool (shared pools close for everyone)."""
    if executor._own_pool is not None:
        executor._own_pool.close()
        executor._own_pool = None
        return
    pool = _SHARED_BROKERS.pop(_pool_key(executor), None)
    if pool is not None:
        pool.close()


# ---------------------------------------------------------------------------
# fragment keys and argument substitution
# ---------------------------------------------------------------------------
def bind_cluster(executor: Any, cluster: Any) -> None:
    """Register ``cluster`` so its fragments get version-addressed keys."""
    token = getattr(cluster, "_net_token", None)
    if token is None:
        token = _next_token()
        cluster._net_token = token
    executor._clusters[token] = cluster


def _fragment_key(executor: Any, fragment: Any) -> Tuple[Any, ...]:
    """The wire key of ``fragment`` (see module docstring for the forms).

    The mutation stamp rides in both forms so even an in-place graph edit
    that bypassed the cluster's version bump still changes the key —
    brokers can never serve a stale fragment for a fresh-looking address.
    """
    stamp = fragment.local_graph.mutation_stamp
    fid = fragment.fid
    for token in sorted(executor._clusters.keys()):
        cluster = executor._clusters.get(token)
        if cluster is None:
            continue
        fragmentation = getattr(cluster, "fragmentation", None)
        if (
            fragmentation is not None
            and 0 <= fid < len(fragmentation)
            and fragmentation[fid] is fragment
        ):
            return ("v", token, fid, fragment.version, stamp)
    token = getattr(fragment, "_net_token", None)
    if token is None:
        token = _next_token()
        object.__setattr__(fragment, "_net_token", token)
    return ("o", token, stamp)


def _substitute(
    value: Any,
    fragment_type: type,
    key_for: Callable[[Any], Tuple[Any, ...]],
    needed: Dict[Tuple[Any, ...], Any],
) -> Any:
    """Replace fragments in ``value`` with refs, recording what is needed.

    Recurses through tuples (named tuples preserved), lists and dict
    values — the only containers task arguments use — and leaves anything
    untouched structurally shared with the input.
    """
    if isinstance(value, fragment_type):
        key = key_for(value)
        needed[key] = value
        return FragmentRef(key)
    if isinstance(value, tuple):
        items = [_substitute(item, fragment_type, key_for, needed) for item in value]
        if any(new is not old for new, old in zip(items, value)):
            if hasattr(value, "_fields"):  # NamedTuple: rebuild positionally
                return type(value)(*items)
            return tuple(items)
        return value
    if isinstance(value, list):
        return [_substitute(item, fragment_type, key_for, needed) for item in value]
    if isinstance(value, dict):
        return {
            key: _substitute(item, fragment_type, key_for, needed)
            for key, item in value.items()
        }
    return value


# ---------------------------------------------------------------------------
# the round: schedule, ship, collect, retry, degrade
# ---------------------------------------------------------------------------
def _build_run_frame(
    link: BrokerLink,
    indices: Sequence[int],
    prepared: Sequence[Tuple[Any, Any, Dict[Tuple[Any, ...], Any]]],
) -> Dict[str, Any]:
    """One ``run`` frame for ``link``: missing fragments ship inline."""
    ship: Dict[Tuple[Any, ...], Any] = {}
    evict: List[Tuple[Any, ...]] = []
    task_list = []
    for index in indices:
        task, args, needed = prepared[index]
        for key, fragment in needed.items():
            if key not in link.shipped:
                ship[key] = fragment
            link.shipped[key] = None
            link.shipped.move_to_end(key)
        task_list.append((task.site_id, task.fn, args))
    while len(link.shipped) > SHIPPED_KEY_CAP:
        oldest, _ = link.shipped.popitem(last=False)
        evict.append(oldest)
    return {"op": "run", "ship": ship, "evict": evict, "tasks": task_list}


def run_socket_tasks(executor: Any, tasks: Sequence[Any]) -> List[Any]:
    """Run one phase's site tasks across the executor's broker pool.

    Results come back in task order and are bit-identical to the
    sequential backend's: the brokers run the same functions through the
    same :func:`~repro.distributed.executors.run_timed` wrapper, and every
    transport-level failure is absorbed by retry/degrade before anything
    is returned.
    """
    from ..distributed.executors import run_timed
    from ..partition.fragment import Fragment

    tasks = list(tasks)
    if not tasks:
        return []
    pool = pool_for(executor)

    key_memo: Dict[int, Tuple[Any, ...]] = {}

    def key_for(fragment: Any) -> Tuple[Any, ...]:
        key = key_memo.get(id(fragment))
        if key is None:
            key = _fragment_key(executor, fragment)
            key_memo[id(fragment)] = key
        return key

    prepared = []
    for task in tasks:
        needed: Dict[Tuple[Any, ...], Any] = {}
        args = _substitute(task.args, Fragment, key_for, needed)
        prepared.append((task, args, needed))

    results: List[Optional[Any]] = [None] * len(tasks)
    first_error: Optional[Tuple[int, BaseException]] = None
    refused: List[int] = []

    with pool.lock:
        pending = list(range(len(tasks)))
        links = pool.live_links()
        for _attempt in range(2):  # initial placement + one retry elsewhere
            links = [link for link in links if link.alive]
            if not pending or not links:
                break
            assignment: "OrderedDict[int, Tuple[BrokerLink, List[int]]]" = (
                OrderedDict()
            )
            for position, index in enumerate(pending):
                link = links[position % len(links)]
                assignment.setdefault(id(link), (link, []))[1].append(index)
            sent = []
            failed: List[int] = []
            for link, indices in assignment.values():
                frame = _build_run_frame(link, indices, prepared)
                try:
                    link.sock.settimeout(executor.timeout)
                    send_frame(link.sock, frame)
                except OSError:
                    link.mark_dead()
                    failed.extend(indices)
                else:
                    sent.append((link, indices, frame))
            for link, indices, frame in sent:
                try:
                    response = recv_frame(link.sock)
                except (OSError, EOFError, QueryError):
                    link.mark_dead()
                    failed.extend(indices)
                    continue
                if "refused" in response:
                    # The broker's decoder refused the whole frame: the link
                    # is sound and installed nothing, and every broker would
                    # refuse it, so these tasks run inline.  Nor did it run
                    # the frame's evictions: those keys go back at the
                    # oldest end, so the next frame evicts them again.
                    for key in frame["ship"]:
                        link.shipped.pop(key, None)
                    for key in reversed(frame["evict"]):
                        if key not in frame["ship"]:
                            link.shipped[key] = None
                            link.shipped.move_to_end(key, last=False)
                    refused.extend(indices)
                    continue
                for offset, result in enumerate(response.get("results", ())):
                    results[indices[offset]] = result
                error = response.get("error")
                if error is not None:
                    raw_index = response.get("error_index", -1)
                    if 0 <= raw_index < len(indices):
                        error_index = indices[raw_index]
                    else:
                        # The broker failed outside any task (e.g. an
                        # unknown op): attribute the error to this link's
                        # first task so first-error ordering stays sound.
                        error_index = indices[0]
                    if first_error is None or error_index < first_error[0]:
                        first_error = (error_index, error)
            pending = sorted(failed)

        # Whatever could not be placed on any broker runs inline: graceful
        # degradation — slower, never wrong.
        for index in sorted(pending + refused):
            if first_error is not None and index > first_error[0]:
                continue  # the sequential reference would already have raised
            executor.degraded_tasks += 1
            try:
                results[index] = run_timed(tasks[index])
            except BaseException as exc:  # noqa: BLE001 - reconciled below
                if first_error is None or index < first_error[0]:
                    first_error = (index, exc)

    if first_error is not None:
        raise first_error[1]
    return results  # type: ignore[return-value]
