"""``repro-serve``: the asyncio serving front end (DESIGN.md §10).

Concurrent client connections stream query frames into one
:class:`~repro.serving.engine.BatchQueryEngine`.  Single queries do not
run immediately: they enter a bounded admission queue (the backpressure
bound — when ``max_inflight`` queries are in flight, readers stop
accepting more, which TCP propagates to the clients) and a batcher
coroutine drains it: it takes the first queued query, then everything
else already queued (up to ``max_batch``), and runs that as one engine
batch, so concurrent clients get the cross-query amortization the batch
engine exists for (DESIGN.md §6).  It never waits for a query that has
not arrived.

Per-query latency is measured enqueue→reply and served as p50/p99 through
the ``stats`` op — the quantities the closed-loop ``bench serving`` load
test reports and CI gates.

All engine and session work runs on the event loop itself: the engine,
its cache and the cluster are single-threaded by design, and the loop is
the one thread that serializes them.  A batch holds the loop while it
runs; frames that arrive meanwhile wait in the socket buffer and are
queued together once it ends, so they form the next batch.  Under the GIL
a separate engine thread bought no parallelism, only a worker wake-up and
a thread-safe return per batch.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import sys
import threading
from collections import OrderedDict, deque
from typing import Any, Dict, List, Optional, Set, Tuple

from ..core.options import SERVED, EvalOptions, add_strategy_arguments, set_strategy_defaults
from ..errors import DistributedError, QueryError, ReproError
from .framing import read_frame, write_frame


def percentile(samples: List[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``samples`` by nearest-rank."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


class _Connection:
    """One client connection: its write side and the sessions it opened."""

    __slots__ = ("writer", "lock", "sessions")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.lock = asyncio.Lock()  # one reply frame on the wire at a time
        self.sessions: Set[int] = set()


class _Pending:
    """One admitted query waiting for (or riding in) a batch."""

    __slots__ = ("qid", "request", "conn", "enqueued", "done")

    def __init__(
        self, qid: Any, request: Dict[str, Any], conn: _Connection, enqueued: float
    ) -> None:
        self.qid = qid
        self.request = request
        self.conn = conn
        self.enqueued = enqueued
        self.done = False


class ServingServer:
    """The asyncio TCP front end over one batch engine.

    Construct with a :class:`~repro.serving.engine.BatchQueryEngine`, then
    either ``await start()`` inside a running loop or use
    :func:`start_background_server` to run it on a daemon thread (what the
    tests and the closed-loop bench do).
    """

    def __init__(
        self,
        engine: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        window: Any = None,
        max_batch: int = 32,
        max_inflight: int = 256,
    ) -> None:
        """Configure the front end (``port=0`` picks an ephemeral port).

        ``max_batch`` bounds how many queued queries one engine batch
        takes.  ``window`` is accepted and ignored: the batcher no longer
        waits for arrivals, and the keyword stays only for callers that
        still pass it.
        """
        if max_batch < 1:
            raise DistributedError(f"max_batch must be >= 1, got {max_batch}")
        if max_inflight < 1:
            raise DistributedError(f"max_inflight must be >= 1, got {max_inflight}")
        self.engine = engine
        self.host = host
        self.port = port
        self.max_batch = max_batch
        self.max_inflight = max_inflight
        self.address: Optional[str] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._queue: Optional[asyncio.Queue] = None
        self._batcher_task: Optional[asyncio.Task] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._sessions: Dict[int, Any] = {}
        self._session_ids = itertools.count(1)
        self._served = 0
        self._batches = 0
        self._latencies: deque = deque(maxlen=8192)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener and launch the batcher (call inside a loop)."""
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self.max_inflight)
        self._stop_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        bound_host, bound_port = self._server.sockets[0].getsockname()[:2]
        self.port = bound_port
        self.address = f"{bound_host}:{bound_port}"
        self._batcher_task = self._loop.create_task(self._batcher())

    async def run_until_stopped(self) -> None:
        """Serve until :meth:`shutdown` (or task cancellation)."""
        assert self._stop_event is not None
        try:
            await self._stop_event.wait()
        finally:
            await self._shutdown_async()

    async def _shutdown_async(self) -> None:
        """Close the listener, cancel the batcher, drop the sessions."""
        if self._batcher_task is not None:
            self._batcher_task.cancel()
            try:
                await self._batcher_task
            except asyncio.CancelledError:
                pass
            self._batcher_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._sessions.clear()

    def shutdown(self) -> None:
        """Thread-safe stop; joins the background thread when one exists."""
        loop, event = self._loop, self._stop_event
        if loop is not None and event is not None and not loop.is_closed():
            loop.call_soon_threadsafe(event.set)
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Read frames from one client until EOF or a torn frame."""
        conn = _Connection(writer)
        try:
            while True:
                try:
                    request = await read_frame(reader)
                except EOFError:
                    break
                except QueryError as exc:
                    # A torn or malformed frame leaves the stream position
                    # unknown: report the error and close the connection.
                    await self._reply(conn, {"qid": None, "error": exc})
                    break
                await self._dispatch(request, conn)
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        finally:
            for sid in conn.sessions:
                self._sessions.pop(sid, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _reply(self, conn: _Connection, payload: Dict[str, Any]) -> None:
        """Write one reply frame under the connection's write lock."""
        try:
            async with conn.lock:
                await write_frame(conn.writer, payload)
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # client went away; nothing to tell it

    async def _dispatch(self, request: Any, conn: _Connection) -> None:
        """Route one request frame."""
        op = request.get("op") if isinstance(request, dict) else None
        qid = request.get("qid") if isinstance(request, dict) else None
        try:
            if op == "query":
                assert self._queue is not None and self._loop is not None
                if "query" not in request:
                    raise QueryError("malformed 'query' request: missing 'query'")
                item = _Pending(qid, request, conn, enqueued=self._loop.time())
                await self._queue.put(item)  # blocks at max_inflight
                return
            if op == "batch":
                value = self.engine.run_batch(
                    request["queries"],
                    request.get("algorithm"),
                    **EvalOptions.from_wire(request).given(),
                )
                self._served += len(request["queries"])
            elif op == "session_open":
                session = self.engine.open_session(
                    request["query"],
                    kernel=request.get("kernel"),
                )
                sid = next(self._session_ids)
                self._sessions[sid] = session
                conn.sessions.add(sid)
                value = {"sid": sid, "answer": session.answer}
            elif op == "session":
                value = self._session_op(request, conn.sessions)
            elif op == "stats":
                value = self.stats_snapshot()
            else:
                raise QueryError(f"unknown serving op {op!r}")
        except ReproError as exc:
            await self._reply(conn, {"qid": qid, "error": exc})
            return
        except (KeyError, TypeError) as exc:
            error = QueryError(f"malformed {op!r} request: {exc!r}")
            await self._reply(conn, {"qid": qid, "error": error})
            return
        await self._reply(conn, {"qid": qid, "value": value})

    def _session_op(self, request: Dict[str, Any], owned_sessions: Set[int]) -> Any:
        """One action against an open incremental session."""
        sid = request["sid"]
        session = self._sessions.get(sid)
        if session is None:
            raise QueryError(f"no open session with id {sid}")
        action = request.get("action")
        if action == "answer":
            return session.answer
        if action == "close":
            self._sessions.pop(sid, None)
            owned_sessions.discard(sid)
            return True
        if action in ("add_edge", "remove_edge"):
            u, v = request["args"]
            return getattr(session, action)(u, v)
        raise QueryError(f"unknown session action {action!r}")

    # ------------------------------------------------------------------
    # batching
    # ------------------------------------------------------------------
    async def _batcher(self) -> None:
        """Run what is queued (up to ``max_batch``) as one batch, forever."""
        assert self._queue is not None
        while True:
            batch = [await self._queue.get()]
            while len(batch) < self.max_batch and not self._queue.empty():
                batch.append(self._queue.get_nowait())
            self._batches += 1
            try:
                await self._run_admitted(batch)
            except Exception as exc:  # noqa: BLE001 - batcher must survive
                # An unexpected error fails this batch's queries; the
                # batcher itself must keep draining the admission queue.
                error = QueryError(f"internal serving error: {exc!r}")
                for item in batch:
                    await self._finish(item, {"qid": item.qid, "error": error})

    async def _run_admitted(self, batch: List[_Pending]) -> None:
        """Evaluate one admitted batch, grouped by (algorithm, options)."""
        assert self._loop is not None
        groups: "OrderedDict[Tuple[Any, EvalOptions], List[_Pending]]" = OrderedDict()
        for item in batch:
            key = (item.request.get("algorithm"), EvalOptions.from_wire(item.request))
            groups.setdefault(key, []).append(item)
        for (algorithm, options), items in groups.items():
            queries = [item.request["query"] for item in items]
            try:
                result = self.engine.run_batch(queries, algorithm, **options.given())
            except ReproError:
                # One bad query can poison a batch; replay one by one so
                # the error lands on the query that caused it.
                for item in items:
                    await self._run_single(item, algorithm, options)
                continue
            if len(result.results) != len(items):
                error = QueryError(
                    f"engine returned {len(result.results)} results for a "
                    f"batch of {len(items)} queries"
                )
                for item in items:
                    await self._finish(item, {"qid": item.qid, "error": error})
                continue
            for item, query_result in zip(items, result.results):
                await self._finish(item, {"qid": item.qid, "value": query_result})

    async def _run_single(
        self, item: _Pending, algorithm: Any, options: EvalOptions
    ) -> None:
        """Fallback path: evaluate one admitted query alone."""
        try:
            value = self.engine.evaluate(
                item.request["query"], algorithm, **options.given()
            )
        except ReproError as exc:
            await self._finish(item, {"qid": item.qid, "error": exc})
            return
        await self._finish(item, {"qid": item.qid, "value": value})

    async def _finish(self, item: _Pending, payload: Dict[str, Any]) -> None:
        """Reply to one admitted query (once) and record its latency."""
        assert self._loop is not None
        if item.done:
            return
        item.done = True
        self._latencies.append(self._loop.time() - item.enqueued)
        self._served += 1
        await self._reply(item.conn, payload)

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def stats_snapshot(self) -> Dict[str, Any]:
        """Served counters and latency percentiles (the ``stats`` op).

        ``batches`` counts the engine batches the batcher ran;
        ``plan_hits``/``plan_misses`` and ``answer_hits``/``answer_misses``
        count the serving cache's plan and solved-answer lookups.
        """
        samples = list(self._latencies)
        return {
            "served": self._served,
            "batches": self._batches,
            "p50_ms": percentile(samples, 0.50) * 1e3,
            "p99_ms": percentile(samples, 0.99) * 1e3,
            "inflight": self._queue.qsize() if self._queue is not None else 0,
            "open_sessions": len(self._sessions),
            "cache_hit_rate": self.engine.cache.hit_rate,
            **self.engine.cache.reuse_counts(),
        }


def start_background_server(engine: Any, **kwargs: Any) -> ServingServer:
    """Run a :class:`ServingServer` on a daemon thread; returns it started.

    The server's :attr:`~ServingServer.address` is set before this
    returns; stop it with :meth:`ServingServer.shutdown`.
    """
    server = ServingServer(engine, **kwargs)
    started = threading.Event()
    failure: List[BaseException] = []

    async def _main() -> None:
        try:
            await server.start()
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            failure.append(exc)
            started.set()
            raise
        started.set()
        await server.run_until_stopped()

    def _runner() -> None:
        try:
            asyncio.run(_main())
        except BaseException:  # noqa: BLE001 - surfaced via `failure`
            pass

    thread = threading.Thread(
        target=_runner, name="repro-serve", daemon=True
    )
    thread.start()
    if not started.wait(timeout=30):
        raise DistributedError("serving front end failed to start in 30s")
    if failure:
        raise DistributedError(f"serving front end failed to start: {failure[0]}")
    server._thread = thread
    return server


# ---------------------------------------------------------------------------
# the repro-serve CLI
# ---------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """The ``repro-serve`` argument parser (mirrors the ``repro`` CLI)."""
    from ..partition.partitioners import PARTITIONERS
    from ..workload.datasets import DATASETS

    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve distributed reachability queries over TCP: "
        "concurrent clients stream queries into one batch engine "
        "(queued queries run as one batch, bounded in-flight backpressure).",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", help="edge-list or .json graph file")
    source.add_argument(
        "--dataset", choices=sorted(DATASETS), help="built-in dataset stand-in"
    )
    parser.add_argument("--scale", type=float, default=0.002,
                        help="dataset scale (with --dataset)")
    parser.add_argument("--fragments", "-k", type=int, default=4,
                        help="number of fragments/sites")
    parser.add_argument("--partitioner", choices=sorted(PARTITIONERS),
                        default="chunk", help="node placement strategy")
    parser.add_argument("--seed", type=int, default=0)
    add_strategy_arguments(parser, ("executor", *SERVED))
    parser.add_argument("--brokers", type=int, default=None, metavar="N",
                        help="broker processes to spawn (socket executor)")
    parser.add_argument("--broker-address", action="append", default=None,
                        metavar="HOST:PORT",
                        help="connect to an externally started broker "
                        "(repeatable; socket executor; overrides --brokers)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--allow-remote", action="store_true",
                        help="permit a non-loopback --host bind (frames are "
                        "unauthenticated pickle: anyone who can reach the "
                        "socket can execute code as this process; only use "
                        "on a trusted, isolated network)")
    parser.add_argument("--port", type=int, default=0,
                        help="listen port (default: 0 = ephemeral, printed)")
    parser.add_argument("--max-batch", type=int, default=32,
                        help="upper bound on queued queries per engine batch "
                        "(default: 32)")
    parser.add_argument("--max-inflight", type=int, default=256,
                        help="bounded in-flight queries before backpressure "
                        "(default: 256)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """``repro-serve``: boot a cluster and serve it over TCP."""
    from ..distributed.cluster import SimulatedCluster
    from ..distributed.executors import SocketExecutor
    from ..graph import graph_io
    from ..serving import BatchQueryEngine
    from ..workload.datasets import load_dataset
    from .framing import guard_bind_host

    args = build_parser().parse_args(argv)
    try:
        guard_bind_host(args.host, args.allow_remote, "repro-serve")
        set_strategy_defaults(args, SERVED)
        if args.graph:
            graph = graph_io.load(args.graph)
        else:
            graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
        executor: Any = args.executor
        if args.executor == "socket" and (args.brokers or args.broker_address):
            executor = SocketExecutor(
                num_brokers=args.brokers, addresses=args.broker_address
            )
        cluster = SimulatedCluster.from_graph(
            graph, args.fragments, partitioner=args.partitioner, seed=args.seed,
            executor=executor,
        )
        engine = BatchQueryEngine(cluster)
        server = ServingServer(
            engine,
            host=args.host,
            port=args.port,
            max_batch=args.max_batch,
            max_inflight=args.max_inflight,
        )
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    async def _serve() -> None:
        await server.start()
        print(f"repro-serve listening on {server.address} "
              f"(sites={cluster.num_sites}, executor={cluster.executor.name}, "
              f"max-batch={args.max_batch}, max-inflight={args.max_inflight})",
              flush=True)
        await server.run_until_stopped()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry point
    sys.exit(main())
