"""The four workloads: how each sets the system up and executes one op.

All four share the graph, fragment count, partitioner and kernel of
:mod:`fixture`; they differ in which layers an op crosses.  No workload sets
a reachability oracle: ``repro.connect(..., oracle=X)`` forwards the oracle
to bounded and regular queries, which raise ``QueryError`` (README, "Traps").
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

import repro
from repro.core.engine import evaluate
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.executors import SocketExecutor
from repro.net.server import start_background_server
from repro.serving.engine import BatchQueryEngine

import fixture
from fixture import FRAGMENTS, KERNEL, PARTITIONER, Op

#: Ops answered inside ``setup_s``: all three classes, every fragment.
WARMUP_OPS = 20
#: ``socket-cold`` ops re-evaluated in process to compare modeled traffic.
TRAFFIC_SAMPLE = 40


def _cluster(graph: Any, executor: Any) -> SimulatedCluster:
    return SimulatedCluster.from_graph(
        graph, FRAGMENTS, partitioner=PARTITIONER, seed=0, executor=executor
    )


class Workload:
    """One way of deploying the system and sending it the op stream."""

    name = "abstract"

    def __init__(self, graph: Any, seed: int, sizes: fixture.Sizes) -> None:
        """Generate the op stream (with ground truth) for ``seed``."""
        self.graph = graph
        self.ops: List[Op] = self.make_ops(graph, seed, sizes)
        self.cluster: Optional[SimulatedCluster] = None
        self.callers: List[Callable[[Op], Any]] = []

    def make_ops(self, graph: Any, seed: int, sizes: fixture.Sizes) -> List[Op]:
        """The seeded op stream of this workload."""
        raise NotImplementedError

    def setup(self) -> None:
        """Build the system from the graph in hand (timed as ``setup_s``)."""
        raise NotImplementedError

    def reset(self) -> None:
        """Return to the state every pass starts from (untimed)."""

    def close(self) -> None:
        """Stop everything :meth:`setup` started."""

    def check(self, op: Op, result: Any) -> Optional[str]:
        """Why ``result`` is wrong for ``op``, or ``None`` when it is right."""
        if isinstance(result, Exception):
            return f"{op.kind} raised {result!r}"
        if op.kind in ("add", "remove"):
            if result != op.truth:
                return f"{op.kind}{op.arg}: standing {result} != {op.truth}"
            return None
        if result.answer != op.truth:
            return f"{op.arg}: answered {result.answer}, truth {op.truth}"
        if result.stats.max_visits_per_site > 1:
            return f"{op.arg}: a site was visited {result.stats.max_visits_per_site}x"
        return None

    def cross_check(self) -> Optional[str]:
        """A whole-workload invariant checked once after the passes."""
        return None

    def counters(self) -> Dict[str, float]:
        """Exact counters the system keeps itself (read at end of run)."""
        return {}


class OneshotCold(Workload):
    """The paper's algorithm as published, in process, nothing cached."""

    name = "oneshot-cold"

    def make_ops(self, graph, seed, sizes):
        """Distinct queries (reach/bounded/regular 40/30/30)."""
        return fixture.cold_ops(graph, seed, sizes)

    def make_executor(self) -> Any:
        """The backend local evaluation runs on."""
        return "sequential"

    def setup(self) -> None:
        """Partition, build the cluster, one caller through ``evaluate``."""
        self.cluster = _cluster(self.graph, self.make_executor())
        self.callers = [self.execute]

    def close(self) -> None:
        """Release the executor (stops the brokers of ``socket-cold``)."""
        if self.cluster is not None:
            self.cluster.executor.close()

    def execute(self, op: Op) -> Any:
        """One query through ``repro.core.engine.evaluate``."""
        return evaluate(self.cluster, op.arg, kernel=KERNEL)


class SocketCold(OneshotCold):
    """The same queries and graph with local evaluation behind the wire."""

    name = "socket-cold"

    def make_executor(self) -> Any:
        """A dedicated pool of two broker processes."""
        return SocketExecutor(num_brokers=2, shared=False)

    def cross_check(self) -> Optional[str]:
        """Modeled traffic must not depend on where local evaluation ran."""
        for op in self.ops[:: max(1, len(self.ops) // TRAFFIC_SAMPLE)]:
            wire = self.execute(op).stats
            local = evaluate(
                self.cluster, op.arg, executor="sequential", kernel=KERNEL
            ).stats
            if (wire.traffic_bytes, wire.num_messages) != (
                local.traffic_bytes,
                local.num_messages,
            ):
                return (
                    f"{op.arg}: traffic {wire.traffic_bytes} B over sockets, "
                    f"{local.traffic_bytes} B in process"
                )
        return None

    def counters(self) -> Dict[str, float]:
        """Tasks the coordinator had to run itself after a broker failed."""
        return {"net.degraded_tasks": float(self.cluster.executor.degraded_tasks)}


class ServeZipf(Workload):
    """The full serving stack under a skewed stream from two connections."""

    name = "serve-zipf"
    CONNECTIONS = 2
    server: Any = None
    clients: Sequence[Any] = ()

    def make_ops(self, graph, seed, sizes):
        """A zipf(1.2) stream over a pool of distinct queries."""
        return fixture.zipf_ops(graph, seed, sizes)

    def setup(self) -> None:
        """Cluster, batch engine, TCP front end, two connected clients."""
        self.clients = []
        self.server = None
        self.cluster = _cluster(self.graph, "sequential")
        self.engine = BatchQueryEngine(self.cluster)
        self.server = start_background_server(self.engine, window=0.002, max_batch=32)
        for _ in range(self.CONNECTIONS):
            self.clients.append(repro.connect(self.server.address, kernel=KERNEL))
        self.callers = [
            (lambda op, client=client: client.query(op.arg)) for client in self.clients
        ]

    def reset(self) -> None:
        """Every pass starts on an empty serving cache."""
        self.engine.cache.clear()

    def close(self) -> None:
        """Close the connections, then the server."""
        for client in self.clients:
            client.close()
        if self.server is not None:
            self.server.shutdown()

    def counters(self) -> Dict[str, float]:
        """The server's own view of latency and batching."""
        stats = self.clients[0].stats()
        return {
            "serving.batch_size_mean": stats["served"] / max(1, stats["batches"]),
            "net.server_reported_p50_ms": stats["p50_ms"],
            "net.server_reported_p99_ms": stats["p99_ms"],
        }


class MutateMix(Workload):
    """Reads between edge writes that invalidate what the reads cached."""

    name = "mutate-mix"
    client: Any = None

    def make_ops(self, graph, seed, sizes):
        """Add/read/remove/read rounds; remembers the standing queries."""
        ops, self.standing = fixture.mutate_ops(graph, seed, sizes)
        return ops

    def setup(self) -> None:
        """``repro.connect(graph)`` plus one session per standing query."""
        self.client = repro.connect(
            self.graph, fragments=FRAGMENTS, partitioner=PARTITIONER, kernel=KERNEL
        )
        self.cluster = self.client.cluster
        self.sessions = [self.client.session(query) for query in self.standing]
        self.callers = [self.execute]

    def execute(self, op: Op) -> Any:
        """A read through the client, or a write through the sessions.

        An edge is added through the first session and removed through the
        second; the other session is resynced on the touched fragments, as
        an application holding two standing queries has to do.
        """
        if op.kind not in ("add", "remove"):
            return self.client.query(op.arg)
        u, v = op.arg
        if op.kind == "add":
            writer, other = self.sessions
            writer.add_edge(u, v)
        else:
            other, writer = self.sessions
            writer.remove_edge(u, v)
        fragmentation = self.cluster.fragmentation
        other.resync(u)
        if fragmentation.fragment_of(u).fid != fragmentation.fragment_of(v).fid:
            other.resync(v)
        return tuple(session.answer for session in self.sessions)

    def reset(self) -> None:
        """Every pass starts on an empty serving cache (the graph is restored
        by the stream itself)."""
        self.client.engine.cache.clear()

    def close(self) -> None:
        """Release the client."""
        if self.client is not None:
            self.client.close()


BY_NAME = {cls.name: cls for cls in (OneshotCold, SocketCold, ServeZipf, MutateMix)}
