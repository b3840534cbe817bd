"""``repro.connect()``: one front door for every way of running queries.

The query surface grew organically — ``evaluate(cluster, query)`` for one
query, ``execute_plans``/``BatchQueryEngine`` for batches, the incremental
session classes for standing queries, and now a TCP serving front end.
``connect()`` collapses them behind one ``Client``::

    import repro

    # in-process: a graph (fragmented for you) or an existing cluster
    client = repro.connect(graph, fragments=4, executor="process")
    client = repro.connect(cluster)

    # networked: a repro-serve address
    client = repro.connect("127.0.0.1:7464")

    result  = client.query(repro.ReachQuery("Ann", "Mark"))
    batch   = client.batch(queries)
    session = client.session(repro.ReachQuery("Ann", "Mark"))

The two transports expose the same methods with the same semantics —
``query`` returns a :class:`~repro.core.results.QueryResult`, ``batch`` a
:class:`~repro.serving.engine.BatchResult`, ``session`` an object with
``answer`` / ``add_edge`` / ``remove_edge`` — so code written against a
local cluster serves unchanged from a networked deployment, and the
``socket`` executor backend introduces zero new user-facing surface.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Union

from .errors import QueryError


class Client:
    """The unified query surface ``connect()`` returns (both transports)."""

    def query(
        self,
        query: Any,
        algorithm: Optional[str] = None,
        kernel: Optional[str] = None,
        oracle: Optional[str] = None,
    ) -> Any:
        """Evaluate one query; returns its :class:`QueryResult`."""
        raise NotImplementedError

    def batch(
        self,
        queries: Sequence[Any],
        algorithm: Optional[str] = None,
        kernel: Optional[str] = None,
        oracle: Optional[str] = None,
    ) -> Any:
        """Evaluate ``queries`` as one batch; returns a :class:`BatchResult`."""
        raise NotImplementedError

    def session(self, query: Any, kernel: Optional[str] = None) -> Any:
        """Open a standing incremental session (reach / regular queries)."""
        raise NotImplementedError

    def stats(self) -> Dict[str, Any]:
        """Serving statistics for this client's endpoint."""
        raise NotImplementedError

    def close(self) -> None:
        """Release the client's resources (idempotent)."""

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class LocalClient(Client):
    """In-process transport: a :class:`BatchQueryEngine` over one cluster."""

    def __init__(self, cluster: Any) -> None:
        """Serve ``cluster`` through a fresh batch engine."""
        from .serving import BatchQueryEngine

        self.cluster = cluster
        self.engine = BatchQueryEngine(cluster)
        self._served = 0

    def query(self, query, algorithm=None, kernel=None, oracle=None):
        """Evaluate one query through the serving path (a batch of one)."""
        self._served += 1
        return self.engine.evaluate(query, algorithm, kernel=kernel, oracle=oracle)

    def batch(self, queries, algorithm=None, kernel=None, oracle=None):
        """Evaluate ``queries`` as one engine batch."""
        queries = list(queries)
        self._served += len(queries)
        return self.engine.run_batch(queries, algorithm, kernel=kernel, oracle=oracle)

    def session(self, query, kernel=None):
        """Open a standing incremental session against the local cluster."""
        return self.engine.open_session(query, kernel=kernel)

    def stats(self):
        """Local serving stats (served count and cache hit rate)."""
        return {
            "served": self._served,
            "cache_hit_rate": self.engine.cache.hit_rate,
            "open_sessions": 0,
        }


class RemoteClient(Client):
    """TCP transport: a :class:`~repro.net.client.ServeClient` wrapper."""

    def __init__(self, address: str, timeout: float = 60.0) -> None:
        """Connect to a ``repro-serve`` front end at ``address``."""
        from .net.client import ServeClient

        self.address = address
        self._client = ServeClient(address, timeout=timeout)

    def query(self, query, algorithm=None, kernel=None, oracle=None):
        """Evaluate one query on the server (admission-batched)."""
        return self._client.query(
            query, algorithm=algorithm, kernel=kernel, oracle=oracle
        )

    def batch(self, queries, algorithm=None, kernel=None, oracle=None):
        """Evaluate ``queries`` as one server-side engine batch."""
        return self._client.batch(
            queries, algorithm=algorithm, kernel=kernel, oracle=oracle
        )

    def session(self, query, kernel=None):
        """Open a standing incremental session on the server."""
        return self._client.session(query, kernel=kernel)

    def stats(self):
        """The server's serving stats (served, batches, p50/p99, inflight)."""
        return self._client.stats()

    def close(self):
        """Close the TCP connection."""
        self._client.close()


def connect(
    target: Union[str, Any],
    *,
    fragments: int = 4,
    partitioner: str = "chunk",
    executor: Any = None,
    kernel: Optional[str] = None,
    oracle: Optional[str] = None,
    seed: int = 0,
    timeout: float = 60.0,
) -> Client:
    """Open a :class:`Client` for ``target``, local or networked.

    ``target`` may be:

    * a :class:`~repro.distributed.cluster.SimulatedCluster` — served
      in process as-is (``fragments``/``partitioner``/``seed`` ignored);
    * a :class:`~repro.graph.digraph.DiGraph` — fragmented into
      ``fragments`` sites with ``partitioner`` and served in process;
    * a ``"host:port"`` string — a running ``repro-serve`` front end.

    ``executor`` (name or :class:`ExecutorBackend` instance) selects the
    execution backend when this call constructs the cluster; ``kernel``
    sets the default local-evaluation kernel and ``oracle`` the default
    reachability index (a :mod:`repro.index.registry` name, validated
    here so typos fail at connect time) for queries issued through the
    returned client.  The parameter names match the ``repro`` CLI flags
    (``--fragments --partitioner --executor --kernel --oracle --seed``).
    """
    from .distributed.cluster import SimulatedCluster
    from .graph.digraph import DiGraph
    from .index.registry import resolve_oracle

    if oracle is not None:
        resolve_oracle(oracle)
    if isinstance(target, SimulatedCluster):
        client: Client = LocalClient(target)
    elif isinstance(target, DiGraph):
        cluster = SimulatedCluster.from_graph(
            target,
            fragments,
            partitioner=partitioner,
            seed=seed,
            executor=executor,
        )
        client = LocalClient(cluster)
    elif isinstance(target, str) and ":" in target:
        client = RemoteClient(target, timeout=timeout)
    else:
        raise QueryError(
            "connect() takes a SimulatedCluster, a DiGraph, or a "
            f"'host:port' address; got {target!r}"
        )
    if kernel is not None or oracle is not None:
        client = _DefaultsClient(client, kernel=kernel, oracle=oracle)
    return client


class _DefaultsClient(Client):
    """Decorator client filling in default kernel/oracle for every call.

    The default oracle reaches ``disReach`` only, like the process-wide
    default (:func:`repro.core.engine.plan_for`): distance and RPQ local
    evaluations have no oracle seam, so a mixed stream of queries must not
    inherit it.  A batch carries one oracle, so it gets the default when
    every query in it runs ``disReach``.  An explicit per-call ``oracle=``
    is forwarded as given (and raises where the algorithm takes none).
    """

    def __init__(
        self,
        inner: Client,
        kernel: Optional[str] = None,
        oracle: Optional[str] = None,
    ) -> None:
        self._inner = inner
        self._kernel = kernel
        self._oracle = oracle

    def _default_oracle(self, queries: Sequence[Any], algorithm: Optional[str]):
        if self._oracle is None:
            return None
        from .core.queries import ReachQuery

        if algorithm is None:
            applies = all(isinstance(query, ReachQuery) for query in queries)
        else:
            applies = algorithm == "disReach"
        return self._oracle if applies else None

    def query(self, query, algorithm=None, kernel=None, oracle=None):
        return self._inner.query(
            query,
            algorithm,
            kernel=kernel or self._kernel,
            oracle=oracle or self._default_oracle([query], algorithm),
        )

    def batch(self, queries, algorithm=None, kernel=None, oracle=None):
        queries = list(queries)
        return self._inner.batch(
            queries,
            algorithm,
            kernel=kernel or self._kernel,
            oracle=oracle or self._default_oracle(queries, algorithm),
        )

    def session(self, query, kernel=None):
        return self._inner.session(query, kernel=kernel or self._kernel)

    def stats(self):
        return self._inner.stats()

    def close(self):
        self._inner.close()

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)
