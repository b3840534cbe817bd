"""``repro.connect()``: one front door for every way of running queries.

The query surface grew organically — ``evaluate(cluster, query)`` for one
query, ``execute_plans``/``BatchQueryEngine`` for batches, the incremental
session classes for standing queries, and now a TCP serving front end.
``connect()`` collapses them behind one ``Client``::

    import repro

    # in-process: a graph (fragmented for you) or an existing cluster
    client = repro.connect(graph, fragments=4, executor="socket")
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

from .core.engine import resolve_algorithm
from .core.options import EvalOptions
from .errors import QueryError


class Client:
    """The unified query surface ``connect()`` returns (both transports).

    A client holds the connect-level strategy defaults itself.  They are
    *soft* (DESIGN.md §14): each call is sent with its explicit options
    plus the defaults every one of its queries' algorithms takes — a
    default kernel serves a mixed stream without reaching the baseline
    queries in it — while an explicit option the algorithm does not take
    raises :class:`~repro.errors.QueryError`.
    """

    _defaults = EvalOptions()

    def _options(
        self,
        queries: Sequence[Any],
        algorithm: Optional[str],
        kernel: Optional[str],
    ) -> EvalOptions:
        """One call's options: explicit over the defaults that apply."""
        return EvalOptions(kernel=kernel).over(
            self._defaults, {resolve_algorithm(query, algorithm) for query in queries}
        )

    def query(
        self,
        query: Any,
        algorithm: Optional[str] = None,
        kernel: Optional[str] = None,
    ) -> Any:
        """Evaluate one query; returns its :class:`QueryResult`."""
        raise NotImplementedError

    def batch(
        self,
        queries: Sequence[Any],
        algorithm: Optional[str] = None,
        kernel: Optional[str] = None,
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

    def __init__(self, cluster: Any, defaults: EvalOptions = EvalOptions()) -> None:
        """Serve ``cluster`` through a fresh batch engine."""
        from .serving import BatchQueryEngine

        self.cluster = cluster
        self.engine = BatchQueryEngine(cluster)
        self._defaults = defaults
        self._served = 0

    def query(self, query, algorithm=None, kernel=None):
        """Evaluate one query through the serving path (a batch of one)."""
        return self.batch([query], algorithm, kernel=kernel).results[0]

    def batch(self, queries, algorithm=None, kernel=None):
        """Evaluate ``queries`` as one engine batch."""
        queries = list(queries)
        options = self._options(queries, algorithm, kernel)
        self._served += len(queries)
        return self.engine.run_batch(queries, algorithm, **options.given())

    def session(self, query, kernel=None):
        """Open a standing incremental session against the local cluster."""
        return self.engine.open_session(query, kernel=kernel or self._defaults.kernel)

    def stats(self):
        """Local serving stats (served count, cache hit rate, plan and
        solved-answer reuse)."""
        return {
            "served": self._served,
            "cache_hit_rate": self.engine.cache.hit_rate,
            **self.engine.cache.reuse_counts(),
            "open_sessions": 0,
        }


class RemoteClient(Client):
    """TCP transport: a :class:`~repro.net.client.ServeClient` wrapper."""

    def __init__(
        self,
        address: str,
        timeout: float = 60.0,
        defaults: EvalOptions = EvalOptions(),
    ) -> None:
        """Connect to a ``repro-serve`` front end at ``address``."""
        from .net.client import ServeClient

        self.address = address
        self._client = ServeClient(address, timeout=timeout)
        self._defaults = defaults

    def query(self, query, algorithm=None, kernel=None):
        """Evaluate one query on the server (admission-batched)."""
        options = self._options([query], algorithm, kernel)
        return self._client.query(query, algorithm, options)

    def batch(self, queries, algorithm=None, kernel=None):
        """Evaluate ``queries`` as one server-side engine batch."""
        queries = list(queries)
        options = self._options(queries, algorithm, kernel)
        return self._client.batch(queries, algorithm, options)

    def session(self, query, kernel=None):
        """Open a standing incremental session on the server."""
        return self._client.session(query, kernel=kernel or self._defaults.kernel)

    def stats(self):
        """The server's serving stats (served, batches, p50/p99, inflight,
        plan and solved-answer reuse)."""
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
    sets the client's default local-evaluation kernel (a registry name,
    validated here so a typo fails at connect time; a soft default — see
    :class:`Client`).  The parameter names match the ``repro`` CLI flags
    (``--fragments --partitioner --executor --kernel --seed``).
    """
    from .distributed.cluster import SimulatedCluster
    from .graph.digraph import DiGraph

    defaults = EvalOptions(kernel=kernel)
    defaults.check_names()
    if isinstance(target, SimulatedCluster):
        return LocalClient(target, defaults)
    if isinstance(target, DiGraph):
        cluster = SimulatedCluster.from_graph(
            target,
            fragments,
            partitioner=partitioner,
            seed=seed,
            executor=executor,
        )
        return LocalClient(cluster, defaults)
    if isinstance(target, str) and ":" in target:
        return RemoteClient(target, timeout=timeout, defaults=defaults)
    raise QueryError(
        "connect() takes a SimulatedCluster, a DiGraph, or a "
        f"'host:port' address; got {target!r}"
    )
