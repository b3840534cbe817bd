"""Blocking TCP client for a ``repro-serve`` front end.

:class:`ServeClient` speaks the serving protocol over one connection with
strict request/response framing (a lock serializes concurrent callers, so
one client instance is safe to share across closed-loop load-test
threads).  Server-side errors come back as pickled exception objects and
are re-raised here, so a remote :class:`~repro.errors.QueryError` looks
exactly like a local one — which is what lets :func:`repro.connect` hand
back the same ``Client`` surface for both transports.
"""

from __future__ import annotations

import itertools
import socket
import threading
from typing import Any, Dict, Optional, Sequence

from ..core.options import EvalOptions
from ..errors import QueryError
from .framing import recv_frame, send_frame


class RemoteSession:
    """Client-side proxy of a standing incremental session on the server.

    Mirrors the local session surface the serving layer exposes:
    :attr:`answer`, :meth:`add_edge`, :meth:`remove_edge` — each edge
    update returns the refreshed :class:`~repro.core.results.QueryResult`
    and keeps the standing answer current.
    """

    def __init__(self, client: "ServeClient", sid: int, answer: Any) -> None:
        """Bind the proxy to session ``sid`` on ``client``'s server."""
        self._client = client
        self._sid = sid
        self._answer = answer
        self._closed = False

    @property
    def answer(self) -> Any:
        """The standing answer after the last applied update."""
        if self._closed:
            raise QueryError("session is closed")
        return self._answer

    def _update(self, action: str, u: Any, v: Any) -> Any:
        if self._closed:
            raise QueryError("session is closed")
        result = self._client._request(
            {"op": "session", "sid": self._sid, "action": action, "args": (u, v)}
        )
        self._answer = result.answer
        return result

    def add_edge(self, u: Any, v: Any) -> Any:
        """Apply edge insertion ``(u, v)``; returns the refreshed result."""
        return self._update("add_edge", u, v)

    def remove_edge(self, u: Any, v: Any) -> Any:
        """Apply edge deletion ``(u, v)``; returns the refreshed result."""
        return self._update("remove_edge", u, v)

    def close(self) -> None:
        """Release the server-side session (idempotent)."""
        if not self._closed:
            self._closed = True
            self._client._request(
                {"op": "session", "sid": self._sid, "action": "close"}
            )


class ServeClient:
    """One blocking connection to a ``repro-serve`` server."""

    def __init__(self, address: str, timeout: float = 60.0) -> None:
        """Connect to ``address`` (``host:port``)."""
        host, _, port = address.rpartition(":")
        if not port:
            raise QueryError(f"serving address must be host:port, got {address!r}")
        try:
            self._sock = socket.create_connection(
                (host or "127.0.0.1", int(port)), timeout=timeout
            )
        except (OSError, ValueError) as exc:
            raise QueryError(f"cannot connect to {address!r}: {exc}") from exc
        self._sock.settimeout(timeout)
        self._lock = threading.Lock()
        self._qids = itertools.count(1)
        self.address = address

    def _request(self, frame: Dict[str, Any]) -> Any:
        """One request/response round trip; re-raises server-side errors."""
        with self._lock:
            qid = next(self._qids)
            frame["qid"] = qid
            try:
                send_frame(self._sock, frame)
                reply = recv_frame(self._sock)
            except (EOFError, OSError) as exc:
                raise QueryError(
                    f"serving connection to {self.address} failed: {exc}"
                ) from exc
        error = reply.get("error") if isinstance(reply, dict) else None
        if error is not None:
            raise error
        if not isinstance(reply, dict) or reply.get("qid") != qid:
            raise QueryError(f"out-of-order serving reply: {reply!r}")
        return reply["value"]

    def query(
        self,
        query: Any,
        algorithm: Optional[str] = None,
        options: EvalOptions = EvalOptions(),
    ) -> Any:
        """Evaluate one query (admission-batched server side)."""
        return self._request(
            {"op": "query", "query": query, "algorithm": algorithm, **options.wire()}
        )

    def batch(
        self,
        queries: Sequence[Any],
        algorithm: Optional[str] = None,
        options: EvalOptions = EvalOptions(),
    ) -> Any:
        """Evaluate ``queries`` as one explicit engine batch."""
        return self._request(
            {
                "op": "batch",
                "queries": list(queries),
                "algorithm": algorithm,
                **options.wire(),
            }
        )

    def session(self, query: Any, kernel: Optional[str] = None) -> RemoteSession:
        """Open a standing incremental session for ``query``."""
        opened = self._request(
            {"op": "session_open", "query": query, "kernel": kernel}
        )
        return RemoteSession(self, opened["sid"], opened["answer"])

    def stats(self) -> Dict[str, Any]:
        """The server's serving stats (served, batches, p50/p99, inflight)."""
        return self._request({"op": "stats"})

    def close(self) -> None:
        """Close the connection (idempotent)."""
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close() rarely fails
            pass

    def __enter__(self) -> "ServeClient":
        """Context-manager support: ``with ServeClient(addr) as client:``."""
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Close on context exit."""
        self.close()
