"""The broker: a worker process hosting fragments and running site tasks.

One broker serves one coordinator connection (the spawned shape — the
coordinator listens, brokers dial in with ``--connect``) or accepts any
number of coordinator connections (``--listen``, the externally-managed
shape CI's serving job uses).  Either way the per-connection protocol is a
strict request/response loop of :mod:`repro.net.framing` frames:

``{"op": "ping"}``
    Liveness/handshake probe; answers ``{"ok": True, "pid": ...}``.

``{"op": "run", "ship": {key: fragment}, "evict": [key], "tasks": [...]}``
    The work frame.  ``ship`` carries fragments this broker has not seen
    (the coordinator tracks what it shipped where); they are installed in
    the fragment store before anything runs, and any *older generation* of
    the same fragment — same cluster token and fid, lower version or
    stamp — is dropped, which is how repartitions and mutations invalidate
    remote state.  ``evict`` drops keys the coordinator aged out.  Each
    task is ``(site_id, fn, args)`` with
    :class:`~repro.net.framing.FragmentRef` placeholders in ``args``;
    tasks run in order through the same
    :func:`~repro.distributed.executors.run_timed` wrapper every other
    backend uses, so per-site CPU time is measured where the work runs.
    The response is ``{"results": [TaskResult...], "error": exception or
    None, "error_index": int}`` — a raising task aborts the rest of the
    batch (the sequential backend's semantics) and ships the exception
    object back for the coordinator to re-raise.

``{"op": "exit"}``
    Acknowledge and close.

A whole frame the wire decoder refuses (a global outside its allowlist,
say) is answered ``{"refused": QueryError}`` and the connection keeps
serving: the stream is still in step.  A torn or truncated frame ends the
connection.

The broker holds no cluster, no accounting and no query state: visits,
traffic and response time stay modeled at the coordinator, which is what
keeps answers and modeled stats bit-identical to the in-process backends.
"""

from __future__ import annotations

import argparse
import socket
import sys
import threading
from typing import Any, Dict, List, Optional, Tuple

from ..errors import QueryError
from .framing import FragmentRef, decode_payload, recv_body, send_frame


class FragmentStore:
    """Shipped fragments keyed by :class:`FragmentRef` key.

    Keeps at most one generation per fragment identity: installing
    ``("v", token, fid, version, stamp)`` drops any other key with the
    same ``(token, fid)`` (and installing an ``("o", token, stamp)`` key
    drops older stamps of the same object token), so a long-lived broker
    holds exactly the fragments the coordinator currently addresses.
    """

    def __init__(self) -> None:
        self._fragments: Dict[Tuple[Any, ...], Any] = {}
        self._by_identity: Dict[Tuple[Any, ...], Tuple[Any, ...]] = {}

    @staticmethod
    def _identity(key: Tuple[Any, ...]) -> Tuple[Any, ...]:
        """The generation-independent fragment identity of ``key``."""
        return key[:3] if key[0] == "v" else key[:2]

    def install(self, key: Tuple[Any, ...], fragment: Any) -> None:
        """Store ``fragment`` under ``key``, retiring older generations."""
        identity = self._identity(key)
        previous = self._by_identity.get(identity)
        if previous is not None and previous != key:
            self._fragments.pop(previous, None)
        self._by_identity[identity] = key
        self._fragments[key] = fragment

    def evict(self, key: Tuple[Any, ...]) -> None:
        """Drop ``key`` if present (coordinator-driven aging)."""
        if self._fragments.pop(key, None) is not None:
            identity = self._identity(key)
            if self._by_identity.get(identity) == key:
                del self._by_identity[identity]

    def resolve(self, key: Tuple[Any, ...]) -> Any:
        """The stored fragment for ``key``; missing keys are protocol bugs."""
        try:
            return self._fragments[key]
        except KeyError:
            raise QueryError(
                f"broker has no fragment for key {key!r}; the coordinator "
                "must ship a fragment before (or with) the tasks that use it"
            ) from None

    def __len__(self) -> int:
        return len(self._fragments)


def resolve_refs(value: Any, store: FragmentStore) -> Any:
    """Replace every :class:`FragmentRef` in ``value`` with its fragment.

    The inverse of the coordinator's substitution walk: recurses through
    tuples (named tuples included), lists and dict values — the only
    containers task arguments use.
    """
    if isinstance(value, FragmentRef):
        return store.resolve(value.key)
    if isinstance(value, tuple):
        items = [resolve_refs(item, store) for item in value]
        if any(new is not old for new, old in zip(items, value)):
            if hasattr(value, "_fields"):  # NamedTuple: rebuild positionally
                return type(value)(*items)
            return tuple(items)
        return value
    if isinstance(value, list):
        return [resolve_refs(item, store) for item in value]
    if isinstance(value, dict):
        return {key: resolve_refs(item, store) for key, item in value.items()}
    return value


def _run_request(request: Dict[str, Any], store: FragmentStore) -> Dict[str, Any]:
    """Execute one ``run`` frame against ``store``."""
    from ..distributed.executors import SiteTask, run_timed

    for key, fragment in request.get("ship", {}).items():
        store.install(key, fragment)
    for key in request.get("evict", ()):
        store.evict(key)
    results: List[Any] = []
    error: Optional[BaseException] = None
    error_index = -1
    for index, (site_id, fn, args) in enumerate(request.get("tasks", ())):
        try:
            # resolve_refs inside the try: a missing fragment fails *this*
            # task's index instead of the whole frame with error_index -1.
            task = SiteTask(site_id, fn, resolve_refs(args, store))
            results.append(run_timed(task))
        except BaseException as exc:  # noqa: BLE001 - shipped to coordinator
            error, error_index = exc, index
            break
    return {"results": results, "error": error, "error_index": error_index}


def _respond(request: Any, store: FragmentStore) -> Dict[str, Any]:
    """The reply to one decoded request other than ``exit``."""
    import os

    op = request.get("op") if isinstance(request, dict) else None
    try:
        if op == "ping":
            return {"ok": True, "pid": os.getpid()}
        if op == "run":
            return _run_request(request, store)
        raise QueryError(f"unknown broker op {op!r}")
    except QueryError as exc:
        return {"error": exc, "results": [], "error_index": -1}


def serve_connection(sock: socket.socket) -> None:
    """Answer one coordinator's frames until it hangs up or says exit."""
    store = FragmentStore()
    with sock:
        while True:
            try:
                body = recv_body(sock)
            except (EOFError, QueryError, OSError):
                return  # a hang-up, or a torn frame: the stream is lost
            try:
                request = decode_payload(body)
            except QueryError as exc:
                # A whole frame the decoder refuses: a typed reply, and the
                # stream, still in step, keeps serving.
                response = {"refused": exc}
            else:
                if isinstance(request, dict) and request.get("op") == "exit":
                    send_frame(sock, {"ok": True})
                    return
                response = _respond(request, store)
            try:
                send_frame(sock, response)
            except OSError:
                return


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.net.broker``: run a broker process."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.net.broker",
        description="Fragment-hosting worker for the socket executor backend.",
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--connect",
        metavar="HOST:PORT",
        help="dial a listening coordinator and serve that one connection "
        "(the coordinator-spawned shape)",
    )
    mode.add_argument(
        "--listen",
        type=int,
        metavar="PORT",
        help="listen for coordinator connections (externally managed broker)",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind/dial host (default: 127.0.0.1 — localhost first)",
    )
    parser.add_argument(
        "--allow-remote",
        action="store_true",
        help="permit a non-loopback --listen bind (run frames execute "
        "arbitrary shipped functions: anyone who can reach the socket can "
        "run code as this process; only use on a trusted, isolated network)",
    )
    args = parser.parse_args(argv)
    if args.connect is not None:
        host, _, port = args.connect.rpartition(":")
        sock = socket.create_connection((host or args.host, int(port)))
        serve_connection(sock)
        return 0
    from .framing import guard_bind_host

    try:
        guard_bind_host(args.host, args.allow_remote, "repro broker")
    except QueryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((args.host, args.listen))
    listener.listen()
    print(
        f"repro broker listening on {args.host}:{listener.getsockname()[1]}",
        flush=True,
    )
    with listener:
        while True:
            conn, _addr = listener.accept()
            thread = threading.Thread(
                target=serve_connection, args=(conn,), daemon=True
            )
            thread.start()


if __name__ == "__main__":  # pragma: no cover - subprocess entry point
    sys.exit(main())
