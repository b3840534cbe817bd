"""Admission: a served batch is what is queued when the batcher wakes (DESIGN.md §10).

The batcher takes the first queued query plus everything else already
queued (up to ``max_batch``) and never waits for a frame that has not
arrived.  The front ends here are built with a ``window`` far longer than
any op (0.25 s, and 10 s for the idle-connection test): the keyword is
accepted and ignored, so no query may wait anything like that long.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro import DiGraph, connect
from repro.core.queries import ReachQuery, RegularReachQuery
from repro.distributed import SimulatedCluster
from repro.errors import QueryError
from repro.net.framing import encode_frame, recv_frame, send_frame
from repro.net.server import start_background_server
from repro.serving.engine import BatchQueryEngine

WINDOW = 0.25
QUERY = ReachQuery("a", "d")


def _chain_graph() -> DiGraph:
    g = DiGraph.from_edges([("a", "b"), ("b", "c"), ("c", "d")])
    g.set_label("b", "HR")
    g.set_label("c", "DB")
    return g


def _start(**kwargs):
    cluster = SimulatedCluster.from_graph(_chain_graph(), 2, partitioner="chunk", seed=0)
    return start_background_server(BatchQueryEngine(cluster), **kwargs)


@pytest.fixture
def server():
    """A fresh front end per test: the tests read its counters."""
    srv = _start(window=WINDOW)
    yield srv
    srv.shutdown()


def _raw(server) -> socket.socket:
    host, _, port = server.address.rpartition(":")
    return socket.create_connection((host, int(port)), timeout=10)


def _await_reading(*socks: socket.socket) -> None:
    """Round-trip an inline op on each socket: the server reads them all."""
    for sock in socks:
        send_frame(sock, {"op": "stats", "qid": 0})
        assert recv_frame(sock)["qid"] == 0


def _query_frame(qid: int) -> dict:
    return {"op": "query", "qid": qid, "query": QUERY}


def _timed_query(client) -> float:
    began = time.perf_counter()
    assert client.query(QUERY).answer is True
    return time.perf_counter() - began


def test_lone_closed_loop_client_never_waits_for_the_timer(server):
    with connect(server.address) as client:
        # An inline batch pays the first evaluation's one-off costs; it
        # does not pass through the batcher.
        assert client.batch([QUERY]).answers == [True]
        elapsed = [_timed_query(client) for _ in range(5)]
    assert server.stats_snapshot()["batches"] == 5
    # Each query is its own batch, run as soon as it is queued.
    assert max(elapsed) < WINDOW / 2


def test_two_closed_loop_clients_still_share_batches(server, monkeypatch):
    run_batch = server.engine.run_batch
    sizes = []
    running, sent = threading.Event(), threading.Event()

    def slow_first_batch(queries, *args, **kwargs):
        sizes.append(len(queries))
        if len(sizes) == 1:
            running.set()
            sent.wait(timeout=10)
            time.sleep(0.05)  # the loopback delivers both frames meanwhile
        return run_batch(queries, *args, **kwargs)

    monkeypatch.setattr(server.engine, "run_batch", slow_first_batch)
    with _raw(server) as first, _raw(server) as second, _raw(server) as third:
        _await_reading(first, second, third)
        send_frame(first, _query_frame(1))
        assert running.wait(timeout=10)
        # The first batch holds the loop: these frames can only queue.
        send_frame(second, _query_frame(2))
        send_frame(third, _query_frame(3))
        sent.set()
        replies = [recv_frame(sock) for sock in (first, second, third)]
    assert [reply["qid"] for reply in replies] == [1, 2, 3]
    assert all(reply["value"].answer is True for reply in replies)
    assert sizes == [1, 2]
    stats = server.stats_snapshot()
    assert (stats["served"], stats["batches"]) == (3, 2)


def test_an_idle_connection_keeps_the_window_open():
    # Retargeted: an idle connection no longer holds a batch open, however
    # long a window the server was built with.
    server = _start(window=10.0)
    try:
        with _raw(server) as idle, connect(server.address) as client:
            _await_reading(idle)
            assert _timed_query(client) < 1.0
        assert server.stats_snapshot()["batches"] == 1
    finally:
        server.shutdown()


def test_pipelined_frames_on_one_socket_join_one_batch(server):
    frames = b"".join(encode_frame(_query_frame(qid)) for qid in (1, 2, 3))
    with _raw(server) as sock:
        began = time.perf_counter()
        sock.sendall(frames)
        replies = [recv_frame(sock) for _ in range(3)]
        elapsed = time.perf_counter() - began
    assert [reply["qid"] for reply in replies] == [1, 2, 3]
    assert all(reply["value"].answer is True for reply in replies)
    stats = server.stats_snapshot()
    # Frames read in one go are queued before the batcher wakes.
    assert (stats["served"], stats["batches"]) == (3, 1)
    assert elapsed < WINDOW / 2


def test_max_batch_still_closes_a_window():
    server = _start(window=WINDOW, max_batch=2)
    try:
        frames = b"".join(encode_frame(_query_frame(qid)) for qid in (1, 2, 3, 4))
        with _raw(server) as sock:
            sock.sendall(frames)
            assert [recv_frame(sock)["qid"] for _ in range(4)] == [1, 2, 3, 4]
        stats = server.stats_snapshot()
        assert (stats["served"], stats["batches"]) == (4, 2)
    finally:
        server.shutdown()


def test_owed_reply_bookkeeping_survives_drops_torn_frames_and_inline_ops(server):
    # A query in flight on a connection that hangs up before its reply.
    with _raw(server), _raw(server) as doomed:
        send_frame(doomed, _query_frame(1))
    deadline = time.monotonic() + 5
    while server.stats_snapshot()["served"] < 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert server.stats_snapshot()["served"] == 1
    # A torn frame: one error reply, then the server hangs up.
    with _raw(server) as sock:
        sock.sendall(b"JUNKJUNKJUNK")
        assert isinstance(recv_frame(sock)["error"], QueryError)
        with pytest.raises(EOFError):
            recv_frame(sock)
    # Inline ops reply without passing through the batcher; so do errors.
    with connect(server.address) as client:
        assert client.batch([QUERY, QUERY]).answers == [True, True]
        session = client.session(RegularReachQuery("a", "d", "HR DB"))
        assert session.remove_edge("b", "c").answer is False
        assert session.add_edge("b", "c").answer is True
        session.close()
        assert client.stats()["open_sessions"] == 0
        with pytest.raises(QueryError):
            client.query(QUERY, algorithm="nope")
    with _raw(server) as sock:
        send_frame(sock, {"op": "query", "qid": 7})  # no body: rejected at dispatch
        assert isinstance(recv_frame(sock)["error"], QueryError)
        send_frame(sock, {"op": "mystery", "qid": 8})
        assert isinstance(recv_frame(sock)["error"], QueryError)

    # None of it leaves the batcher waiting: the next query, with an idle
    # connection open beside it, is answered at once in a batch of its own.
    batches = server.stats_snapshot()["batches"]
    with _raw(server) as idle, connect(server.address) as client:
        _await_reading(idle)
        assert _timed_query(client) < WINDOW / 2
    assert server.stats_snapshot()["batches"] == batches + 1
