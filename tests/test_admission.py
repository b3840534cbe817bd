"""Connection-aware admission: the window is an upper bound (DESIGN.md §10).

The batcher waits for arrivals only while some open connection is owed no
reply.  These tests run a front end with a window far longer than any op
(0.25 s) so that "waited for the timer" and "closed early" are a factor of
twenty apart, and read the server's own ``batches_closed_*`` counters next
to the clock.
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


@pytest.fixture
def server():
    """A fresh front end per test: the tests read its counters."""
    cluster = SimulatedCluster.from_graph(_chain_graph(), 2, partitioner="chunk", seed=0)
    srv = start_background_server(BatchQueryEngine(cluster), window=WINDOW)
    yield srv
    srv.shutdown()


def _raw(server) -> socket.socket:
    host, _, port = server.address.rpartition(":")
    return socket.create_connection((host, int(port)), timeout=10)


def _await_listening(server, expected: int) -> None:
    """Wait until the server has seen every connect/close done so far."""
    deadline = time.monotonic() + 5
    while server._listening != expected and time.monotonic() < deadline:
        time.sleep(0.002)
    assert server._listening == expected


def _timed_query(client) -> float:
    began = time.perf_counter()
    assert client.query(QUERY).answer is True
    return time.perf_counter() - began


def test_lone_closed_loop_client_never_waits_for_the_timer(server):
    with connect(server.address) as client:
        elapsed = sum(_timed_query(client) for _ in range(5))
    stats = server.stats_snapshot()
    assert stats["batches_closed_early"] == stats["batches"] == 5
    # Five windows are 1.25 s; five ops that never wait are milliseconds.
    assert elapsed < 2 * WINDOW


def test_two_closed_loop_clients_still_share_batches(server):
    rounds = 20
    barrier = threading.Barrier(2, timeout=30)
    errors = []

    def drive():
        try:
            with connect(server.address) as client:
                barrier.wait()  # both connected before the first query
                for _ in range(rounds):
                    assert client.query(QUERY).answer is True
                barrier.wait()  # both done before either hangs up
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=drive) for _ in range(2)]
    began = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    elapsed = time.perf_counter() - began
    assert not errors and not any(thread.is_alive() for thread in threads)
    stats = server.stats_snapshot()
    assert stats["served"] == 2 * rounds
    # Each round is one batch of two, closed when the second query arrived.
    assert stats["served"] / stats["batches"] >= 1.9
    assert stats["batches_closed_early"] >= rounds - 1
    assert elapsed < rounds * WINDOW / 2


def test_an_idle_connection_keeps_the_window_open(server):
    with _raw(server), connect(server.address) as client:
        _await_listening(server, 2)
        assert _timed_query(client) >= 0.9 * WINDOW
        stats = server.stats_snapshot()
        assert (stats["batches_closed_timer"], stats["batches_closed_early"]) == (1, 0)
    # The idle connection is gone: nothing is worth waiting for again.
    with connect(server.address) as client:
        _await_listening(server, 1)
        assert _timed_query(client) < WINDOW / 2
    assert server.stats_snapshot()["batches_closed_early"] == 1


def test_pipelined_frames_on_one_socket_join_one_batch(server):
    frames = b"".join(
        encode_frame({"op": "query", "qid": qid, "query": QUERY}) for qid in (1, 2, 3)
    )
    with _raw(server) as sock:
        began = time.perf_counter()
        sock.sendall(frames)
        replies = [recv_frame(sock) for _ in range(3)]
        elapsed = time.perf_counter() - began
    assert [reply["qid"] for reply in replies] == [1, 2, 3]
    assert all(reply["value"].answer is True for reply in replies)
    stats = server.stats_snapshot()
    # Queued frames are drained before the batcher decides whether to wait.
    assert (stats["served"], stats["batches"], stats["batches_closed_early"]) == (3, 1, 1)
    assert elapsed < WINDOW / 2


def test_max_batch_still_closes_a_window():
    cluster = SimulatedCluster.from_graph(_chain_graph(), 2, partitioner="chunk", seed=0)
    server = start_background_server(BatchQueryEngine(cluster), window=WINDOW, max_batch=2)
    try:
        frames = b"".join(
            encode_frame({"op": "query", "qid": qid, "query": QUERY}) for qid in (1, 2, 3, 4)
        )
        with _raw(server), _raw(server) as sock:
            _await_listening(server, 2)
            sock.sendall(frames)
            assert [recv_frame(sock)["qid"] for _ in range(4)] == [1, 2, 3, 4]
        stats = server.stats_snapshot()
        assert stats["batches_closed_max_batch"] == stats["batches"] == 2
    finally:
        server.shutdown()


def test_owed_reply_bookkeeping_survives_drops_torn_frames_and_inline_ops(server):
    # A query in flight on a connection that hangs up before its reply: an
    # idle connection holds the window open while the sender disappears.
    with _raw(server):
        with _raw(server) as doomed:
            _await_listening(server, 2)
            send_frame(doomed, {"op": "query", "qid": 1, "query": QUERY})
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
    _await_listening(server, 0)

    # Neither drift shows: a lone client is answered at once ...
    early = server.stats_snapshot()["batches_closed_early"]
    with connect(server.address) as client:
        assert _timed_query(client) < WINDOW / 2
        assert server.stats_snapshot()["batches_closed_early"] == early + 1
        # ... and an idle connection still holds the window open.
        with _raw(server):
            _await_listening(server, 2)
            timer = server.stats_snapshot()["batches_closed_timer"]
            assert _timed_query(client) >= 0.9 * WINDOW
            assert server.stats_snapshot()["batches_closed_timer"] == timer + 1
    _await_listening(server, 0)
