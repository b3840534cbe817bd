"""``repro.connect()``: one client surface over both transports.

The api_redesign contract: ``connect()`` accepts a graph, a cluster, or a
``host:port`` address of a ``repro-serve`` front end, and the returned
client's ``query``/``batch``/``session`` behave identically over both
transports (answers and modeled stats bit-identical; sessions see
mutations).  The old entry points (``repro.evaluate`` & co.) live in their
home modules only; the deprecation shims at the package root are gone.
"""

from __future__ import annotations

import socket
import threading
import warnings

import pytest

import repro
from repro import DiGraph, connect
from repro.client import LocalClient, RemoteClient
from repro.core.options import OPTIONS
from repro.core.queries import BoundedReachQuery, ReachQuery, RegularReachQuery
from repro.distributed import SimulatedCluster
from repro.errors import DistributedError, QueryError
from repro.net.framing import recv_frame, send_frame
from repro.net.server import ServingServer, percentile, start_background_server
from repro.serving.engine import BatchQueryEngine


def _chain_graph() -> DiGraph:
    g = DiGraph.from_edges([("a", "b"), ("b", "c"), ("c", "d")])
    g.set_label("b", "HR")
    g.set_label("c", "DB")
    return g


QUERIES = [
    ReachQuery("a", "d"),
    ReachQuery("d", "a"),
    BoundedReachQuery("a", "d", 2),
    RegularReachQuery("a", "d", "HR DB"),
]


@pytest.fixture(scope="module")
def server():
    """One background repro-serve front end over the chain graph."""
    cluster = SimulatedCluster.from_graph(
        _chain_graph(), 2, partitioner="chunk", seed=0
    )
    srv = start_background_server(BatchQueryEngine(cluster))
    yield srv
    srv.shutdown()


def _assert_kernel_default_reaches_its_takers_only(open_client, cache_of, monkeypatch):
    """A connect-level kernel serves a mixed stream; an explicit one raises.

    The connect-level oracle this once checked is retired; the kernel
    default follows the same soft rule.
    """
    # a made-up second kernel name, so the default is visible in the plans
    registry = OPTIONS["kernel"].registry
    monkeypatch.setattr(registry, "names", (*registry.names, "turbo"))
    with open_client() as plain, open_client(kernel="turbo") as tuned:
        for query in QUERIES:  # reach, bounded and regular, one by one
            a, b = plain.query(query), tuned.query(query)
            assert (a.answer, a.stats.traffic_bytes) == (b.answer, b.stats.traffic_bytes)
        # the default reached the plan of every algorithm that takes it
        plans = cache_of(tuned)._plans.values()
        planned = {(plan.algorithm, plan.options.kernel) for plan in plans}
        assert {("disReach", "turbo"), ("disDist", "turbo"), ("disRPQ", "turbo")} <= planned
        assert tuned.batch(QUERIES).answers == plain.batch(QUERIES).answers
        assert tuned.batch(QUERIES[:2]).answers == [True, False]
        # a baseline does not take a kernel: the default skips it
        assert tuned.query(QUERIES[0], algorithm="disReachn").answer is True
        # only the default is filtered: asking for a kernel where none
        # applies is still an error, with or without a default
        for client in (plain, tuned):
            with pytest.raises(QueryError, match="only the partial-evaluation"):
                client.query(QUERIES[0], algorithm="disReachn", kernel="turbo")
            with pytest.raises(QueryError, match="only the partial-evaluation"):
                client.batch(QUERIES[:2], algorithm="disReachn", kernel="turbo")


class TestConnectLocal:
    def test_graph_target_builds_a_cluster(self):
        client = connect(_chain_graph(), fragments=2, seed=0)
        assert isinstance(client, LocalClient)
        assert client.cluster.num_sites == 2
        assert client.query(ReachQuery("a", "d")).answer is True
        assert client.query(ReachQuery("d", "a")).answer is False

    def test_cluster_target_serves_as_is(self):
        cluster = SimulatedCluster.from_graph(
            _chain_graph(), 3, partitioner="chunk", seed=0
        )
        client = connect(cluster)
        assert client.cluster is cluster
        batch = client.batch(QUERIES)
        assert batch.answers == [True, False, False, True]

    def test_parameter_names_match_the_cli(self):
        client = connect(
            _chain_graph(),
            fragments=2,
            partitioner="hash",
            executor="sequential",
            seed=3,
        )
        assert client.query(ReachQuery("a", "d")).answer is True

    def test_session_tracks_mutations(self):
        client = connect(_chain_graph(), fragments=2, seed=0)
        session = client.session(ReachQuery("a", "d"))
        assert session.answer is True
        session.remove_edge("c", "d")
        assert session.answer is False
        session.add_edge("a", "d")
        assert session.answer is True

    def test_session_rejects_unsupported_query_class(self):
        client = connect(_chain_graph(), fragments=2, seed=0)
        with pytest.raises(QueryError, match="no incremental session"):
            client.session(BoundedReachQuery("a", "d", 2))

    def test_stats_counts_served_queries(self):
        client = connect(_chain_graph(), fragments=2, seed=0)
        client.query(ReachQuery("a", "d"))
        client.batch(QUERIES)
        stats = client.stats()
        assert stats["served"] == 1 + len(QUERIES)
        assert 0.0 <= stats["cache_hit_rate"] <= 1.0

    def test_kernel_default_applies_to_every_call(self):
        pytest.importorskip("numpy")
        plain = connect(_chain_graph(), fragments=2, seed=0)
        vectorized = connect(_chain_graph(), fragments=2, seed=0, kernel="numpy")
        for query in QUERIES:
            a, b = plain.query(query), vectorized.query(query)
            assert a.answer == b.answer
            assert a.stats.traffic_bytes == b.stats.traffic_bytes
        # the client holds its defaults itself: cluster/engine are real attributes
        assert isinstance(vectorized, LocalClient)
        assert vectorized.cluster.num_sites == 2

    def test_oracle_default_reaches_dis_reach_only(self, monkeypatch):
        cluster = SimulatedCluster.from_graph(
            _chain_graph(), 2, partitioner="chunk", seed=0
        )
        _assert_kernel_default_reaches_its_takers_only(
            lambda **kwargs: connect(cluster, **kwargs),
            lambda client: client.engine.cache,
            monkeypatch,
        )

    def test_garbage_target_rejected(self):
        with pytest.raises(QueryError, match="connect\\(\\) takes"):
            connect(42)
        with pytest.raises(QueryError):
            connect("no-colon-here")


class TestDeprecationShims:
    @pytest.mark.parametrize(
        "name",
        [
            "evaluate",
            "execute_plans",
            "BatchQueryEngine",
            "IncrementalReachSession",
            "IncrementalRegularSession",
        ],
    )
    def test_old_entry_points_left_the_package_root(self, name):
        assert not hasattr(repro, name)
        assert name not in repro.__all__ and name not in dir(repro)

    def test_home_module_imports_stay_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            from repro.core.engine import evaluate  # noqa: F401
            from repro.serving.engine import (  # noqa: F401
                BatchQueryEngine,
                execute_plans,
            )

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.no_such_thing


class TestRemoteTransport:
    def test_query_identical_to_local(self, server):
        local = connect(
            SimulatedCluster.from_graph(
                _chain_graph(), 2, partitioner="chunk", seed=0
            )
        )
        with connect(server.address) as remote:
            assert isinstance(remote, RemoteClient)
            for query in QUERIES:
                mine = remote.query(query)
                reference = local.query(query)
                assert mine.answer == reference.answer
                assert mine.stats.traffic_bytes == reference.stats.traffic_bytes
                assert mine.stats.total_visits == reference.stats.total_visits

    def test_batch_identical_to_local(self, server):
        local = connect(
            SimulatedCluster.from_graph(
                _chain_graph(), 2, partitioner="chunk", seed=0
            )
        )
        with connect(server.address) as remote:
            assert remote.batch(QUERIES).answers == local.batch(QUERIES).answers

    def test_remote_session_sees_mutations(self, server):
        with connect(server.address) as remote:
            session = remote.session(ReachQuery("a", "d"))
            assert session.answer is True
            session.remove_edge("c", "d")
            assert session.answer is False
            session.add_edge("c", "d")  # restore for the other tests
            assert session.answer is True
            session.close()
            with pytest.raises(QueryError, match="closed"):
                session.answer

    def test_remote_session_rejects_unsupported_query_class(self, server):
        with connect(server.address) as remote:
            with pytest.raises(QueryError, match="no incremental session"):
                remote.session(BoundedReachQuery("a", "d", 2))

    def test_remote_errors_reraise_client_side(self, server):
        with connect(server.address) as remote:
            with pytest.raises(QueryError, match="unknown algorithm|not batchable"):
                remote.query(ReachQuery("a", "d"), algorithm="nope")

    def test_oracle_default_reaches_dis_reach_only(self, server, monkeypatch):
        _assert_kernel_default_reaches_its_takers_only(
            lambda **kwargs: connect(server.address, **kwargs),
            lambda _client: server.engine.cache,
            monkeypatch,
        )

    def test_stats_report_latency_percentiles(self, server):
        with connect(server.address) as remote:
            remote.query(ReachQuery("a", "d"))
            stats = remote.stats()
        assert stats["served"] >= 1
        assert stats["batches"] >= 1
        assert stats["p99_ms"] >= stats["p50_ms"] >= 0.0
        assert stats["open_sessions"] == 0

    def test_malformed_frame_gets_clean_error_then_close(self, server):
        host, _, port = server.address.rpartition(":")
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(b"JUNKJUNKJUNK")
            reply = recv_frame(sock)
            assert reply["qid"] is None
            assert isinstance(reply["error"], QueryError)
            with pytest.raises(EOFError):
                recv_frame(sock)

    def test_unknown_op_reports_query_error(self, server):
        host, _, port = server.address.rpartition(":")
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            send_frame(sock, {"op": "mystery", "qid": 1})
            reply = recv_frame(sock)
            assert reply["qid"] == 1
            assert isinstance(reply["error"], QueryError)

    def test_query_frame_without_body_gets_clean_error(self, server):
        # A 'query' op missing its 'query' key must be rejected at
        # dispatch — not enqueued where it would crash the batcher.
        host, _, port = server.address.rpartition(":")
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            send_frame(sock, {"op": "query", "qid": 7})
            reply = recv_frame(sock)
            assert reply["qid"] == 7
            assert isinstance(reply["error"], QueryError)
        # The batcher is still alive: a well-formed query still answers.
        with connect(server.address) as remote:
            assert remote.query(ReachQuery("a", "d")).answer is True

    def test_concurrent_clients_are_admission_batched(self, server):
        answers = {}
        errors = []

        def drive(i):
            try:
                with connect(server.address) as remote:
                    answers[i] = remote.query(ReachQuery("a", "d")).answer
            except BaseException as exc:  # noqa: BLE001 - joined below
                errors.append(exc)

        threads = [threading.Thread(target=drive, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert answers == {i: True for i in range(6)}


class TestBackpressureAndValidation:
    def test_tiny_inflight_bound_still_serves_everything(self):
        cluster = SimulatedCluster.from_graph(
            _chain_graph(), 2, partitioner="chunk", seed=0
        )
        server = start_background_server(
            BatchQueryEngine(cluster), max_batch=1, max_inflight=1
        )
        try:
            answers = []

            def drive():
                with connect(server.address) as remote:
                    answers.append(remote.query(ReachQuery("a", "d")).answer)

            threads = [threading.Thread(target=drive) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert answers == [True] * 4
        finally:
            server.shutdown()

    def test_batcher_survives_unexpected_engine_error(self):
        # A non-ReproError escaping the engine must fail that batch's
        # queries, not kill the batcher coroutine for good.
        class FlakyEngine:
            def __init__(self, engine):
                self._engine = engine
                self.boom = True

            def run_batch(self, *args, **kwargs):
                if self.boom:
                    self.boom = False
                    raise RuntimeError("engine bug")
                return self._engine.run_batch(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(self._engine, name)

        cluster = SimulatedCluster.from_graph(
            _chain_graph(), 2, partitioner="chunk", seed=0
        )
        server = start_background_server(BatchQueryEngine(cluster))
        server.engine = FlakyEngine(server.engine)
        try:
            with connect(server.address) as remote:
                with pytest.raises(QueryError, match="internal serving error"):
                    remote.query(ReachQuery("a", "d"))
                assert remote.query(ReachQuery("a", "d")).answer is True
        finally:
            server.shutdown()

    def test_constructor_validation(self):
        engine = object()
        with pytest.raises(DistributedError, match="max_batch"):
            ServingServer(engine, max_batch=0)
        with pytest.raises(DistributedError, match="max_inflight"):
            ServingServer(engine, max_inflight=0)

    def test_percentile_nearest_rank(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([0.25], 0.99) == 0.25
        samples = [0.01 * i for i in range(1, 101)]
        assert percentile(samples, 0.99) == pytest.approx(0.99)
        assert percentile(samples, 1.0) == pytest.approx(1.0)
        assert percentile(samples, 0.0) == pytest.approx(0.01)
