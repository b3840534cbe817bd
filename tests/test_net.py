"""Networked executor backend: framing, fragment shipping, failure model.

Three layers, matching DESIGN.md §10:

* **framing** — the length-prefixed pickle wire format's error contract:
  clean close between frames is :class:`EOFError`, everything torn or
  malformed is a :class:`~repro.errors.QueryError` naming what was wrong;
* **fragment store / handshake** — one generation per fragment identity at
  the broker, version/stamp changes retiring stale copies, ship-once
  addressing by :class:`~repro.net.framing.FragmentRef`;
* **failure model** — task exceptions re-raise the submission-order-first
  one (the sequential semantics); broker death degrades to retry-then-
  inline evaluation with bit-identical answers, never a wrong one, and the
  spawned pool replaces dead brokers at the next round.

The cross-backend identity suites (test_executors, test_batch_equivalence,
test_kernels) already sweep the ``socket`` backend via ``EXECUTORS``; the
hypothesis test here adds the repartition/mutation axis on top.
"""

from __future__ import annotations

import socket
import struct
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import evaluate
from repro.core.queries import BoundedReachQuery, ReachQuery, RegularReachQuery
from repro.core.reachability import local_eval_reach
from repro.distributed import SimulatedCluster
from repro.distributed.executors import SocketExecutor
from repro.errors import DistributedError, KernelError, QueryError
from repro.graph import erdos_renyi
from repro.net import coordinator
from repro.net.broker import FragmentStore, _run_request, resolve_refs
from repro.net.framing import (
    HEADER_BYTES,
    MAGIC,
    MAX_FRAME_BYTES,
    FragmentRef,
    encode_frame,
    guard_bind_host,
    recv_frame,
    send_frame,
)
from repro.partition import build_fragmentation, random_partition
from repro.workload.paper_example import figure1_fragmentation


def _pair():
    return socket.socketpair()


def _calling_pickle(module: str, name: str, arg: str) -> bytes:
    """A protocol-4 pickle that calls ``module.name(arg)`` when loaded."""

    def text(value: str) -> bytes:
        raw = value.encode()
        return b"\x8c" + bytes([len(raw)]) + raw  # SHORT_BINUNICODE

    # PROTO 4, STACK_GLOBAL, TUPLE1, REDUCE, STOP
    return b"\x80\x04" + text(module) + text(name) + b"\x93" + text(arg) + b"\x85R."


class TestFraming:
    def test_round_trip(self):
        a, b = _pair()
        with a, b:
            payload = {"op": "run", "tasks": [(0, None, (1, "x"))]}
            send_frame(a, payload)
            assert recv_frame(b) == payload

    def test_clean_close_between_frames_raises_eof(self):
        a, b = _pair()
        with b:
            a.close()
            with pytest.raises(EOFError):
                recv_frame(b)

    def test_bad_magic_is_a_query_error(self):
        a, b = _pair()
        with b:
            a.sendall(b"JUNK" + struct.pack(">I", 0))
            a.close()
            with pytest.raises(QueryError, match="bad magic"):
                recv_frame(b)

    def test_truncated_header_is_a_query_error(self):
        a, b = _pair()
        with b:
            a.sendall(MAGIC[:2])
            a.close()
            with pytest.raises(QueryError, match="truncated frame"):
                recv_frame(b)

    def test_truncated_payload_is_a_query_error(self):
        frame = encode_frame({"op": "ping"})
        assert len(frame) > HEADER_BYTES + 3
        a, b = _pair()
        with b:
            a.sendall(frame[:-3])
            a.close()
            with pytest.raises(QueryError, match="truncated frame"):
                recv_frame(b)

    def test_oversize_declared_length_rejected_before_allocation(self):
        a, b = _pair()
        with b:
            a.sendall(MAGIC + struct.pack(">I", MAX_FRAME_BYTES + 1))
            a.close()
            with pytest.raises(QueryError, match="exceeds"):
                recv_frame(b)

    def test_garbage_payload_is_a_query_error(self):
        a, b = _pair()
        with b:
            a.sendall(MAGIC + struct.pack(">I", 4) + b"\xff\xff\xff\xff")
            a.close()
            with pytest.raises(QueryError, match="malformed frame payload"):
                recv_frame(b)

    def test_unpicklable_payload_is_a_query_error(self):
        with pytest.raises(QueryError, match="unpicklable"):
            encode_frame(socket.socket())

    @pytest.mark.parametrize(
        "module, name",
        [
            ("os", "system"),
            ("posix", "system"),
            ("builtins", "eval"),
            ("builtins", "getattr"),
            ("subprocess", "getoutput"),
            ("repro.strategies", "os.system"),  # a foreign callable via a repro import
            ("repro.net", "broker"),  # a module, not a class or function
            ("colorsys", "rgb_to_hsv"),  # never imported by decoding
        ],
    )
    def test_hostile_globals_fail_closed(self, module, name, tmp_path):
        marker = tmp_path / "ran"
        unloaded = {mod for mod in ("colorsys", "subprocess") if mod not in sys.modules}
        body = _calling_pickle(module, name, f"touch {marker}")
        a, b = _pair()
        with b:
            a.sendall(MAGIC + struct.pack(">I", len(body)) + body)
            a.close()
            with pytest.raises(QueryError, match="not allowed on the wire"):
                recv_frame(b)
        assert not marker.exists()
        assert not any(mod in sys.modules for mod in unloaded)


class TestBindGuard:
    def test_loopback_hosts_pass_silently(self, capsys):
        for host in ("127.0.0.1", "127.1.2.3", "localhost", "::1"):
            guard_bind_host(host, False, "test")
        assert capsys.readouterr().err == ""

    def test_non_loopback_refused_without_opt_in(self):
        for host in ("0.0.0.0", "::", "192.168.1.5", ""):
            with pytest.raises(QueryError, match="refusing to bind"):
                guard_bind_host(host, False, "test")

    def test_opt_in_downgrades_refusal_to_warning(self, capsys):
        guard_bind_host("0.0.0.0", True, "test")
        assert "WARNING" in capsys.readouterr().err

    def test_broker_cli_refuses_remote_listen(self, capsys):
        from repro.net.broker import main

        assert main(["--listen", "0", "--host", "0.0.0.0"]) == 2
        assert "refusing to bind" in capsys.readouterr().err

    def test_serve_cli_refuses_remote_bind(self, capsys):
        from repro.net.server import main

        # The guard fires before the graph file would be opened.
        assert main(["--graph", "does-not-exist", "--host", "0.0.0.0"]) == 2
        assert "refusing to bind" in capsys.readouterr().err


class TestFragmentStore:
    def test_missing_key_is_a_query_error(self):
        store = FragmentStore()
        with pytest.raises(QueryError, match="no fragment for key"):
            store.resolve(("v", 1, 0, 0, 0))

    def test_new_version_retires_the_old_generation(self):
        store = FragmentStore()
        store.install(("v", 1, 0, 1, 5), "old")
        store.install(("v", 1, 0, 2, 6), "new")
        assert len(store) == 1
        assert store.resolve(("v", 1, 0, 2, 6)) == "new"
        with pytest.raises(QueryError):
            store.resolve(("v", 1, 0, 1, 5))

    def test_distinct_fragments_coexist(self):
        store = FragmentStore()
        store.install(("v", 1, 0, 1, 0), "f0")
        store.install(("v", 1, 1, 1, 0), "f1")
        store.install(("o", 9, 3), "free")
        assert len(store) == 3

    def test_new_stamp_retires_old_object_key(self):
        store = FragmentStore()
        store.install(("o", 9, 3), "old")
        store.install(("o", 9, 4), "new")
        assert len(store) == 1
        assert store.resolve(("o", 9, 4)) == "new"

    def test_evict_is_idempotent(self):
        store = FragmentStore()
        store.install(("o", 9, 3), "frag")
        store.evict(("o", 9, 3))
        store.evict(("o", 9, 3))
        assert len(store) == 0

    def test_resolve_refs_walks_nested_containers(self):
        store = FragmentStore()
        store.install(("o", 7, 0), "frag")
        ref = FragmentRef(("o", 7, 0))
        args = (ref, [ref, {"k": ref}], "leaf", 3)
        assert resolve_refs(args, store) == (
            "frag",
            ["frag", {"k": "frag"}],
            "leaf",
            3,
        )

    def test_resolve_refs_shares_untouched_structure(self):
        store = FragmentStore()
        untouched = ("a", ("b",))
        assert resolve_refs(untouched, store) is untouched


def _modeled_signature(result):
    stats = result.stats
    return (
        result.answer,
        dict(stats.visits),
        stats.traffic_bytes,
        [(m.src, m.dst, m.kind, m.size_bytes) for m in stats.messages],
        stats.supersteps,
    )


class TestRunRequest:
    def test_missing_fragment_error_carries_the_task_index(self):
        # Resolution failures must land on the failing task's index, not
        # -1, so the coordinator attributes the error correctly.
        store = FragmentStore()
        request = {
            "op": "run",
            "tasks": [
                (0, len, ((),)),
                (1, len, (FragmentRef(("o", 99, 0)),)),
            ],
        }
        response = _run_request(request, store)
        assert isinstance(response["error"], QueryError)
        assert response["error_index"] == 1
        assert len(response["results"]) == 1


class TestFragmentShipping:
    def test_fragment_ships_once_then_travels_by_key(self):
        executor = SocketExecutor(num_brokers=1, shared=False)
        cluster = SimulatedCluster(figure1_fragmentation(), executor=executor)
        try:
            evaluate(cluster, ReachQuery("Ann", "Mark"))
            link = executor._own_pool._links[0]
            keys_after_first = set(link.shipped)
            assert keys_after_first  # the handshake actually shipped
            evaluate(cluster, ReachQuery("Pat", "Mark"))
            assert set(link.shipped) == keys_after_first
        finally:
            executor.close()

    def test_mutation_changes_the_wire_key(self):
        executor = SocketExecutor(num_brokers=1, shared=False)
        cluster = SimulatedCluster(figure1_fragmentation(), executor=executor)
        try:
            before = evaluate(cluster, ReachQuery("Ann", "Mark"))
            link = executor._own_pool._links[0]
            keys_before = set(link.shipped)
            cluster.apply_edge_mutation("Ann", "Mark", add=True)
            after = evaluate(cluster, ReachQuery("Ann", "Mark"))
            assert after.answer is True
            assert set(link.shipped) != keys_before
            # sanity: the pre-mutation run answered the original instance
            assert before.answer is True
        finally:
            executor.close()

    def test_repartition_changes_every_wire_key(self):
        executor = SocketExecutor(num_brokers=1, shared=False)
        cluster = SimulatedCluster(figure1_fragmentation(), executor=executor)
        try:
            reference = _modeled_signature(
                evaluate(cluster, ReachQuery("Ann", "Mark"))
            )
            link = executor._own_pool._links[0]
            keys_before = set(link.shipped)
            cluster.repartition("chunk")
            sequential = SimulatedCluster(cluster.fragmentation)
            expected = _modeled_signature(
                evaluate(sequential, ReachQuery("Ann", "Mark"))
            )
            repartitioned = _modeled_signature(
                evaluate(cluster, ReachQuery("Ann", "Mark"))
            )
            assert repartitioned == expected
            # Every fragment re-shipped under a fresh (version-bumped) key;
            # the broker's store retired the old generations by identity.
            new_keys = set(link.shipped) - keys_before
            assert len(new_keys) == len(keys_before)
            assert reference[0] == expected[0]  # the answer itself is stable
        finally:
            executor.close()


def _triple(x):
    return 3 * x


def _explode(sid):
    raise ValueError(f"boom {sid}")


def _fid_of(fragment):
    return fragment.fid


class TestFailureModel:
    def test_task_exception_reraises_submission_order_first(self):
        # local_eval_reach is a task the wire admits, and it resolves its
        # kernel first: each broker raises KernelError naming the bogus
        # kernel and ships it back, and the first in submission order
        # reaches the caller.  The tasks ran on the brokers: no link died,
        # none was respawned, nothing ran inline.
        executor = SocketExecutor(num_brokers=2, shared=False, timeout=10.0)
        cluster = SimulatedCluster(figure1_fragmentation(), executor=executor)
        try:
            links = list(coordinator.pool_for(executor).live_links())
            assert len(links) == 2
            run = cluster.start_run("x")
            with pytest.raises(KernelError, match="boom 0"):
                with run.parallel_phase() as phase:
                    phase.map(
                        local_eval_reach,
                        [(sid, (None, None, f"boom {sid}")) for sid in range(3)],
                    )
            assert executor.degraded_tasks == 0
            assert coordinator.pool_for(executor).live_links() == links
            assert all(link.alive for link in links)
        finally:
            executor.close()

    def test_a_foreign_task_callable_is_refused_by_the_broker(self):
        # A callable outside the wire's allowlist (this test module's) never
        # runs on a broker: the frame is refused and the round degrades to
        # inline evaluation — same values, counted.
        executor = SocketExecutor(num_brokers=1, shared=False, timeout=10.0)
        cluster = SimulatedCluster(figure1_fragmentation(), executor=executor)
        try:
            (link,) = coordinator.pool_for(executor).live_links()
            pid = link.proc.pid
            run = cluster.start_run("x")
            with run.parallel_phase() as phase:
                values = phase.map(_triple, [(sid, (sid,)) for sid in range(3)])
            run.finish()
            assert values == [0, 3, 6]
            assert executor.degraded_tasks == 3
            # The refusal is a typed reply, not a hang-up: the same broker
            # process still serves the same link.
            assert coordinator.pool_for(executor).live_links() == [link] and link.alive
            assert link.proc.pid == pid and link.proc.poll() is None
        finally:
            executor.close()

    def test_a_refused_frame_ships_no_fragment(self, monkeypatch):
        # The refused frame carried the fragments its tasks needed, and the
        # broker installed none of them: the coordinator forgets it shipped
        # them, so the next round on the same link ships them again and
        # runs there.  Nor did the broker run the frame's evictions: with
        # room for one cluster's fragments, the other cluster's keys stay
        # owed, and the next frame on the link evicts them.
        monkeypatch.setattr(coordinator, "SHIPPED_KEY_CAP", 3)
        frames = []
        build = coordinator._build_run_frame
        monkeypatch.setattr(
            coordinator, "_build_run_frame", lambda *args: frames.append(build(*args)) or frames[-1]
        )
        executor = SocketExecutor(num_brokers=1, shared=False, timeout=10.0)
        cluster = SimulatedCluster(figure1_fragmentation(), executor=executor)
        other = SimulatedCluster(figure1_fragmentation(), executor=executor)
        sequential = SimulatedCluster(figure1_fragmentation())
        query = ReachQuery("Ann", "Mark")
        reference = _modeled_signature(evaluate(sequential, query))
        try:
            assert _modeled_signature(evaluate(other, query)) == reference
            other_keys = set(frames[-1]["ship"])
            assert len(other_keys) == 3 and executor.degraded_tasks == 0
            run = cluster.start_run("x")
            with run.parallel_phase() as phase:
                fids = phase.map(
                    _fid_of, [(site.site_id, (site.fragments[0],)) for site in cluster.sites]
                )
            run.finish()
            assert fids == [site.fragments[0].fid for site in cluster.sites]
            assert executor.degraded_tasks == len(fids)
            assert set(frames[-1]["evict"]) == other_keys
            (link,) = coordinator.pool_for(executor).live_links()
            assert set(link.shipped) == other_keys
            assert _modeled_signature(evaluate(cluster, query)) == reference
            assert set(frames[-1]["evict"]) == other_keys
            assert set(frames[-1]["ship"]) == set(link.shipped)
            assert not other_keys & set(link.shipped)
            assert executor.degraded_tasks == len(fids)
        finally:
            executor.close()

    def test_a_refused_task_that_raises_inline_is_counted(self):
        # The refused round runs inline, and the task that raises there
        # counts as degraded like one that returns; the tasks after it in
        # submission order never run, as in the sequential backend.
        executor = SocketExecutor(num_brokers=1, shared=False, timeout=10.0)
        cluster = SimulatedCluster(figure1_fragmentation(), executor=executor)
        try:
            run = cluster.start_run("x")
            with pytest.raises(ValueError, match="boom 0"):
                with run.parallel_phase() as phase:
                    phase.map(_explode, [(sid, (sid,)) for sid in range(3)])
            assert executor.degraded_tasks == 1
        finally:
            executor.close()

    def test_broker_crash_degrades_then_respawns(self):
        executor = SocketExecutor(num_brokers=1, shared=False, timeout=10.0)
        cluster = SimulatedCluster(figure1_fragmentation(), executor=executor)
        sequential = SimulatedCluster(figure1_fragmentation())
        query = ReachQuery("Ann", "Mark")
        reference = _modeled_signature(evaluate(sequential, query))
        try:
            assert _modeled_signature(evaluate(cluster, query)) == reference
            assert executor.degraded_tasks == 0

            # Kill the lone broker: the next round's transport fails, the
            # retry finds no surviving broker, and the tasks degrade to
            # inline evaluation — same answer, same modeled stats.
            link = executor._own_pool._links[0]
            link.proc.kill()
            link.proc.wait()
            assert _modeled_signature(evaluate(cluster, query)) == reference
            assert executor.degraded_tasks > 0

            # The spawned pool replaces the dead broker lazily: a later
            # round is served remotely again (no further degradations).
            degraded = executor.degraded_tasks
            assert _modeled_signature(evaluate(cluster, query)) == reference
            assert executor.degraded_tasks == degraded
        finally:
            executor.close()

    def test_dead_external_address_fails_fast(self):
        victim = socket.socket()
        victim.bind(("127.0.0.1", 0))
        port = victim.getsockname()[1]
        victim.close()  # nothing listens here any more
        executor = SocketExecutor(addresses=[f"127.0.0.1:{port}"], shared=False)
        try:
            with pytest.raises(DistributedError, match="cannot reach broker"):
                evaluate(
                    SimulatedCluster(figure1_fragmentation(), executor=executor),
                    ReachQuery("Ann", "Mark"),
                )
        finally:
            executor.close()

    def test_broker_that_exits_before_dialing_back_fails_the_spawn_fast(
        self, monkeypatch
    ):
        real = coordinator.subprocess.Popen
        started = []

        def popen(args, **kwargs):
            started.append(args)
            crash = "import sys; sys.stderr.write('boom'); sys.exit(3)"
            return real([sys.executable, "-c", crash], **kwargs)

        monkeypatch.setattr(coordinator.subprocess, "Popen", popen)
        begun = time.monotonic()
        with pytest.raises(DistributedError) as raised:
            coordinator.BrokerPool(num_brokers=1)
        assert time.monotonic() - begun < 5.0
        assert "status 3" in str(raised.value) and "boom" in str(raised.value)
        assert len(started) == 1

    def test_rejects_zero_brokers(self):
        with pytest.raises(DistributedError, match="num_brokers"):
            SocketExecutor(num_brokers=0)

    def test_rejects_configurations_that_reach_no_broker(self):
        # An empty address list, a bare address string (which would split
        # into one "address" per character) or a non-positive deadline would
        # degrade every task to inline evaluation (or fail on the first round).
        for addresses in ([], "127.0.0.1:9000"):
            with pytest.raises(DistributedError, match="addresses"):
                SocketExecutor(addresses=addresses)
        for timeout in (0, -1):
            with pytest.raises(DistributedError, match="timeout"):
                SocketExecutor(timeout=timeout)


class TestSocketIdentityProperties:
    @settings(max_examples=5, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        k=st.integers(min_value=2, max_value=4),
    )
    def test_identical_to_sequential_across_repartitions(self, seed, k):
        """Socket answers and modeled stats match sequential for every query
        class, before and after a repartition (fresh wire keys)."""
        graph = erdos_renyi(24, 48, seed=seed, num_labels=3)
        nodes = sorted(graph.nodes(), key=repr)
        source, target = nodes[0], nodes[-1]
        queries = [
            ReachQuery(source, target),
            BoundedReachQuery(source, target, 4),
            RegularReachQuery(source, target, "L0* | L1*"),
        ]
        assignment = random_partition(graph, k, seed=seed)
        fragmentation = build_fragmentation(graph, assignment, k)
        sequential = SimulatedCluster(fragmentation)
        networked = SimulatedCluster(fragmentation, executor="socket")
        for query in queries:
            assert _modeled_signature(
                evaluate(networked, query)
            ) == _modeled_signature(evaluate(sequential, query))
        sequential.repartition("chunk")
        networked.repartition("chunk")
        for query in queries:
            assert _modeled_signature(
                evaluate(networked, query)
            ) == _modeled_signature(evaluate(sequential, query))


class TestOracleOverSocket:
    """External ``--listen`` brokers answer as the sequential backend does.

    (Named for the retired oracle option, whose plans this once carried.)
    """

    @staticmethod
    def _spawn_brokers(count=2, timeout=20.0):
        import subprocess
        import sys
        import tempfile
        import time as time_mod

        procs, addresses, logs = [], [], []
        for _ in range(count):
            probe = socket.socket()
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
            probe.close()
            # The checkout's import path (pytest's ``pythonpath`` does not
            # reach a child), and stderr in a file the failure quotes.
            logs.append(tempfile.TemporaryFile())
            procs.append(
                subprocess.Popen(
                    [sys.executable, "-m", "repro.net.broker", "--listen", str(port)],
                    env=coordinator._broker_env(),
                    stdout=subprocess.DEVNULL,
                    stderr=logs[-1],
                )
            )
            addresses.append(f"127.0.0.1:{port}")
        deadline = time_mod.monotonic() + timeout
        try:
            for address, proc, log in zip(addresses, procs, logs):
                host, _, port = address.rpartition(":")
                while True:
                    try:
                        socket.create_connection((host, int(port)), timeout=1.0).close()
                        break
                    except OSError:
                        if time_mod.monotonic() > deadline or proc.poll() is not None:
                            for each in procs:
                                each.kill()
                            log.seek(0)
                            tail = log.read()[-2000:].decode(errors="replace").strip()
                            pytest.fail(
                                f"broker at {address} never came up: {tail or '<no stderr>'}"
                            )
        finally:
            for log in logs:
                log.close()
        return procs, addresses

    def test_tol_plan_identical_on_external_brokers(self):
        """A disReach plan is bit-identical sequential vs socket against
        externally managed brokers, across an edge write (new fragment
        version, new wire key)."""
        from repro.core.reachability import dis_reach

        procs, addresses = self._spawn_brokers()
        executor = SocketExecutor(addresses=addresses, shared=False, timeout=15.0)
        try:
            networked = SimulatedCluster(figure1_fragmentation(), executor=executor)
            sequential = SimulatedCluster(figure1_fragmentation())
            queries = [ReachQuery("Ann", "Mark"), ReachQuery("Mark", "Ann")]
            for write in (False, True):
                if write:
                    for cluster in (networked, sequential):
                        cluster.apply_edge_mutation("Ann", "Mark", add=True)
                for query in queries:
                    assert _modeled_signature(
                        dis_reach(networked, query)
                    ) == _modeled_signature(dis_reach(sequential, query))
        finally:
            executor.close()
            for proc in procs:
                proc.kill()
                proc.wait()


class TestServingLoop:
    """``repro-serve`` runs engine work on its event loop, not a worker."""

    def test_engine_runs_on_the_loop_thread(self):
        import threading

        from repro import connect
        from repro.net.server import start_background_server
        from repro.serving.engine import BatchQueryEngine

        engine = BatchQueryEngine(SimulatedCluster(figure1_fragmentation()))
        seen = []
        run_batch = engine.run_batch

        def recording(*args, **kwargs):
            seen.append(threading.current_thread().name)
            return run_batch(*args, **kwargs)

        engine.run_batch = recording
        server = start_background_server(engine)
        try:
            with connect(server.address) as client:
                for query in (
                    ReachQuery("Ann", "Mark"),
                    BoundedReachQuery("Ann", "Mark", 6),
                    RegularReachQuery("Ann", "Mark", "DB* | HR*"),
                ):
                    assert client.query(query).answer is True
                client.batch([ReachQuery("Ann", "Mark")])
            names = {thread.name for thread in threading.enumerate()}
        finally:
            server.shutdown()
        assert not any(name.startswith("repro-serve-engine") for name in names)
        assert seen and set(seen) == {"repro-serve"}
