"""The names ``benchmarks/e2e`` binds to in ``src/`` (tier-1 guard).

The end-to-end benchmark imports the system's public callables by name and
its tracer patches ~30 of them by attribute, so a rename that passes every
other tier-1 test still breaks the benchmark run.  This test installs the
benchmark's own tracer (read-only use of ``benchmarks/e2e``) and drives the
call forms its workloads use on a small cluster; every layer span the
in-process workloads expect must fire.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

import pytest

pytest.importorskip("numpy")

import repro  # noqa: E402
from repro.core.queries import BoundedReachQuery, ReachQuery, RegularReachQuery  # noqa: E402
from repro.graph import DiGraph  # noqa: E402

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"

#: Spans the in-process workloads (``oneshot-cold``, ``mutate-mix``) expect.
REQUIRED_SPANS = {
    "core.plan",
    "core.local_eval",
    "core.csr_lower",
    "core.assemble",
    "distributed.accounting",
    "distributed.run_tasks",
    "serving.cache.get",
    "serving.cache.put",
    "serving.engine",
    "core.session_update",
    "serving.cache.invalidate",
}


@pytest.fixture(scope="module")
def e2e():
    """The benchmark's ``fixture``/``workloads``/``layers`` modules."""
    sys.path.insert(0, str(E2E))
    try:
        import fixture
        import layers
        import workloads
    finally:
        sys.path.remove(str(E2E))
    return fixture, workloads, layers


def _chain() -> DiGraph:
    graph = DiGraph.from_edges([(i, i + 1) for i in range(11)])
    for node in range(12):
        graph.set_label(node, "A" if node % 2 else "B")
    return graph


QUERIES = [
    ReachQuery(0, 11),
    BoundedReachQuery(0, 11, 12),
    RegularReachQuery(0, 11, "(A | B)*"),
]


def test_tracer_installs_and_every_in_process_layer_fires(e2e):
    fixture, workloads, layers = e2e
    assert fixture.KERNEL == "numpy"
    tracer = layers.build_tracer()
    tracer.install()
    try:
        graph = _chain()
        cluster = workloads.SimulatedCluster.from_graph(
            graph, 3, partitioner="chunk", seed=0, executor="sequential"
        )
        for query in QUERIES:
            # the two call forms of OneshotCold.execute / SocketCold.cross_check
            assert workloads.evaluate(cluster, query, kernel=fixture.KERNEL).answer
            assert workloads.evaluate(
                cluster, query, executor="sequential", kernel=fixture.KERNEL
            ).answer

        client = repro.connect(
            graph, fragments=3, partitioner="chunk", kernel=fixture.KERNEL
        )
        try:
            assert client.cluster.num_sites == 3
            for query in QUERIES:
                assert client.query(query).answer
            session = client.session(ReachQuery(11, 0))
            assert session.answer is False
            session.add_edge(11, 0)
            assert session.answer is True
            session.resync(11)
            session.remove_edge(11, 0)
            assert session.answer is False
            client.engine.cache.clear()
            assert "served" in client.stats()
        finally:
            client.close()
    finally:
        tracer.uninstall()
    fired = {span[0] for span in tracer.spans()}
    assert REQUIRED_SPANS <= fired, sorted(REQUIRED_SPANS - fired)
    in_process = set(layers.EXPECTED["oneshot-cold"]) | set(layers.EXPECTED["mutate-mix"])
    assert in_process <= fired, sorted(in_process - fired)


def test_names_the_socket_and_serving_workloads_bind(e2e):
    _fixture, workloads, _layers = e2e
    from repro.core.kernels import kernel_available
    from repro.net import server

    assert kernel_available("numpy")
    executor = workloads.SocketExecutor(num_brokers=2, shared=False)
    assert executor.degraded_tasks == 0 and callable(executor.close)
    assert workloads.BatchQueryEngine.__init__ is not object.__init__
    assert workloads.start_background_server is server.start_background_server
    assert {"window", "max_batch"} <= set(inspect.signature(server.ServingServer).parameters)
    connect_params = inspect.signature(repro.connect).parameters
    assert {"fragments", "partitioner", "kernel"} <= set(connect_params)
