"""``EvalOptions`` and the option table: one rule on every path (DESIGN.md §14).

Walks ``core.engine.REGISTRY`` x the option table and checks, through
``evaluate``, ``LocalClient`` and ``RemoteClient``, that an *explicit*
option is accepted or refused exactly as the table says and that a
*default* (connect-level or process-wide) never raises; that the retired
``oracle`` option is an unexpected keyword everywhere; that the options
object is hashable and crosses the socket executor's wire; that the site
cache is shared across kernels; and that a standing session evaluates one
way on every path.
"""

from __future__ import annotations

import inspect
import pickle

import pytest

from repro import connect
from repro.client import LocalClient, RemoteClient
from repro.core import incremental
from repro.core.engine import PLANS, REGISTRY, evaluate, plan_for
from repro.core.incremental import IncrementalReachSession, IncrementalRegularSession
from repro.core.options import (
    OPTIONS,
    SERVED,
    STRATEGIES,
    EvalOptions,
    strategy_table_markdown,
)
from repro.core.queries import BoundedReachQuery, ReachQuery, RegularReachQuery
from repro.distributed import SimulatedCluster
from repro.errors import KernelError, QueryError, ShortcutError
from repro.net.server import start_background_server
from repro.serving import engine as serving_engine
from repro.serving.engine import BatchQueryEngine
from repro.workload.paper_example import figure1_fragmentation

QUERIES = {
    ReachQuery: ReachQuery("Ann", "Mark"),
    BoundedReachQuery: BoundedReachQuery("Ann", "Mark", 6),
    RegularReachQuery: RegularReachQuery("Ann", "Mark", "DB* | HR*"),
}

#: One runnable non-fallback name per option.
VALUES = {
    "kernel": OPTIONS["kernel"].registry.available()[-1],
    "shortcuts": "reach",
}

#: A retired option: no entry point takes the keyword any more.
RETIRED = "oracle"

CELLS = [(algorithm, option) for algorithm in REGISTRY for option in (*OPTIONS, RETIRED)]


def _cluster() -> SimulatedCluster:
    return SimulatedCluster(figure1_fragmentation())


@pytest.fixture(scope="module")
def server():
    srv = start_background_server(BatchQueryEngine(_cluster()))
    yield srv
    srv.shutdown()


@pytest.fixture(autouse=True)
def _clean_defaults(monkeypatch):
    for registry in STRATEGIES.values():
        if registry.env_var:
            monkeypatch.delenv(registry.env_var, raising=False)
        registry.set_default(None)
    yield
    for registry in STRATEGIES.values():
        registry.set_default(None)


def _signature(result):
    stats = result.stats
    return (result.answer, stats.total_visits, stats.traffic_bytes, stats.num_messages)


def _refusal(algorithm: str, option: str) -> str:
    return f"algorithm {algorithm!r} does not take {OPTIONS[option].refusal}"


class TestTheTable:
    def test_rows_name_registered_algorithms_and_their_real_keywords(self):
        assert list(OPTIONS) == [field for field in EvalOptions.__dataclass_fields__]
        for option, spec in OPTIONS.items():
            assert spec.takers <= set(REGISTRY), option
            assert spec.registry.name == option
            for algorithm, (_query_type, fn) in REGISTRY.items():
                takes = option in inspect.signature(fn).parameters
                assert takes == (algorithm in spec.takers), (algorithm, option)
        assert SERVED == ("kernel",)
        # the retired name is gone from the table, the carrier and every algorithm
        assert RETIRED not in OPTIONS and RETIRED not in STRATEGIES
        for _query_type, fn in REGISTRY.values():
            assert RETIRED not in inspect.signature(fn).parameters
        # every batchable algorithm's options are served ones
        for option, spec in OPTIONS.items():
            if spec.takers & set(PLANS):
                assert spec.served, option

    def test_docs_carry_the_generated_table(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        table = strategy_table_markdown()
        assert table.count("\n") == 1 + len(STRATEGIES)
        for name in ("README.md", "DESIGN.md"):
            assert table in (root / name).read_text(encoding="utf-8"), name


class TestExplicitIsHardDefaultIsSoft:
    @pytest.mark.parametrize("algorithm,option", CELLS)
    def test_evaluate(self, algorithm, option):
        cluster = _cluster()
        query = QUERIES[REGISTRY[algorithm][0]]
        if option == RETIRED:
            with pytest.raises(TypeError, match=RETIRED):
                evaluate(cluster, query, algorithm, **{option: "tol"})
            with pytest.raises(TypeError, match=RETIRED):
                connect(cluster, **{option: "tol"})
            return
        reference = evaluate(cluster, query, algorithm)
        # a process-wide default is soft: it never raises
        OPTIONS[option].registry.set_default(VALUES[option])
        assert evaluate(cluster, query, algorithm).answer == reference.answer
        OPTIONS[option].registry.set_default(None)
        # an explicit option is hard
        if algorithm in OPTIONS[option].takers:
            got = evaluate(cluster, query, algorithm, **{option: VALUES[option]})
            assert got.answer == reference.answer
            if option != "shortcuts":  # shortcut edges carry their own traffic
                assert got.stats.traffic_bytes == reference.stats.traffic_bytes
        else:
            with pytest.raises(QueryError) as raised:
                evaluate(cluster, query, algorithm, **{option: VALUES[option]})
            assert str(raised.value) == _refusal(algorithm, option)

    @pytest.mark.parametrize("transport", ["local", "tcp"])
    @pytest.mark.parametrize(
        "algorithm,option", [cell for cell in CELLS if cell[1] in (*SERVED, RETIRED)]
    )
    def test_clients(self, algorithm, option, transport, server):
        target = _cluster() if transport == "local" else server.address
        query = QUERIES[REGISTRY[algorithm][0]]
        if option == RETIRED:
            with pytest.raises(TypeError, match=RETIRED):
                connect(target, **{option: "tol"})
            with connect(target) as client:
                with pytest.raises(TypeError, match=RETIRED):
                    client.query(query, algorithm, **{option: "tol"})
                with pytest.raises(TypeError, match=RETIRED):
                    client.batch([query], algorithm, **{option: "tol"})
            return
        with connect(target) as plain, connect(target, **VALUES_SERVED) as defaulted:
            assert isinstance(plain, LocalClient if transport == "local" else RemoteClient)
            reference = _signature(plain.query(query, algorithm))
            # connect-level defaults are soft on every algorithm, one by one
            # and as a batch
            assert _signature(defaulted.query(query, algorithm)) == reference
            assert defaulted.batch([query, query], algorithm).answers == [reference[0]] * 2
            for client in (plain, defaulted):
                if algorithm in OPTIONS[option].takers:
                    got = client.query(query, algorithm, **{option: VALUES[option]})
                    assert _signature(got) == reference
                    continue
                with pytest.raises(QueryError) as raised:
                    client.query(query, algorithm, **{option: VALUES[option]})
                assert str(raised.value) == _refusal(algorithm, option)
                with pytest.raises(QueryError) as raised:
                    client.batch([query], algorithm, **{option: VALUES[option]})
                assert str(raised.value) == _refusal(algorithm, option)

    def test_defaults_serve_a_mixed_stream_and_a_mixed_batch(self, server):
        stream = list(QUERIES.values())
        for target in (_cluster(), server.address):
            with connect(target) as plain, connect(target, **VALUES_SERVED) as defaulted:
                assert defaulted.batch(stream).answers == plain.batch(stream).answers
                assert [defaulted.query(q).answer for q in stream] == plain.batch(stream).answers

    def test_unknown_names_raise_the_registrys_error_first_hand(self):
        cluster = _cluster()
        with pytest.raises(KernelError, match="unknown kernel 'fortran'"):
            evaluate(cluster, QUERIES[ReachQuery], kernel="fortran")
        with pytest.raises(KernelError, match="unknown kernel 'nope'; known: numpy"):
            plan_for(QUERIES[ReachQuery], options=EvalOptions(kernel="nope"))
        with pytest.raises(ShortcutError, match="unknown shortcut mode 'nope'"):
            evaluate(cluster, QUERIES[ReachQuery], "disReachm", shortcuts="nope")
        with pytest.raises(KernelError, match="unknown kernel 'fortran'"):
            connect(cluster, kernel="fortran")


VALUES_SERVED = {name: VALUES[name] for name in SERVED}


class TestTheCarrier:
    def test_frozen_hashable_and_equal_by_value(self):
        options = EvalOptions(kernel="numpy", shortcuts="reach")
        assert options == EvalOptions("numpy", "reach")
        assert len({options, EvalOptions(kernel="numpy", shortcuts="reach"), EvalOptions()}) == 2
        with pytest.raises(AttributeError):
            options.kernel = "turbo"
        with pytest.raises(TypeError, match=RETIRED):
            EvalOptions(oracle="tol")
        assert options.given() == {"kernel": "numpy", "shortcuts": "reach"}
        assert EvalOptions().given() == {}
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(options, protocol)) == options

    def test_wire_projection_is_the_served_options(self):
        options = EvalOptions(kernel="numpy", shortcuts="reach")
        assert options.wire() == {"kernel": "numpy"}
        request = {"op": "query", "kernel": "numpy", "shortcuts": "reach", RETIRED: "tol"}
        assert EvalOptions.from_wire(request) == EvalOptions(kernel="numpy")

    @pytest.mark.parametrize("backend", ["socket"])
    def test_crosses_worker_process_boundaries(self, backend):
        cluster = _cluster()
        explicit = EvalOptions(kernel="numpy")
        resolved = explicit.resolved("disReach")
        with cluster.using_executor(backend):
            run = cluster.start_run("x")
            with run.parallel_phase() as phase:
                echoed = phase.map(list, [(0, ([explicit],)), (1, ([resolved],))])
            run.finish()
            assert cluster.executor.degraded_tasks == 0
        assert echoed == [[explicit], [resolved]]
        assert hash(echoed[0][0]) == hash(explicit)

    def test_resolution_fills_only_what_the_algorithm_takes(self):
        assert EvalOptions().resolved("disReach") == EvalOptions("numpy", None)
        assert EvalOptions().resolved("disDist") == EvalOptions("numpy", None)
        assert EvalOptions().resolved("disReachm") == EvalOptions(None, "none")
        assert EvalOptions().resolved("disRPQd") == EvalOptions()
        OPTIONS["shortcuts"].registry.set_default("reach")
        assert EvalOptions().resolved("disReachm").shortcuts == "reach"
        assert EvalOptions().resolved("disReach").shortcuts is None
        assert EvalOptions(shortcuts="none").resolved("disReachm").shortcuts == "none"

    def test_plans_ship_plain_resolved_strings(self):
        plan = plan_for(QUERIES[ReachQuery], options=EvalOptions(kernel="numpy"))
        assert plan.options == EvalOptions("numpy", None)
        assert plan.local_eval_args() == (QUERIES[ReachQuery], "numpy")
        fragment = _cluster().sites[0].fragments[0]
        for query in QUERIES.values():
            plan = plan_for(query)
            assert list(inspect.signature(type(plan)).parameters) == ["query", "options"]
            # only resolved names follow the query (or its automaton) to
            # workers, and only plain hashable values key the site cache
            assert all(isinstance(arg, str) for arg in plan.local_eval_args()[1:])
            params = plan.fragment_params(fragment)
            assert not any(p is None or callable(p) for p in params), params
            hash(params)

    def test_cache_key_holds_the_oracle_and_not_the_kernel(self, monkeypatch):
        """No option keys the site cache (the oracle, which did, is retired)."""
        pytest.importorskip("numpy")
        # a made-up second kernel name, so two batches differ in kernel only
        registry = OPTIONS["kernel"].registry
        monkeypatch.setattr(registry, "names", (*registry.names, "turbo"))
        cluster = _cluster()
        engine = BatchQueryEngine(cluster)
        stream = list(QUERIES.values())
        cold = engine.run_batch(stream, kernel="turbo").workload
        assert cold.cache_misses == 3 * cluster.num_sites and cold.cache_hits == 0
        # a numpy batch hits what a turbo batch stored
        warm = engine.run_batch(stream, kernel="numpy").workload
        assert warm.cache_misses == 0 and warm.cache_hits == cold.cache_misses


#: (answer, visits, traffic bytes, messages) of initialize() and five
#: updates on the Figure 1 fragmentation — read off the parent commit.
PINNED_SESSION_STATS = {
    IncrementalReachSession: [
        (True, 3, 88, 6), (False, 1, 24, 2), (True, 2, 61, 4),
        (False, 2, 54, 4), (False, 1, 33, 2), (True, 1, 25, 2),
    ],
    IncrementalRegularSession: [
        (True, 3, 411, 6), (False, 1, 108, 2), (True, 2, 276, 4),
        (False, 2, 258, 4), (False, 1, 151, 2), (True, 1, 110, 2),
    ],
}


def _drive(session):
    return [
        _signature(result)
        for result in (
            session.initialize(),
            session.remove_edge("Ross", "Mark"),  # intra-fragment
            session.add_edge("Fred", "Mark"),  # cross-fragment
            session.remove_edge("Fred", "Mark"),
            session.resync("Emmy"),
            session.add_edge("Ross", "Mark"),
        )
    ]


class TestASessionEvaluatesOneWay:
    @pytest.fixture
    def job_args(self, monkeypatch):
        """Record ``(fn, args)`` of every job handed to ``eval_fragment_jobs``,
        keyed by the module that submitted it."""
        seen = {"full": [], "update": []}
        real = serving_engine.eval_fragment_jobs

        def recording(path):
            def eval_fragment_jobs(jobs):
                seen[path].extend((fn, args) for fn, _fragment, args in jobs)
                return real(jobs)

            return eval_fragment_jobs

        monkeypatch.setattr(serving_engine, "eval_fragment_jobs", recording("full"))
        monkeypatch.setattr(incremental, "eval_fragment_jobs", recording("update"))
        return seen

    @pytest.mark.parametrize("layer", ["set_default", "env"])
    @pytest.mark.parametrize("cls", list(PINNED_SESSION_STATS))
    def test_update_path_runs_the_options_initialize_ran(
        self, cls, layer, job_args, monkeypatch
    ):
        # a made-up second kernel name, set as the process-wide default
        registry = OPTIONS["kernel"].registry
        monkeypatch.setattr(registry, "names", (*registry.names, "turbo"))
        if layer == "env":
            monkeypatch.setenv("REPRO_KERNEL", "turbo")
        else:
            registry.set_default("turbo")
        query = QUERIES[ReachQuery if cls is IncrementalReachSession else RegularReachQuery]
        session = cls(_cluster(), query)
        observed = _drive(session)
        assert set(job_args["full"]) == set(job_args["update"]) and job_args["update"]
        assert session.plan.options.kernel == "turbo"
        assert all(args[-1] == "turbo" for _fn, args in job_args["update"])
        # the kernel changes seconds only: same answers, visits, traffic
        assert observed == PINNED_SESSION_STATS[cls]

    @pytest.mark.parametrize("cls", list(PINNED_SESSION_STATS))
    def test_default_oracle_stats_are_unchanged(self, cls, job_args):
        query = QUERIES[ReachQuery if cls is IncrementalReachSession else RegularReachQuery]
        assert _drive(cls(_cluster(), query)) == PINNED_SESSION_STATS[cls]
        assert set(job_args["full"]) == set(job_args["update"])
