"""Unit tests for the Pregel-style BSP substrate (sharded supersteps)."""

from dataclasses import dataclass
from typing import Any, List, Optional

import pytest

from repro.baselines import PregelEngine, VertexOutcome, VertexProgram, run_superstep
from repro.distributed import SimulatedCluster
from repro.errors import DistributedError
from repro.graph import DiGraph
from repro.partition import build_fragmentation


@dataclass(frozen=True)
class FloodProgram(VertexProgram):
    """Activate once, forward a token to every successor."""

    halt_at: Optional[Any] = None

    def combine(self, messages: List[Any]) -> List[Any]:
        return messages[:1]

    def compute(self, vertex, value, messages, successors) -> VertexOutcome:
        if value:
            return VertexOutcome()
        if self.halt_at is not None and vertex == self.halt_at:
            return VertexOutcome(
                value=True, set_value=True, halt=True, result="found", report="T"
            )
        return VertexOutcome(
            value=True,
            set_value=True,
            messages=tuple((child, "T") for child in successors),
        )


@dataclass(frozen=True)
class PingPongProgram(VertexProgram):
    """Never terminates: a and b bounce a token forever."""

    def compute(self, vertex, value, messages, successors) -> VertexOutcome:
        target = "b" if vertex == "a" else "a"
        return VertexOutcome(messages=((target, "ping"),))


@dataclass(frozen=True)
class GhostProgram(VertexProgram):
    """Sends to a vertex no fragment owns."""

    def compute(self, vertex, value, messages, successors) -> VertexOutcome:
        return VertexOutcome(messages=(("ghost", "T"),))


@dataclass(frozen=True)
class SingleHopProgram(VertexProgram):
    """Only 'a' acts: activates and pings its same-fragment child 'b'."""

    def compute(self, vertex, value, messages, successors) -> VertexOutcome:
        if vertex == "a" and not value:
            return VertexOutcome(value=True, set_value=True, messages=(("b", "T"),))
        return VertexOutcome()


@pytest.fixture
def engine_setup():
    g = DiGraph.from_edges(
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")]
    )
    assignment = {"a": 0, "b": 0, "c": 1, "d": 1, "e": 1}
    cluster = SimulatedCluster(build_fragmentation(g, assignment, 2))
    run = cluster.start_run("pregel-test")
    return cluster, run, PregelEngine(cluster, run)


class TestExecution:
    def test_token_propagation(self, engine_setup):
        _, run, engine = engine_setup
        engine.execute(FloodProgram(), {"a": ["T"]})
        assert set(engine.values) == {"a", "b", "c", "d", "e"}

    def test_halt_with_stops_early(self, engine_setup):
        _, run, engine = engine_setup
        result = engine.execute(FloodProgram(halt_at="c"), {"a": ["T"]})
        assert result == "found"
        # e was never activated: the engine stopped at c's superstep.
        assert "e" not in engine.values or engine.values.get("e") is None

    def test_no_messages_returns_none(self, engine_setup):
        _, _, engine = engine_setup
        assert engine.execute(FloodProgram(), {}) is None

    def test_superstep_limit(self, engine_setup):
        _, _, engine = engine_setup
        with pytest.raises(DistributedError, match="supersteps"):
            engine.execute(PingPongProgram(), {"a": ["go"]}, max_supersteps=5)

    def test_unknown_vertex_message(self, engine_setup):
        _, _, engine = engine_setup
        with pytest.raises(DistributedError, match="unknown vertex"):
            engine.execute(GhostProgram(), {"a": ["T"]})

    def test_base_program_is_abstract(self):
        with pytest.raises(NotImplementedError):
            VertexProgram().compute("a", None, ["T"], ())


class TestSuperstepTask:
    """run_superstep is a pure function — the picklable unit of sharding."""

    def _fragment(self):
        g = DiGraph.from_edges([("a", "b"), ("a", "c")])
        return build_fragmentation(g, {"a": 0, "b": 0, "c": 0}, 1)[0]

    def test_pure_and_deterministic(self):
        fragment = self._fragment()
        args = (FloodProgram(), (fragment,), {"a": ["T"]}, {"a": None}, 0)
        first = run_superstep(*args)
        second = run_superstep(*args)
        assert first == second
        assert first.updates == {"a": True}
        assert set(first.outbox) == {("b", "T", False), ("c", "T", False)}
        assert not first.halted

    def test_combiner_collapses_per_target(self):
        g = DiGraph.from_edges([("a", "c"), ("b", "c")])
        fragment = build_fragmentation(g, {"a": 0, "b": 0, "c": 0}, 1)[0]
        result = run_superstep(
            FloodProgram(), (fragment,), {"a": ["T"], "b": ["T"]}, {}, 0
        )
        # Both parents target c; the combiner keeps one token.
        assert result.outbox == (("c", "T", False),)

    def test_default_combiner_keeps_everything(self):
        @dataclass(frozen=True)
        class NoCombine(VertexProgram):
            def compute(self, vertex, value, messages, successors):
                return VertexOutcome(
                    messages=tuple((child, "T") for child in successors)
                )

        g = DiGraph.from_edges([("a", "c"), ("b", "c")])
        fragment = build_fragmentation(g, {"a": 0, "b": 0, "c": 0}, 1)[0]
        result = run_superstep(
            NoCombine(), (fragment,), {"a": ["T"], "b": ["T"]}, {}, 0
        )
        assert result.outbox == (("c", "T", False), ("c", "T", False))

    def test_halt_reported(self):
        fragment = self._fragment()
        result = run_superstep(
            FloodProgram(halt_at="a"), (fragment,), {"a": ["T"]}, {}, 0
        )
        assert result.halted and result.result == "found"
        assert result.reports == ("T",)

    def test_program_roundtrips_through_pickle(self):
        import pickle

        program = FloodProgram(halt_at="c")
        clone = pickle.loads(pickle.dumps(program))
        assert clone == program


class TestAccounting:
    def test_cross_fragment_messages_visit_and_route(self, engine_setup):
        _, run, engine = engine_setup
        engine.execute(FloodProgram(), {"a": ["T"]})
        stats = run.finish()
        # b -> c is the only cross edge: one token routed via the master,
        # two transfers (worker->master, master->worker), one visit to site 1.
        token_msgs = [m for m in stats.messages if m.kind.value == "token"]
        assert len(token_msgs) == 2
        assert stats.visits[1] == 1
        assert stats.visits[0] == 0  # intra-fragment deliveries are free

    def test_intra_fragment_messages_free(self, engine_setup):
        _, run, engine = engine_setup
        engine.execute(SingleHopProgram(), {"a": ["T"]})
        stats = run.finish()
        assert stats.traffic_bytes == 0
        assert stats.total_visits == 0

    def test_supersteps_counted(self, engine_setup):
        _, run, engine = engine_setup
        engine.execute(FloodProgram(), {"a": ["T"]})
        stats = run.finish()
        # a | b | c | d | e : 5 compute supersteps along the chain
        assert stats.supersteps == 5
