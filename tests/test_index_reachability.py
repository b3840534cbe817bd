"""Unit tests for the reachability indexes (TC matrix, GRAIL, 2-hop)."""

import random

import pytest

from repro.graph import DiGraph, erdos_renyi, is_reachable
from repro.index import (
    BFSOracle,
    GrailOracle,
    TransitiveClosureOracle,
    TwoHopOracle,
)
from repro.index import ORACLES as REGISTERED

ORACLES = [BFSOracle, TransitiveClosureOracle, GrailOracle, TwoHopOracle]


@pytest.mark.parametrize("oracle_cls", ORACLES)
class TestAllOracles:
    def test_diamond(self, oracle_cls, diamond):
        oracle = oracle_cls(diamond)
        assert oracle.reaches("a", "d")
        assert not oracle.reaches("d", "a")
        assert oracle.reaches("b", "b")

    def test_cycle(self, oracle_cls, cycle_graph):
        oracle = oracle_cls(cycle_graph)
        assert oracle.reaches(1, 0)
        assert oracle.reaches(0, 3)
        assert not oracle.reaches(3, 1)

    def test_unknown_nodes_false(self, oracle_cls, diamond):
        oracle = oracle_cls(diamond)
        assert not oracle.reaches("ghost", "a")
        assert not oracle.reaches("a", "ghost")

    def test_empty_graph(self, oracle_cls):
        oracle = oracle_cls(DiGraph())
        assert not oracle.reaches("x", "y")

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs_match_bfs(self, oracle_cls, seed):
        rng = random.Random(seed)
        g = erdos_renyi(35, rng.randrange(0, 140), seed=seed)
        oracle = oracle_cls(g)
        for _ in range(60):
            u, v = rng.randrange(35), rng.randrange(35)
            assert oracle.reaches(u, v) == is_reachable(g, u, v), (seed, u, v)

    def test_name(self, oracle_cls, diamond):
        assert oracle_cls(diamond).name == oracle_cls.__name__


class TestRegistry:
    def test_known_names(self):
        assert {
            "bfs": BFSOracle,
            "transitive-closure": TransitiveClosureOracle,
            "grail": GrailOracle,
            "twohop": TwoHopOracle,
        }.items() <= REGISTERED.items()

    def test_factories_are_classes(self, diamond):
        for factory in REGISTERED.values():
            assert factory(diamond).reaches("a", "d")


class TestGrailSpecifics:
    def test_rejects_zero_labelings(self, diamond):
        with pytest.raises(ValueError):
            GrailOracle(diamond, num_labelings=0)

    def test_more_labelings_still_exact(self, cycle_graph):
        for k in (1, 2, 5):
            oracle = GrailOracle(cycle_graph, num_labelings=k, seed=k)
            assert oracle.reaches(0, 3)
            assert not oracle.reaches(3, 0)
