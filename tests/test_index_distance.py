"""Unit tests for the reference distance oracles (``distance_reference``)."""

import random

import pytest
from distance_reference import BFSDistanceOracle, DistanceMatrixOracle

from repro.graph import DiGraph, bfs_distance, erdos_renyi

ORACLES = [BFSDistanceOracle, DistanceMatrixOracle]


@pytest.mark.parametrize("oracle_cls", ORACLES)
class TestDistanceOracles:
    def test_chain(self, oracle_cls, chain_graph):
        oracle = oracle_cls(chain_graph)
        assert oracle.distance(0, 0) == 0
        assert oracle.distance(0, 9) == 9
        assert oracle.distance(9, 0) is None

    def test_shortest_of_alternatives(self, oracle_cls, diamond):
        oracle = oracle_cls(diamond)
        assert oracle.distance("a", "d") == 2

    @pytest.mark.parametrize("seed", range(3))
    def test_random_matches_bfs(self, oracle_cls, seed):
        rng = random.Random(seed)
        g = erdos_renyi(30, rng.randrange(0, 120), seed=seed)
        oracle = oracle_cls(g)
        for _ in range(40):
            u, v = rng.randrange(30), rng.randrange(30)
            assert oracle.distance(u, v) == bfs_distance(g, u, v)

    def test_name(self, oracle_cls):
        assert oracle_cls(DiGraph()).name == oracle_cls.__name__


class TestMatrixSpecifics:
    def test_missing_source(self, diamond):
        oracle = DistanceMatrixOracle(diamond)
        assert oracle.distance("ghost", "a") is None
