"""Unit tests for disDist (Section 4)."""

import pytest
from distance_reference import DistanceMatrixOracle, oracle_terms

from repro.core import BoundedReachQuery, bounded_reachable, dis_dist, distance
from repro.core.bounded import local_eval_bounded
from repro.core.minplus import TARGET
from repro.errors import QueryError


class TestLocalEvalBounded:
    def test_figure1_example5_f2_terms(self, figure1):
        """Example 5's st-table for F2: Mat: xFred+1; Jack: xFred+3;
        Emmy: xFred+3, xRoss+1."""
        _, fragmentation, _ = figure1
        query = BoundedReachQuery("Ann", "Mark", 6)
        terms = local_eval_bounded(fragmentation[1], query)
        assert dict(terms["Mat"]) == {"Fred": 1.0}
        assert dict(terms["Jack"]) == {"Fred": 3.0}
        assert dict(terms["Emmy"]) == {"Fred": 3.0, "Ross": 1.0}

    def test_figure1_f1_and_f3_terms(self, figure1):
        _, fragmentation, _ = figure1
        query = BoundedReachQuery("Ann", "Mark", 6)
        f1_terms = local_eval_bounded(fragmentation[0], query)
        assert dict(f1_terms["Ann"]) == {"Pat": 2.0, "Mat": 2.0}
        assert dict(f1_terms["Fred"]) == {"Emmy": 1.0}
        f3_terms = local_eval_bounded(fragmentation[2], query)
        assert dict(f3_terms["Ross"]) == {TARGET: 1.0}
        assert dict(f3_terms["Pat"]) == {"Jack": 1.0}

    def test_bound_prunes_long_legs(self, figure1):
        _, fragmentation, _ = figure1
        query = BoundedReachQuery("Ann", "Mark", 2)
        terms = local_eval_bounded(fragmentation[1], query)
        # Jack -> Fred needs 3 hops > bound 2: pruned.
        assert dict(terms["Jack"]) == {}
        assert dict(terms["Mat"]) == {"Fred": 1.0}

    def test_leg_of_length_exactly_bound_kept(self, figure1):
        """The <= l fix (DESIGN.md §3.3): a leg of exactly l hops survives."""
        _, fragmentation, _ = figure1
        query = BoundedReachQuery("Ann", "Mark", 3)
        terms = local_eval_bounded(fragmentation[1], query)
        assert dict(terms["Jack"]) == {"Fred": 3.0}

    def test_distance_oracle_matches_bfs(self, figure1):
        _, fragmentation, _ = figure1
        query = BoundedReachQuery("Ann", "Mark", 6)
        for frag in fragmentation:
            default = local_eval_bounded(frag, query)
            indexed = oracle_terms(frag, query, DistanceMatrixOracle)
            assert {k: dict(v) for k, v in default.items()} == {
                k: dict(v) for k, v in indexed.items()
            }


class TestDisDist:
    def test_figure1_example5(self, figure1):
        """qbr(Ann, Mark, 6) is true with dist exactly 6."""
        _, _, cluster = figure1
        result = dis_dist(cluster, ("Ann", "Mark", 6))
        assert result.answer
        assert result.distance == pytest.approx(6.0)

    def test_bound_five_is_too_small(self, figure1):
        _, _, cluster = figure1
        result = dis_dist(cluster, ("Ann", "Mark", 5))
        assert not result.answer

    def test_unreachable(self, figure1):
        _, _, cluster = figure1
        result = dis_dist(cluster, ("Mark", "Ann", 100))
        assert not result.answer
        assert result.distance is None

    def test_source_equals_target(self, figure1):
        _, _, cluster = figure1
        result = dis_dist(cluster, ("Ann", "Ann", 0))
        assert result.answer and result.distance == 0.0

    def test_visits_once(self, figure1):
        _, _, cluster = figure1
        result = dis_dist(cluster, ("Ann", "Mark", 6))
        assert result.stats.max_visits_per_site == 1

    def test_rejects_bad_bound(self, figure1):
        _, _, cluster = figure1
        with pytest.raises(QueryError):
            dis_dist(cluster, ("Ann", "Mark", -2))

    def test_agrees_with_centralized(self, random_case):
        for seed in range(5):
            graph, cluster = random_case(seed)
            nodes = sorted(graph.nodes())
            for s in nodes[::7]:
                for t in nodes[::6]:
                    for bound in (0, 1, 3, 8):
                        expected = bounded_reachable(graph, s, t, bound)
                        got = dis_dist(cluster, (s, t, bound))
                        assert got.answer == expected, (seed, s, t, bound)

    def test_distance_value_matches_centralized(self, random_case):
        graph, cluster = random_case(11)
        nodes = sorted(graph.nodes())
        for s in nodes[::5]:
            for t in nodes[::4]:
                expected = distance(graph, s, t)
                got = dis_dist(cluster, (s, t, 100)).distance
                if expected is None or expected > 100:
                    assert got is None
                else:
                    assert got == pytest.approx(float(expected)), (s, t)

    def test_details(self, figure1):
        _, _, cluster = figure1
        result = dis_dist(cluster, ("Ann", "Mark", 6), collect_details=True)
        assert "system" in result.details
        assert result.details["num_variables"] == 7
