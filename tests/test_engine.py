"""Unit tests for the algorithm registry / front end."""

import pytest

from repro.core import (
    BoundedReachQuery,
    REGISTRY,
    ReachQuery,
    RegularReachQuery,
    algorithms_for,
    evaluate,
)
from repro.errors import QueryError


class TestRegistry:
    def test_paper_names_present(self):
        assert set(REGISTRY) == {
            "disReach", "disReachn", "disReachm",
            "disDist", "disDistn", "disDistm",
            "disRPQ", "disRPQn", "disRPQd",
        }

    def test_algorithms_for(self):
        assert set(algorithms_for(ReachQuery("a", "b"))) == {
            "disReach", "disReachn", "disReachm"
        }
        assert set(algorithms_for(BoundedReachQuery("a", "b", 1))) == {
            "disDist", "disDistn", "disDistm"
        }
        assert set(algorithms_for(RegularReachQuery("a", "b", "x"))) == {
            "disRPQ", "disRPQn", "disRPQd"
        }


class TestEvaluate:
    def test_default_dispatch(self, figure1):
        _, _, cluster = figure1
        assert evaluate(cluster, ReachQuery("Ann", "Mark")).answer
        assert evaluate(cluster, BoundedReachQuery("Ann", "Mark", 6)).answer
        assert evaluate(cluster, RegularReachQuery("Ann", "Mark", "HR*")).answer

    def test_default_uses_partial_evaluation(self, figure1):
        _, _, cluster = figure1
        result = evaluate(cluster, ReachQuery("Ann", "Mark"))
        assert result.stats.algorithm == "disReach"

    def test_explicit_algorithm(self, figure1):
        _, _, cluster = figure1
        result = evaluate(cluster, ReachQuery("Ann", "Mark"), "disReachn")
        assert result.answer
        assert result.stats.algorithm == "disReachn"

    def test_every_registered_algorithm_runs(self, figure1):
        _, _, cluster = figure1
        queries = {
            ReachQuery: ReachQuery("Ann", "Mark"),
            BoundedReachQuery: BoundedReachQuery("Ann", "Mark", 6),
            RegularReachQuery: RegularReachQuery("Ann", "Mark", "HR*"),
        }
        for name, (query_type, _) in REGISTRY.items():
            result = evaluate(cluster, queries[query_type], name)
            assert result.answer, name

    def test_unknown_algorithm(self, figure1):
        _, _, cluster = figure1
        with pytest.raises(QueryError, match="unknown algorithm"):
            evaluate(cluster, ReachQuery("Ann", "Mark"), "disMagic")

    def test_query_type_mismatch(self, figure1):
        _, _, cluster = figure1
        with pytest.raises(QueryError, match="evaluates"):
            evaluate(cluster, ReachQuery("Ann", "Mark"), "disRPQ")

    def test_unsupported_query_object(self, figure1):
        _, _, cluster = figure1
        with pytest.raises(QueryError):
            evaluate(cluster, "not a query")

    def test_declined_options_read_as_before(self, figure1):
        # The refusals are part of the CLI's error surface (exit 2).
        _, _, cluster = figure1
        queries = {"disDistm": BoundedReachQuery("Ann", "Mark", 6)}
        cases = [
            ("disReachn", {"kernel": "numpy"},
             "algorithm 'disReachn' does not take a kernel "
             "(only the partial-evaluation algorithms do)"),
            ("disReach", {"shortcuts": "reach"},
             "algorithm 'disReach' does not take shortcuts "
             "(only disReachm does)"),
            ("disDistm", {"shortcuts": "reach"},
             "algorithm 'disDistm' does not take shortcuts "
             "(only disReachm does)"),
        ]
        for algorithm, options, message in cases:
            query = queries.get(algorithm, ReachQuery("Ann", "Mark"))
            with pytest.raises(QueryError) as raised:
                evaluate(cluster, query, algorithm, **options)
            assert str(raised.value) == message
