"""Golden tests: every worked example of the paper, end to end.

These tests pin the reproduction to the paper's own walkthrough on the
Figure 1 recommendation network: Example 2 (fragment anatomy), Example 3
(disReach equations), Example 4 (dependency-graph answer), Example 5
(disDist distances), Example 6 (query automata), Example 7 (disRPQ
vectors), Example 8 (assembling) and Example 1's headline claims.
"""

import pytest

from repro.automata import QueryAutomaton, US, UT
from repro.core import (
    BoundedReachQuery,
    ReachQuery,
    RegularReachQuery,
    TRUE,
    dis_dist,
    dis_rpq,
    local_eval_reach,
)
from repro.core.reachability import ReachPlan, assemble_reach
from repro.distributed import MessageKind
from repro.partition import check_fragmentation
from repro.workload.paper_example import (
    DISTANCE_BOUND,
    PEOPLE,
    QUERY_REGEX,
    QUERY_REGEX_PRIME,
    figure1_fragmentation,
    figure1_graph,
)


class TestExample2Fragmentation:
    """Example 2: F1.O = {Pat, Mat, Emmy}, F1.I = {Fred}, and the cross
    edges (Fred, Emmy), (Bill, Pat), (Walt, Mat)."""

    def test_is_valid_fragmentation(self):
        check_fragmentation(figure1_graph(), figure1_fragmentation())

    def test_f1_anatomy(self):
        f1 = figure1_fragmentation()[0]
        assert f1.virtual_nodes == {"Pat", "Mat", "Emmy"}
        assert f1.in_nodes == {"Fred"}
        assert set(f1.cross_edges) == {
            ("Fred", "Emmy"), ("Bill", "Pat"), ("Walt", "Mat")
        }

    def test_f2_f3_in_out_sets(self):
        frag = figure1_fragmentation()
        assert frag[1].in_nodes == {"Mat", "Jack", "Emmy"}
        assert frag[1].virtual_nodes == {"Fred", "Ross"}
        assert frag[2].in_nodes == {"Ross", "Pat"}
        assert frag[2].virtual_nodes == {"Jack"}

    def test_fragment_graph_has_no_internal_edges(self):
        frag = figure1_fragmentation()
        gf = frag.fragment_graph()
        assert not gf.has_edge("Ann", "Walt")  # internal to F1
        assert gf.has_edge("Walt", "Mat")  # cross

    def test_labels(self):
        g = figure1_graph()
        assert g.label("Ann") == "CTO"
        assert g.label("Mark") == "FA"
        assert PEOPLE["Ross"] == "HR"


class TestExample1Claims:
    """Example 1: the HR chain exists; only 2 message rounds beyond the
    query; partial evaluation runs without inter-site waiting."""

    def test_hr_chain_exists(self):
        g = figure1_graph()
        path = ["Ann", "Walt", "Mat", "Fred", "Emmy", "Ross", "Mark"]
        for u, v in zip(path, path[1:]):
            assert g.has_edge(u, v), (u, v)
        assert all(g.label(p) == "HR" for p in path[1:-1])

    def test_answer_true(self, figure1):
        _, _, cluster = figure1
        assert dis_rpq(cluster, ("Ann", "Mark", QUERY_REGEX)).answer

    def test_messages_beyond_query_all_go_to_coordinator(self, figure1):
        _, _, cluster = figure1
        result = dis_rpq(cluster, ("Ann", "Mark", QUERY_REGEX))
        non_query = [m for m in result.stats.messages if m.kind != MessageKind.QUERY]
        assert all(m.dst == -1 for m in non_query)


class TestExample3Equations:
    def test_all_three_rvsets(self, figure1):
        _, fragmentation, _ = figure1
        query = ReachQuery("Ann", "Mark")
        expected = {
            0: {
                "Ann": frozenset({"Pat", "Mat"}),
                "Fred": frozenset({"Emmy"}),
            },
            1: {
                "Mat": frozenset({"Fred"}),
                "Jack": frozenset({"Fred"}),
                "Emmy": frozenset({"Fred", "Ross"}),
            },
            2: {
                "Ross": frozenset({TRUE}),
                "Pat": frozenset({"Jack"}),
            },
        }
        for frag in fragmentation:
            assert local_eval_reach(frag, query) == expected[frag.fid], frag.fid


class TestExample4Assembling:
    def test_dependency_graph_answer(self, figure1):
        _, fragmentation, _ = figure1
        query = ReachQuery("Ann", "Mark")
        partials = {
            frag.fid: local_eval_reach(frag, query) for frag in fragmentation
        }
        assert assemble_reach(partials, query)
        answer, details = ReachPlan(query).assemble(partials, collect_details=True)
        assert answer
        gd = details["bes"].dependency_graph()
        # Fig. 5(a): the path XAnn -> XMat -> XFred -> XEmmy -> XRoss -> true
        for u, v in [("Ann", "Mat"), ("Mat", "Fred"), ("Fred", "Emmy"),
                     ("Emmy", "Ross"), ("Ross", TRUE)]:
            assert gd.has_edge(u, v), (u, v)

    def test_xfred_recursively_defined(self, figure1):
        """The paper: "xFred is defined indirectly in terms of itself"."""
        _, fragmentation, _ = figure1
        query = ReachQuery("Ann", "Mark")
        partials = {
            frag.fid: local_eval_reach(frag, query) for frag in fragmentation
        }
        _, details = ReachPlan(query).assemble(partials, collect_details=True)
        gd = details["bes"].dependency_graph()
        from repro.graph import is_reachable

        # Fred -> Emmy -> Fred in the dependency graph.
        assert is_reachable(gd, "Fred", "Fred") or any(
            is_reachable(gd, nxt, "Fred") for nxt in gd.successors("Fred")
        )


class TestExample5BoundedDistance:
    def test_distance_is_exactly_six(self, figure1):
        _, _, cluster = figure1
        result = dis_dist(cluster, BoundedReachQuery("Ann", "Mark", DISTANCE_BOUND))
        assert result.answer
        assert result.distance == pytest.approx(6.0)

    def test_f2_equation_table(self, figure1):
        from repro.core.bounded import local_eval_bounded

        _, fragmentation, _ = figure1
        query = BoundedReachQuery("Ann", "Mark", 6)
        terms = local_eval_bounded(fragmentation[1], query)
        assert dict(terms["Mat"]) == {"Fred": 1.0}
        assert dict(terms["Jack"]) == {"Fred": 3.0}
        assert dict(terms["Emmy"]) == {"Fred": 3.0, "Ross": 1.0}


class TestExample6QueryAutomata:
    def test_gq_of_r(self):
        qa = QueryAutomaton.build(QUERY_REGEX, "Ann", "Mark")
        assert qa.num_states == 4  # Ann, DB, HR, Mark

    def test_gq_of_r_prime(self):
        qa = QueryAutomaton.build(QUERY_REGEX_PRIME, "Walt", "Mark")
        assert qa.num_states == 5  # Walt, CTO, DB, HR, Mark


class TestExamples7And8RegularReachability:
    def test_example7_vectors(self, figure1):
        from repro.core.regular import local_eval_regular

        _, fragmentation, _ = figure1
        qa = QueryAutomaton.build(QUERY_REGEX, "Ann", "Mark")
        (hr,) = [
            s for s in qa.states()
            if s not in (US, UT) and qa.analysis.position_labels[s] == "HR"
        ]
        equations = local_eval_regular(fragmentation[1], qa)
        assert equations[("Mat", hr)] == frozenset({("Fred", hr)})
        assert equations[("Emmy", hr)] == frozenset({("Ross", hr)})

    def test_example8_answer(self, figure1):
        _, _, cluster = figure1
        result = dis_rpq(cluster, RegularReachQuery("Ann", "Mark", QUERY_REGEX))
        assert result.answer

    def test_example6_second_query_true(self, figure1):
        _, _, cluster = figure1
        result = dis_rpq(
            cluster, RegularReachQuery("Walt", "Mark", QUERY_REGEX_PRIME)
        )
        assert result.answer
