"""Unit tests for disRPQ (Section 5)."""

import kernel_reference
import pytest

from repro.automata import US, UT, QueryAutomaton
from repro.core import dis_rpq, regular_reachable
from repro.core.bes import TRUE
from repro.core.regular import (
    RegularReachPlan,
    RegularRows,
    assemble_regular,
    local_eval_regular,
)
from repro.distributed import payload_size
from repro.distributed.messages import equation_set_size
from repro.errors import QueryError


@pytest.fixture
def figure1_automaton():
    return QueryAutomaton.build("DB* | HR*", "Ann", "Mark")


def _hr_state(automaton):
    (hr,) = [
        s for s in automaton.states()
        if s not in (US, UT) and automaton.analysis.position_labels[s] == "HR"
    ]
    return hr


class TestLocalEvalRegular:
    def test_figure1_example7_f2_vectors(self, figure1, figure1_automaton):
        """Example 7: Mat.rvec[HR] = X(Fred,HR); Emmy.rvec[HR] = X(Ross,HR);
        Jack matches nothing."""
        _, fragmentation, _ = figure1
        equations = local_eval_regular(fragmentation[1], figure1_automaton)
        hr = _hr_state(figure1_automaton)
        assert equations[("Mat", hr)] == frozenset({("Fred", hr)})
        assert equations[("Emmy", hr)] == frozenset({("Ross", hr)})
        # Jack is MK: no state of Gq matches it, so no vector entries at all.
        assert not any(node == "Jack" for node, _ in equations)

    def test_figure1_f3_truth(self, figure1, figure1_automaton):
        _, fragmentation, _ = figure1
        equations = local_eval_regular(fragmentation[2], figure1_automaton)
        hr = _hr_state(figure1_automaton)
        # Ross (HR) reaches Mark = t directly: true.
        assert equations[("Ross", hr)] == frozenset({TRUE})

    def test_figure1_f1_start_vector(self, figure1, figure1_automaton):
        _, fragmentation, _ = figure1
        equations = local_eval_regular(fragmentation[0], figure1_automaton)
        hr = _hr_state(figure1_automaton)
        # From (Ann, us): Ann -> Walt(HR) -> virtual Mat(HR).
        assert ("Mat", hr) in equations[("Ann", US)]

    def test_empty_when_no_in_nodes(self):
        from repro.graph import DiGraph
        from repro.partition import build_fragmentation

        g = DiGraph.from_edges([("a", "b")], labels={"a": "X", "b": "X"})
        frag = build_fragmentation(g, {"a": 0, "b": 0}, 2)
        automaton = QueryAutomaton.build("X*", "a", "b")
        assert local_eval_regular(frag[1], automaton) == {}


class TestAssembleRegular:
    def test_figure1_assembles_true(self, figure1, figure1_automaton):
        _, fragmentation, _ = figure1
        partials = {
            frag.fid: local_eval_regular(frag, figure1_automaton)
            for frag in fragmentation
        }
        assert assemble_regular(partials, figure1_automaton) is True

    def test_wrong_label_chain_is_false(self, figure1):
        _, fragmentation, _ = figure1
        automaton = QueryAutomaton.build("DB*", "Ann", "Mark")
        partials = {
            frag.fid: local_eval_regular(frag, automaton)
            for frag in fragmentation
        }
        assert assemble_regular(partials, automaton) is False


class TestDisRPQ:
    def test_figure1_examples(self, figure1):
        _, _, cluster = figure1
        assert dis_rpq(cluster, ("Ann", "Mark", "DB* | HR*")).answer
        assert dis_rpq(cluster, ("Walt", "Mark", "(CTO DB*) | HR*")).answer
        assert not dis_rpq(cluster, ("Ann", "Mark", "DB*")).answer
        assert not dis_rpq(cluster, ("Ann", "Mark", "DB* HR")).answer

    def test_path_labels_exclude_endpoints(self, figure1):
        _, _, cluster = figure1
        # Ann -> Walt -> Mat -> Fred -> Emmy -> Ross -> Mark: 5 HR between.
        assert dis_rpq(cluster, ("Ann", "Mark", "HR HR HR HR HR")).answer
        assert not dis_rpq(cluster, ("Ann", "Mark", "HR HR HR HR")).answer

    def test_visits_once(self, figure1):
        _, _, cluster = figure1
        result = dis_rpq(cluster, ("Ann", "Mark", "DB* | HR*"))
        assert result.stats.visits_per_site() == {0: 1, 1: 1, 2: 1}

    def test_trivial_nullable_self_query(self, figure1):
        _, _, cluster = figure1
        result = dis_rpq(cluster, ("Tom", "Tom", "HR*"))
        assert result.answer and result.details.get("trivial")

    def test_non_nullable_self_query_needs_cycle(self, figure1):
        _, _, cluster = figure1
        # Fred -> Emmy -> relay1 -> relay2 -> Fred is a cycle, labels:
        # Emmy=HR, relay1=MK, relay2=SE.
        assert dis_rpq(cluster, ("Fred", "Fred", "HR MK SE")).answer
        assert not dis_rpq(cluster, ("Fred", "Fred", "HR HR")).answer

    def test_unknown_endpoint_raises(self, figure1):
        _, _, cluster = figure1
        with pytest.raises(QueryError):
            dis_rpq(cluster, ("Ann", "Ghost", "HR*"))

    def test_automaton_is_what_ships(self, figure1):
        _, _, cluster = figure1
        result = dis_rpq(cluster, ("Ann", "Mark", "DB* | HR*"))
        query_msgs = [m for m in result.stats.messages if m.kind.value == "query"]
        assert len(query_msgs) == 3
        expected = payload_size(QueryAutomaton.build("DB* | HR*", "Ann", "Mark"))
        assert all(m.size_bytes == expected for m in query_msgs)

    def test_agrees_with_centralized(self, random_case):
        regexes = ["L0* | L1*", ". *", "L2 L1* L0?", "(L0 | L1) L2*", "()"]
        for seed in range(4):
            graph, cluster = random_case(seed)
            nodes = sorted(graph.nodes())
            for s in nodes[::9]:
                for t in nodes[::8]:
                    for regex in regexes:
                        expected = regular_reachable(graph, s, t, regex)
                        got = dis_rpq(cluster, (s, t, regex))
                        assert got.answer == expected, (seed, s, t, regex)

    def test_details(self, figure1):
        _, _, cluster = figure1
        result = dis_rpq(cluster, ("Ann", "Mark", "DB* | HR*"), collect_details=True)
        assert result.details["automaton_states"] == 4
        assert "equations" in result.details


class TestRegularPartialPayload:
    def test_scales_with_vectors(self, figure1):
        # One more position state in the automaton: more (node, state) rows
        # on the same fragment, and a larger partial.
        _, fragmentation, _ = figure1
        small = local_eval_regular(fragmentation[1], QueryAutomaton.build("HR*", "Ann", "Mark"))
        big = local_eval_regular(
            fragmentation[1], QueryAutomaton.build("HR* | (DB HR)*", "Ann", "Mark")
        )
        assert len(small) < len(big)
        assert payload_size(small) < payload_size(big)

    def test_one_wire_type_for_both_boolean_classes(self, figure1):
        # disReach ships its Vf-id bit matrix, disRPQ its pair-id one: one
        # wire formula for both Boolean classes, and each partial is its own
        # wire type.
        from repro.core.idrows import IdRows
        from repro.core.queries import ReachQuery
        from repro.core.reachability import ReachRows, local_eval_reach

        assert issubclass(RegularRows, IdRows) and issubclass(ReachRows, IdRows)
        _, fragmentation, _ = figure1
        plan = RegularReachPlan(("Ann", "Mark", "DB* | HR*"))
        for fragment in fragmentation:
            reach = local_eval_reach(fragment, ReachQuery("Ann", "Mark"))
            assert payload_size(reach) == kernel_reference.boolean_size(reach)
            rows = local_eval_regular(fragment, plan.automaton)
            assert plan.wrap_partial(rows) is rows
            assert payload_size(rows) == kernel_reference.regular_size(rows)
            assert rows[next(iter(rows))] is rows[next(iter(rows))]  # decoded once

    @pytest.mark.parametrize("kernel", ["python", "numpy"])
    def test_arithmetic_size_matches_the_equation_set_model(
        self, figure1, figure1_automaton, kernel
    ):
        pytest.importorskip("numpy")
        # "python" sizes the pure-python reference's rows, "numpy" the kernel's.
        local_eval = {
            "python": kernel_reference.local_eval_regular,
            "numpy": local_eval_regular,
        }[kernel]
        _, fragmentation, _ = figure1
        parts = [
            local_eval(fragment, figure1_automaton) for fragment in fragmentation
        ]
        if kernel == "python":  # the reference's site: one mapping
            merged = {var: eqs for part in parts for var, eqs in part.items()}
        else:
            merged = RegularRows.concat(parts)
        for rows in (*parts, merged):
            plain = dict(rows)
            columns = set().union(*plain.values())
            expected = equation_set_size(
                plain.keys(), columns, map(len, plain.values()), len(columns)
            )
            if kernel == "numpy":
                assert payload_size(rows) == expected
            assert kernel_reference.regular_size(plain) == expected
