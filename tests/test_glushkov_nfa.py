"""Unit tests for Glushkov analysis and the position NFA."""

import collections
import pickle
import re
from unittest import mock

import pytest

from repro.automata import GlushkovAnalysis, PositionNFA, analyze, parse_regex, to_python_regex
from repro.automata.nfa import START


class TestAnalysis:
    def test_positions_count_symbol_occurrences(self):
        a = analyze(parse_regex("a b a"))
        assert a.num_positions == 3
        assert a.position_labels == ("a", "b", "a")

    def test_nullable(self):
        assert analyze(parse_regex("a*")).nullable
        assert analyze(parse_regex("()")).nullable
        assert analyze(parse_regex("a? b?")).nullable
        assert not analyze(parse_regex("a")).nullable
        assert not analyze(parse_regex("a* b")).nullable

    def test_first_skips_nullable_prefix(self):
        a = analyze(parse_regex("a* b"))
        assert a.first == {0, 1}

    def test_last_skips_nullable_suffix(self):
        a = analyze(parse_regex("a b*"))
        assert a.last == {0, 1}

    def test_follow_through_nullable_middle(self):
        # a (b?) c : position 0 must be followed by both b and c.
        a = analyze(parse_regex("a b? c"))
        assert a.follow[0] == {1, 2}

    def test_star_loops_follow(self):
        a = analyze(parse_regex("(a b)*"))
        assert 0 in a.follow[1]  # b loops back to a

    def test_wildcard_position_label_is_none(self):
        a = analyze(parse_regex("a ."))
        assert a.position_labels == ("a", None)


class TestAnalysisHash:
    """The hash is memoized per instance and never crosses a pickle."""

    def test_equal_analyses_hash_equal(self):
        first, second = analyze(parse_regex("(a | b)* c")), analyze(parse_regex("(a | b)* c"))
        assert first is not second and first == second
        assert hash(first) == hash(second) == hash(first)
        assert first.__dict__["_hash"] == first._field_hash()

    def test_pickle_carries_no_memo_and_rehashes_equal(self):
        analysis = analyze(parse_regex("a b* (c | .)"))
        hash(analysis)
        assert "_hash" in analysis.__dict__
        clone = pickle.loads(pickle.dumps(analysis))
        assert "_hash" not in clone.__dict__
        assert clone == analysis and hash(clone) == hash(analysis)
        assert "_hash" in clone.__dict__

    def test_regular_evaluate_hashes_each_analysis_once(self):
        from repro.core.engine import evaluate
        from repro.core.queries import RegularReachQuery
        from repro.distributed import SimulatedCluster
        from repro.graph import erdos_renyi

        graph = erdos_renyi(40, 100, seed=1, num_labels=3)
        cluster = SimulatedCluster.from_graph(graph, 4, "chunk")
        nodes = sorted(graph.nodes(), key=repr)
        computed = collections.Counter()
        field_hash = GlushkovAnalysis._field_hash

        def counting(analysis):
            computed[id(analysis)] += 1
            return field_hash(analysis)

        with mock.patch.object(GlushkovAnalysis, "_field_hash", counting):
            for regex in ("L0* L1", "(L0 | L2)* ."):
                evaluate(cluster, RegularReachQuery(nodes[0], nodes[-1], regex))
        assert len(computed) == 2 and set(computed.values()) == {1}


class TestAcceptance:
    @pytest.mark.parametrize(
        "regex,word,expected",
        [
            ("DB* | HR*", [], True),
            ("DB* | HR*", ["HR", "HR"], True),
            ("DB* | HR*", ["DB"], True),
            ("DB* | HR*", ["HR", "DB"], False),
            ("CTO DB*", ["CTO"], True),
            ("CTO DB*", ["CTO", "DB", "DB"], True),
            ("CTO DB*", ["DB"], False),
            ("a b c", ["a", "b", "c"], True),
            ("a b c", ["a", "b"], False),
            (". .", ["x", "y"], True),
            (". .", ["x"], False),
            ("a+", [], False),
            ("a+", ["a", "a", "a"], True),
            ("a?", [], True),
            ("a?", ["a"], True),
            ("a?", ["a", "a"], False),
            ("()", [], True),
            ("()", ["a"], False),
            ("(a b)* c", ["a", "b", "a", "b", "c"], True),
            ("(a b)* c", ["a", "b", "a", "c"], False),
        ],
    )
    def test_cases(self, regex, word, expected):
        assert PositionNFA.from_regex(regex).accepts(word) == expected

    def test_prefix_states(self):
        nfa = PositionNFA.from_regex("a b")
        assert nfa.accepts_some_prefix_state(["a"]) != set()
        assert nfa.accepts_some_prefix_state(["b"]) == set()

    def test_start_state_transitions(self):
        nfa = PositionNFA.from_regex("a | b")
        assert nfa.transitions_from(START) == {0, 1}


class TestAgainstPythonRe:
    @pytest.mark.parametrize(
        "regex",
        ["a", "a b", "a | b", "a*", "(a b)* a?", "a+ b+ | c", "(a | b)* c",
         ". a*", "a? (b | c)* a"],
    )
    def test_agrees_with_re_on_short_words(self, regex):
        nfa = PositionNFA.from_regex(regex)
        pattern = re.compile(to_python_regex(regex))
        alphabet = "abcx"
        words = [""]
        for _ in range(3):
            words += [w + ch for w in words for ch in alphabet]
        for word in set(words):
            expected = pattern.fullmatch(word) is not None
            assert nfa.accepts(list(word)) == expected, (regex, word)
