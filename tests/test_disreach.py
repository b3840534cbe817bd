"""Unit tests for disReach (Section 3)."""

import kernel_reference
import pytest

from repro.core import ReachQuery, dis_reach, local_eval_reach, reachable
from repro.core.bes import TRUE
from repro.core.reachability import ReachPlan, ReachRows, assemble_reach
from repro.distributed import MessageKind, SimulatedCluster, payload_size
from repro.distributed.messages import equation_set_size
from repro.errors import QueryError


class TestLocalEval:
    def test_figure1_equations(self, figure1):
        """Example 3's equation table, verbatim."""
        _, fragmentation, _ = figure1
        query = ReachQuery("Ann", "Mark")
        f1, f2, f3 = fragmentation.fragments
        assert local_eval_reach(f1, query) == {
            "Ann": frozenset({"Pat", "Mat"}),
            "Fred": frozenset({"Emmy"}),
        }
        assert local_eval_reach(f2, query) == {
            "Mat": frozenset({"Fred"}),
            "Jack": frozenset({"Fred"}),
            "Emmy": frozenset({"Fred", "Ross"}),
        }
        assert local_eval_reach(f3, query) == {
            "Ross": frozenset({TRUE}),
            "Pat": frozenset({"Jack"}),
        }

    def test_source_gets_equation_in_home_fragment(self, figure1):
        _, fragmentation, _ = figure1
        equations = local_eval_reach(fragmentation[0], ReachQuery("Walt", "Mark"))
        assert "Walt" in equations

    def test_local_target_becomes_true(self, figure1):
        _, fragmentation, _ = figure1
        # target Emmy lives in F2; F1's Fred reaches the virtual Emmy directly
        equations = local_eval_reach(fragmentation[0], ReachQuery("Ann", "Emmy"))
        assert equations["Fred"] == frozenset({TRUE})

    def test_target_in_node_reaches_itself(self, figure1):
        _, fragmentation, _ = figure1
        # Fred is an in-node of F1 and the target: X_Fred must be true.
        equations = local_eval_reach(fragmentation[0], ReachQuery("Ann", "Fred"))
        assert TRUE in equations["Fred"]

    def test_empty_iset(self):
        from repro.graph import DiGraph
        from repro.partition import build_fragmentation

        g = DiGraph.from_edges([("a", "b")])
        frag = build_fragmentation(g, {"a": 0, "b": 0}, 2)
        assert local_eval_reach(frag[1], ReachQuery("a", "b")) == {}

    def test_no_boundary_no_disjuncts(self):
        from repro.graph import DiGraph
        from repro.partition import build_fragmentation

        g = DiGraph.from_edges([("a", "b")])
        frag = build_fragmentation(g, {"a": 0, "b": 0}, 1)
        # source in fragment, target elsewhere? target also here -> oset={b}
        eqs = local_eval_reach(frag[0], ReachQuery("a", "b"))
        assert eqs["a"] == frozenset({TRUE})


class TestAssemble:
    def test_assemble_true(self, figure1):
        _, fragmentation, _ = figure1
        query = ReachQuery("Ann", "Mark")
        partials = {
            frag.fid: local_eval_reach(frag, query) for frag in fragmentation
        }
        assert assemble_reach(partials, query) is True
        answer, details = ReachPlan(query).assemble(partials, collect_details=True)
        assert answer
        assert details["num_variables"] == len(details["bes"]) == 7
        assert details["num_disjuncts"] == details["bes"].num_disjuncts

    def test_assemble_false(self, figure1):
        _, fragmentation, _ = figure1
        query = ReachQuery("Mark", "Ann")
        partials = {
            frag.fid: local_eval_reach(frag, query) for frag in fragmentation
        }
        assert assemble_reach(partials, query) is False


class TestDisReach:
    def test_figure1_answer(self, figure1):
        _, _, cluster = figure1
        assert dis_reach(cluster, ("Ann", "Mark")).answer is True
        assert dis_reach(cluster, ("Mark", "Ann")).answer is False

    def test_accepts_query_object(self, figure1):
        _, _, cluster = figure1
        assert dis_reach(cluster, ReachQuery("Ann", "Mark")).answer

    def test_source_equals_target(self, figure1):
        _, _, cluster = figure1
        result = dis_reach(cluster, ("Tom", "Tom"))
        assert result.answer
        assert result.details.get("trivial")
        assert result.stats.total_visits == 0

    def test_unknown_endpoint_raises(self, figure1):
        _, _, cluster = figure1
        with pytest.raises(QueryError):
            dis_reach(cluster, ("Ann", "Nobody"))

    def test_each_site_visited_exactly_once(self, figure1):
        _, _, cluster = figure1
        result = dis_reach(cluster, ("Ann", "Mark"))
        assert result.stats.visits_per_site() == {0: 1, 1: 1, 2: 1}

    def test_message_pattern(self, figure1):
        """Example 1's promise: besides the query, only partial-answer
        messages to the coordinator."""
        _, _, cluster = figure1
        result = dis_reach(cluster, ("Ann", "Mark"))
        kinds = [m.kind for m in result.stats.messages]
        assert kinds.count(MessageKind.QUERY) == 3
        assert kinds.count(MessageKind.PARTIAL) == 3
        assert len(kinds) == 6

    def test_details(self, figure1):
        _, _, cluster = figure1
        result = dis_reach(cluster, ("Ann", "Mark"), collect_details=True)
        assert result.details["num_variables"] == 7
        assert 1 in result.details["equations"]

    def test_agrees_with_centralized(self, random_case):
        for seed in range(5):
            graph, cluster = random_case(seed)
            nodes = sorted(graph.nodes())
            for s in nodes[::7]:
                for t in nodes[::5]:
                    expected = reachable(graph, s, t)
                    assert dis_reach(cluster, (s, t)).answer == expected

    def test_single_fragment_cluster(self, diamond):
        cluster = SimulatedCluster.from_graph(diamond, 1)
        assert dis_reach(cluster, ("a", "d")).answer
        assert not dis_reach(cluster, ("d", "a")).answer


class TestPartialAnswerPayload:
    def test_size_scales_with_equations(self, figure1):
        _, fragmentation, _ = figure1
        query = ReachQuery("Ann", "Mark")
        small = local_eval_reach(fragmentation[2], query)
        big = ReachRows.concat([small, local_eval_reach(fragmentation[1], query)])
        assert len(small) < len(big)
        assert payload_size(small) < payload_size(big)
        # The merged rows stay in repr order, so position() finds each one.
        assert list(big.rows) == sorted(big.rows, key=repr)
        assert all(big.position(var) == at for at, var in enumerate(big.rows))
        assert big == {**small, **local_eval_reach(fragmentation[1], query)}
        with pytest.raises(ValueError):
            ReachRows.concat([small, small])

    def test_dense_rows_capped_by_bitset(self):
        np = pytest.importorskip("numpy")
        # one row holding 800 columns at ids 1..800: 13 words
        col_ids = np.arange(1, 801, dtype=np.int64)
        bits = np.zeros((1, 13), dtype=np.uint64)
        for i in col_ids.tolist():
            bits[0, i >> 6] |= np.uint64(1) << np.uint64(i & 63)
        dense = ReachRows(
            ("a",),
            np.array([801]),
            bits,
            tuple(range(800)),
            col_ids,
            1,
            np.full(800, 8, dtype=np.int64),
        )
        # header 2 + row id 1 + column table 800*8 + bitset row ceil(800/8)
        assert payload_size(dense) == 2 + 1 + 800 * 8 + 100
        assert dense.num_entries == 800

    def test_plain_mapping_is_converted_once(self, figure1):
        # The reach partial is its own wire type, and its equations are
        # decoded from the bit matrix once.
        _, fragmentation, _ = figure1
        rows = local_eval_reach(fragmentation[0], ReachQuery("Ann", "Mark"))
        assert ReachPlan(("Ann", "Mark")).wrap_partial(rows) is rows
        assert rows["Ann"] is rows["Ann"] == frozenset({"Pat", "Mat"})

    @pytest.mark.parametrize("kernel", ["python", "numpy"])
    def test_arithmetic_size_matches_the_equation_set_model(self, random_case, kernel):
        pytest.importorskip("numpy")
        # "python" sizes the pure-python reference's rows, "numpy" the kernel's.
        local_eval = {
            "python": kernel_reference.local_eval_reach,
            "numpy": local_eval_reach,
        }[kernel]
        for seed in range(3):
            graph, cluster = random_case(seed)
            nodes = sorted(graph.nodes())
            for s, t in [(nodes[0], nodes[-1]), (nodes[3], nodes[1])]:
                parts = [
                    local_eval(fragment, ReachQuery(s, t))
                    for fragment in cluster.fragmentation
                ]
                # one fragment each, then a site shipping all of them (the
                # reference's site: its parts' equations in one mapping)
                if kernel == "python":
                    merged = {var: eqs for part in parts for var, eqs in part.items()}
                else:
                    merged = ReachRows.concat(parts)
                for rows in (*parts, merged):
                    plain = {var: frozenset(d) for var, d in rows.items()}
                    columns = set().union(*plain.values())
                    expected = equation_set_size(
                        plain.keys(), columns, map(len, plain.values()), len(columns)
                    )
                    if kernel == "numpy":
                        assert payload_size(rows) == expected
                    assert kernel_reference.boolean_size(plain) == expected
