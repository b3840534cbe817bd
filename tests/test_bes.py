"""Unit tests for the Boolean Equation System solvers (evalDG), and for
disRPQ's :class:`~repro.core.regular.RegularRows` partial answers, which
decode into the system and are solved over pair ids by
:func:`~repro.core.regular.assemble_regular`."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.suciu import assemble_accessibility, dis_rpq_d, site_accessibility
from repro.core import TRUE, BooleanEquationSystem
from repro.automata import US, QueryAutomaton
from repro.core.queries import RegularReachQuery
from repro.core.regular import RegularRows, assemble_regular, local_eval_regular
from repro.distributed.messages import payload_size
from repro.graph import DiGraph, erdos_renyi
from repro.partition import build_fragmentation, random_partition


@pytest.fixture
def paper_system():
    """The BES of Example 3 / Fig. 5(a)."""
    bes = BooleanEquationSystem()
    bes.add_equation("Ann", {"Pat", "Mat"})
    bes.add_equation("Fred", {"Emmy"})
    bes.add_equation("Mat", {"Fred"})
    bes.add_equation("Jack", {"Fred"})
    bes.add_equation("Emmy", {"Fred", "Ross"})
    bes.add_equation("Ross", {TRUE})
    bes.add_equation("Pat", {"Jack"})
    return bes


class TestConstruction:
    def test_redefinition_unions(self):
        bes = BooleanEquationSystem()
        bes.add_equation("x", {"a"})
        bes.add_equation("x", {"b"})
        assert bes.disjuncts_of("x") == {"a", "b"}

    def test_update_from_mapping(self):
        bes = BooleanEquationSystem()
        bes.update({"x": {"y"}, "y": {TRUE}})
        assert len(bes) == 2
        assert bes.num_disjuncts == 2

    def test_contains_and_variables(self, paper_system):
        assert "Ann" in paper_system
        assert "nope" not in paper_system
        assert set(paper_system.variables()) == {
            "Ann", "Fred", "Mat", "Jack", "Emmy", "Ross", "Pat"
        }

    def test_true_is_singleton(self):
        from repro.core.bes import _TrueToken

        assert _TrueToken() is TRUE

    def test_true_does_not_collide_with_int_one(self):
        bes = BooleanEquationSystem()
        bes.add_equation("x", {1})  # variable named 1, NOT true
        assert not bes.solve_reachability("x")


class TestDependencyGraphSolver:
    def test_paper_example4(self, paper_system):
        """Example 4: XAnn reaches Xtrue — the answer is true."""
        assert paper_system.solve_reachability("Ann")

    def test_recursive_definitions(self, paper_system):
        # xFred is defined indirectly in terms of itself (the paper notes
        # this); the cycle must not prevent or fabricate an answer.
        assert paper_system.solve_reachability("Fred")

    def test_no_true_equation_is_false(self):
        bes = BooleanEquationSystem()
        bes.add_equation("x", {"y"})
        bes.add_equation("y", {"x"})
        assert not bes.solve_reachability("x")

    def test_undefined_variable_is_false(self):
        bes = BooleanEquationSystem()
        bes.add_equation("x", {"ghost"})
        assert not bes.solve_reachability("x")
        assert not bes.solve_reachability("never-mentioned")

    def test_true_start(self, paper_system):
        assert paper_system.solve_reachability(TRUE)

    def test_empty_disjuncts_false(self):
        bes = BooleanEquationSystem()
        bes.add_equation("x", set())
        assert not bes.solve_reachability("x")

    def test_self_loop_is_not_true(self):
        bes = BooleanEquationSystem()
        bes.add_equation("x", {"x"})
        assert not bes.solve_reachability("x")


class TestSolveAll:
    def test_matches_paper(self, paper_system):
        values = paper_system.solve_all()
        assert values == {
            "Ann": True, "Fred": True, "Mat": True, "Jack": True,
            "Emmy": True, "Ross": True, "Pat": True,
        }

    def test_mixed_values(self):
        bes = BooleanEquationSystem()
        bes.add_equation("t", {TRUE})
        bes.add_equation("a", {"t"})
        bes.add_equation("dead", {"deader"})
        bes.add_equation("deader", set())
        values = bes.solve_all()
        assert values["a"] and values["t"]
        assert not values["dead"] and not values["deader"]


class TestFixpointOracle:
    def test_agrees_with_solve_all(self, paper_system):
        assert paper_system.solve_fixpoint() == paper_system.solve_all()

    def test_agrees_on_cycles(self):
        bes = BooleanEquationSystem()
        bes.add_equation("a", {"b"})
        bes.add_equation("b", {"a", "c"})
        bes.add_equation("c", set())
        assert bes.solve_fixpoint() == bes.solve_all()


class TestDependencyGraph:
    def test_paper_figure5a_shape(self, paper_system):
        gd = paper_system.dependency_graph()
        assert gd.has_edge("Ann", "Mat")
        assert gd.has_edge("Ross", TRUE)
        assert gd.has_node(TRUE)

    def test_edges_to_undefined_vars_exist(self):
        bes = BooleanEquationSystem()
        bes.add_equation("x", {"ghost"})
        gd = bes.dependency_graph()
        assert gd.has_edge("x", "ghost")


# ---------------------------------------------------------------------------
# RegularRows: disRPQ's pair-id matrix, decoded into the system
# ---------------------------------------------------------------------------
def _fragmentation():
    """F0 = {s, a, b}, F1 = {c, t}, F2 = {d}; a, b, c, d are labeled A.

    With ``A*`` (states US, position 0, UT): F0's rows are (a, 0) and the
    local source's (s, US), both holding (c, 0) — one shared pattern; F1's
    row (c, 0) holds (a, 0), (d, 0) and TRUE; F2's row (d, 0) holds (c, 0)
    too, so F0 and F2 share that column.
    """
    edges = [("s", "a"), ("a", "b"), ("b", "c"), ("a", "c"), ("c", "t"),
             ("c", "a"), ("c", "d"), ("d", "c")]
    labels = {"s": "X", "t": "X", "a": "A", "b": "A", "c": "A", "d": "A"}
    graph = DiGraph.from_edges(edges, labels=labels)
    assignment = {"s": 0, "a": 0, "b": 0, "c": 1, "t": 1, "d": 2}
    return build_fragmentation(graph, assignment, 3)


AUTOMATON = QueryAutomaton.build("A*", "s", "t")

#: F0's equations: (s, US) and (a, 0) share one set.
PLAIN = {
    ("a", 0): frozenset({("c", 0)}),
    ("s", US): frozenset({("c", 0)}),
}


def _rows(fid=0):
    return local_eval_regular(_fragmentation()[fid], AUTOMATON)


class TestBitRows:
    """disRPQ's partial, :class:`RegularRows` (the ids of the former
    shared-set rows it replaced)."""

    def test_equals_its_dict_form_both_ways(self):
        rows = _rows()
        assert rows == PLAIN and PLAIN == rows
        assert dict(rows) == PLAIN
        assert rows != {**PLAIN, ("a", 0): frozenset()}

    def test_id_sizes_default_to_payload_size(self):
        rows = _rows(1)
        assert rows.row_bytes == sum(map(payload_size, rows.rows))
        assert rows.col_bytes.tolist() == [payload_size(column) for column in rows.columns]
        assert rows.col_bytes[rows.columns.index(TRUE)] == 1

    def test_pickle_round_trip(self):
        rows = _rows(1)
        back = pickle.loads(pickle.dumps(rows))
        assert back == rows == {("c", 0): frozenset({("a", 0), ("d", 0), TRUE})}
        for field in ("row_ids", "bits", "col_ids", "col_bytes", "node_ids"):
            assert getattr(back, field).tolist() == getattr(rows, field).tolist()
        assert (back.row_bytes, back.size, back.num_entries) == (
            rows.row_bytes, rows.size, rows.num_entries
        )
        assert TRUE in back.columns and back.columns[back.col_ids.tolist().index(0)] is TRUE

    def test_pickle_ships_no_decode_cache(self):
        rows = _rows()
        before = len(pickle.dumps(rows))
        assert assemble_regular({0: rows, 1: _rows(1)}, AUTOMATON)
        dict(rows)  # fills the pair and frozenset caches too
        assert len(pickle.dumps(rows)) == before

    def test_immutable(self):
        rows = _rows()
        with pytest.raises(AttributeError):
            rows.bits = None
        with pytest.raises(AttributeError):
            rows.extra = 1
        with pytest.raises(TypeError):
            rows[("a", 0)] = frozenset()

    def test_empty(self):
        graph = DiGraph.from_edges([("a", "b"), ("b", "c")], labels=dict.fromkeys("abc", "A"))
        fragmentation = build_fragmentation(graph, {"a": 0, "b": 1, "c": 1}, 3)
        automaton = QueryAutomaton.build("A*", "a", "c")
        none = local_eval_regular(fragmentation[2], automaton)
        assert none == {} and len(none) == 0 and none.bits.shape == (0, 1)
        bare = local_eval_regular(fragmentation[1], QueryAutomaton.build("A*", "a", "a"))
        assert bare == {("b", 0): frozenset()} and len(bare.col_ids) == 0

    def test_inconsistent_buffers_rejected(self):
        rows = _rows()
        args = [None, rows.row_ids, rows.bits, None, rows.col_ids, rows.row_bytes,
                rows.col_bytes, rows.num_states, rows.nodes, rows.node_ids]
        RegularRows(*args)  # consistent
        for at, value in ((1, rows.row_ids[:1]), (6, rows.col_bytes[:0]),
                          (2, rows.bits.repeat(2, axis=1)), (9, rows.node_ids[:1])):
            with pytest.raises(ValueError):
                RegularRows(*args[:at], value, *args[at + 1 :])

    def test_concat_retables_overlapping_columns(self):
        first, second = _rows(0), _rows(2)
        merged = RegularRows.concat([first, second])
        assert merged == {**PLAIN, ("d", 0): frozenset({("c", 0)})}
        # (c, 0) is one column, shared by id; rows in node, then state order.
        assert merged.columns == (("c", 0),)
        assert merged.rows == (("a", 0), ("d", 0), ("s", US))
        assert merged.row_bytes == first.row_bytes + second.row_bytes
        assert merged.col_bytes.tolist() == [payload_size(("c", 0))]
        assert merged.position(("d", 0)) == 1 and merged.position(("d", US)) == -1

    def test_concat_rejects_a_duplicated_row(self):
        with pytest.raises(ValueError):
            RegularRows.concat([_rows(), _rows()])


class TestRowBackedSolver:
    """The dict-form system built from decoded partials, against the
    id-space closure."""

    def test_update_loads_by_reference(self):
        # A partial decodes into the system, disjunct for disjunct.
        rows = _rows()
        bes = BooleanEquationSystem()
        bes.update(rows)
        assert len(bes) == len(rows) == 2 and ("a", 0) in bes
        assert bes.disjuncts_of(("s", US)) == {("c", 0)}
        assert bes.num_disjuncts == rows.num_entries == 2
        assert not bes.solve_reachability(("s", US))  # (c, 0) is defined elsewhere

    def test_decoded_sets_are_cached_on_the_rows(self):
        rows = _rows()
        first = rows[("a", 0)]
        assert rows[("a", 0)] is first and first == {("c", 0)}
        assert rows.rows is rows.rows

    def test_num_disjuncts_exact_across_mixed_definitions(self):
        bes = BooleanEquationSystem()
        bes.add_equation(("a", 0), {"q"})  # (a, 0) defined before the rows load
        bes.update(_rows())  # its row unions into {q, (c, 0)}
        bes.update({"z": {"b", "c"}})
        bes.add_equation("z", {"c", "e"})  # redefined
        bes.add_equation("fresh", set())
        bes.update(_rows(1))
        expected = sum(len(bes.disjuncts_of(var)) for var in bes.variables())
        assert bes.num_disjuncts == expected == 2 + 1 + 3 + 0 + 3
        assert bes.disjuncts_of(("a", 0)) == {"q", ("c", 0)}
        assert len(bes) == 5

    def test_suciu_add_equation_path_counts_exactly(self, figure1):
        # The [30] baseline assembles through add_equation alone.
        _, _, cluster = figure1
        query = RegularReachQuery("Ann", "Mark", "DB* | HR*")
        result = dis_rpq_d(cluster, query)
        automaton = query.automaton()
        relations = {}
        for site in cluster.sites:
            relations.update(site_accessibility(tuple(site.fragments), automaton))
        _, bes = assemble_accessibility(relations, automaton)
        assert bes.num_disjuncts == result.details["num_disjuncts"] > 0
        assert bes.num_disjuncts == sum(
            len(bes.disjuncts_of(var)) for var in bes.variables()
        )

    def test_solvers_materialize_rows(self):
        partials = {f.fid: local_eval_regular(f, AUTOMATON) for f in _fragmentation()}
        bes = BooleanEquationSystem()
        for rows in partials.values():
            bes.update(rows)
        solved = bes.solve_all()
        assert solved == bes.solve_fixpoint()
        assert solved[("s", US)] is True is assemble_regular(partials, AUTOMATON)
        gd = bes.dependency_graph()
        assert gd.has_edge(("c", 0), TRUE) and gd.has_edge(("s", US), ("c", 0))


#: Regexes over the graphs' labels L0-L2: a wildcard, a nullable one, stars.
_REGEXES = (".*", "L0 (L1 | L2)*", "(L0 | .)* L1", "L1? L2*", "L0 . L1*", "(L2 L0)*")


@st.composite
def split_systems(draw):
    """A random labeled graph in 1-4 fragments and one regular query on it."""
    num_nodes = draw(st.integers(4, 16))
    seed = draw(st.integers(0, 10_000))
    graph = erdos_renyi(num_nodes, draw(st.integers(0, 3 * num_nodes)), seed=seed, num_labels=3)
    k = draw(st.integers(1, 4))
    fragmentation = build_fragmentation(graph, random_partition(graph, k, seed=seed), k)
    nodes = sorted(graph.nodes(), key=repr)
    s, t = draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes))
    return fragmentation, QueryAutomaton.build(draw(st.sampled_from(_REGEXES)), s, t)


class TestRowBackedSolverProperties:
    @given(split_systems())
    @settings(max_examples=150, deadline=None)
    def test_row_backed_solve_matches_dict_backed(self, case):
        # The id-space closure over the partials agrees with every solver of
        # the dict-form system their decoded equations build.
        fragmentation, automaton = case
        partials = {f.fid: local_eval_regular(f, automaton) for f in fragmentation}
        bes = BooleanEquationSystem()
        for rows in partials.values():
            bes.update(dict(rows))
        start = (automaton.source, US)
        answer = assemble_regular(partials, automaton)
        assert answer == bes.solve_reachability(start) == bes.solve_fixpoint().get(start, False)
        assert bes.solve_fixpoint() == bes.solve_all()
        assert bes.num_disjuncts == sum(rows.num_entries for rows in partials.values())
        assert len(bes) == sum(map(len, partials.values()))
