"""Unit tests for the Boolean Equation System solvers (evalDG) and the
:class:`~repro.core.bes.BitRows` partial answers they load by reference."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.suciu import assemble_accessibility, dis_rpq_d, site_accessibility
from repro.core import TRUE, BooleanEquationSystem
from repro.core.bes import BitRows
from repro.core.queries import RegularReachQuery
from repro.distributed.messages import payload_size


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
# BitRows: the shared-set wire form of a fragment's equations
# ---------------------------------------------------------------------------
#: Rows x and y share one set; z has its own; w has none.
PLAIN = {
    "x": frozenset({"a", TRUE}),
    "y": frozenset({"a", TRUE}),
    "z": frozenset({"b"}),
    "w": frozenset(),
}


def _rows():
    # columns a, TRUE, b; masks 0b011, 0b011, 0b100, 0
    return BitRows.from_masks(("x", "y", "z", "w"), ("a", TRUE, "b"), [3, 3, 4, 0])


class TestBitRows:
    def test_equals_its_dict_form_both_ways(self):
        rows = _rows()
        assert rows == PLAIN and PLAIN == rows
        assert dict(rows) == PLAIN
        assert rows != {**PLAIN, "w": frozenset({"a"})}

    def test_masks_deduplicated_by_value(self):
        rows = _rows()
        assert rows.num_sets == 3
        assert list(rows.row_set) == [0, 0, 1, 2]
        assert rows["x"] is rows["y"]  # one shared frozenset per set
        assert rows.num_entries() == 5

    def test_id_sizes_default_to_payload_size(self):
        rows = _rows()
        assert rows.row_bytes == sum(map(payload_size, "xyzw"))
        assert list(rows.col_bytes) == [1, 1, 1]
        explicit = BitRows.from_masks(("x",), ("a",), [1], 40, [7])
        assert (explicit.row_bytes, list(explicit.col_bytes)) == (40, [7])

    def test_pickle_round_trip(self):
        rows = _rows()
        back = pickle.loads(pickle.dumps(rows))
        assert back == rows == PLAIN
        for field in ("rows", "columns", "row_set", "starts", "cols", "row_bytes", "col_bytes"):
            assert getattr(back, field) == getattr(rows, field)
        assert back.columns[1] is TRUE

    def test_pickle_ships_no_decode_cache(self):
        rows = _rows()
        before = len(pickle.dumps(rows))
        bes = BooleanEquationSystem()
        bes.update(rows)
        assert bes.solve_reachability("x")
        dict(rows)  # fills the frozenset cache too
        assert len(pickle.dumps(rows)) == before

    def test_immutable(self):
        rows = _rows()
        with pytest.raises(AttributeError):
            rows.rows = ()
        with pytest.raises(AttributeError):
            rows.extra = 1
        with pytest.raises(TypeError):
            rows["x"] = frozenset()

    def test_empty(self):
        none = BitRows.from_masks((), (), [])
        assert none == {} and len(none) == 0 and none.num_sets == 0
        bare = BitRows.from_masks(("x", "y"), (), [0, 0])
        assert bare == {"x": frozenset(), "y": frozenset()}
        assert bare.num_sets == 1

    def test_inconsistent_buffers_rejected(self):
        with pytest.raises(ValueError):
            BitRows(("x",), ("a",), [0, 0], [0, 1], [0])
        with pytest.raises(ValueError):
            BitRows(("x",), ("a",), [0], [0, 2], [0])

    def test_from_mapping(self):
        rows = BitRows.from_mapping(PLAIN)
        assert rows == PLAIN
        assert BitRows.from_mapping(rows) is rows

    def test_concat_retables_overlapping_columns(self):
        first = _rows()
        second = BitRows.from_masks(("u", "v"), ("b", "c", TRUE), [0b101, 0b010])
        merged = BitRows.concat([first, second])
        assert merged == {**PLAIN, "u": frozenset({"b", TRUE}), "v": frozenset({"c"})}
        assert merged.columns == ("a", TRUE, "b", "c")
        assert merged.row_bytes == first.row_bytes + second.row_bytes
        assert list(merged.col_bytes) == [1, 1, 1, 1]
        assert BitRows.concat([]) == {}

    def test_concat_rejects_a_duplicated_row(self):
        with pytest.raises(ValueError):
            BitRows.concat([_rows(), BitRows.from_masks(("z",), ("q",), [1])])


class TestRowBackedSolver:
    def test_update_loads_by_reference(self):
        bes = BooleanEquationSystem()
        bes.update(_rows())
        assert len(bes) == 4 and "w" in bes
        assert bes.disjuncts_of("x") == {"a", TRUE}
        assert bes.num_disjuncts == 5
        assert bes.solve_reachability("x") and not bes.solve_reachability("z")

    def test_decoded_sets_are_cached_on_the_rows(self):
        rows = _rows()
        first = rows.disjuncts(0)
        assert rows.disjuncts(0) is first and set(first) == {"a", TRUE}

    def test_num_disjuncts_exact_across_mixed_definitions(self):
        bes = BooleanEquationSystem()
        bes.add_equation("x", {"q"})  # x defined before the rows load
        bes.update(_rows())  # x's row unions into {q, a, TRUE}
        bes.update({"z": {"b", "c"}})  # z row-backed, then redefined
        bes.add_equation("fresh", set())
        bes.update(BitRows.from_masks(("y2",), ("a",), [1]))
        expected = sum(len(bes.disjuncts_of(var)) for var in bes.variables())
        assert bes.num_disjuncts == expected == 3 + 2 + 2 + 0 + 0 + 1
        assert bes.disjuncts_of("x") == {"q", "a", TRUE}
        assert len(bes) == 6

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

    def test_solvers_materialize_rows(self, paper_system):
        rows = BitRows.from_mapping(
            {var: paper_system.disjuncts_of(var) for var in paper_system.variables()}
        )
        bes = BooleanEquationSystem()
        bes.update(rows)
        assert bes.solve_all() == paper_system.solve_all()
        assert bes.solve_fixpoint() == paper_system.solve_fixpoint()
        gd = bes.dependency_graph()
        assert gd.has_edge("Ross", TRUE) and gd.has_edge("Ann", "Mat")


_VARS = st.integers(0, 7)


@st.composite
def split_systems(draw):
    """A random disjunctive system, split into row-backed parts and plain
    equations (some variables defined in both)."""
    equations = draw(
        st.dictionaries(
            _VARS,
            st.frozensets(st.one_of(_VARS, st.just(TRUE)), max_size=4),
            max_size=8,
        )
    )
    cut = draw(st.integers(0, len(equations)))
    items = list(equations.items())
    extra = draw(
        st.dictionaries(
            _VARS, st.frozensets(st.one_of(_VARS, st.just(TRUE)), max_size=3), max_size=3
        )
    )
    return items[:cut], items[cut:], extra


class TestRowBackedSolverProperties:
    @given(split_systems(), _VARS)
    @settings(max_examples=150, deadline=None)
    def test_row_backed_solve_matches_dict_backed(self, parts, start):
        loaded, plain, extra = parts
        rows = BitRows.from_mapping(dict(loaded))
        row_backed = BooleanEquationSystem()
        row_backed.update(rows)
        row_backed.update(dict(plain))
        row_backed.update(extra)
        dict_backed = BooleanEquationSystem()
        for var, disjuncts in loaded + plain:
            dict_backed.add_equation(var, disjuncts)
        dict_backed.update(extra)
        assert row_backed.solve_reachability(start) == dict_backed.solve_reachability(start)
        fixpoint = dict_backed.solve_fixpoint()
        assert row_backed.solve_fixpoint() == fixpoint == row_backed.solve_all()
        if start in fixpoint:
            assert row_backed.solve_reachability(start) == fixpoint[start]
        assert row_backed.num_disjuncts == dict_backed.num_disjuncts
        assert len(row_backed) == len(dict_backed)
