"""Unit tests for the min-plus equation system (evalDGd)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TARGET, MinPlusSystem
from repro.core.minplus import BoundedRows


@pytest.fixture
def paper_system():
    """The weighted dependency graph of Example 5 / Fig. 5(b)."""
    mps = MinPlusSystem()
    mps.add_equation("Ann", [("Pat", 2.0), ("Mat", 2.0)])
    mps.add_equation("Fred", [("Emmy", 1.0)])
    mps.add_equation("Mat", [("Fred", 1.0)])
    mps.add_equation("Jack", [("Fred", 3.0)])
    mps.add_equation("Emmy", [("Fred", 3.0), ("Ross", 1.0)])
    mps.add_equation("Ross", [(TARGET, 1.0)])
    mps.add_equation("Pat", [("Jack", 1.0)])
    return mps


class TestConstruction:
    def test_min_merge_on_duplicates(self):
        mps = MinPlusSystem()
        mps.add_equation("x", [("y", 5.0)])
        mps.add_equation("x", [("y", 3.0)])
        mps.add_equation("x", [("y", 7.0)])
        assert mps.terms_of("x") == {"y": 3.0}

    def test_rejects_negative(self):
        mps = MinPlusSystem()
        with pytest.raises(ValueError):
            mps.add_equation("x", [("y", -1.0)])

    def test_views(self, paper_system):
        assert len(paper_system) == 7
        assert paper_system.num_terms == 9
        assert "Ann" in paper_system
        assert "zzz" not in paper_system


class TestDijkstraSolver:
    def test_paper_example5(self, paper_system):
        """dist(Ann, Mark) = 6 — the Example 5 answer."""
        assert paper_system.solve_distance("Ann") == pytest.approx(6.0)

    def test_bound_respected_by_cutoff(self, paper_system):
        assert paper_system.solve_distance("Ann", cutoff=6.0) == pytest.approx(6.0)
        assert paper_system.solve_distance("Ann", cutoff=5.0) is None

    def test_unreachable_target(self):
        mps = MinPlusSystem()
        mps.add_equation("x", [("y", 1.0)])
        assert mps.solve_distance("x") is None

    def test_source_is_target(self):
        mps = MinPlusSystem()
        assert mps.solve_distance(TARGET) == 0.0

    def test_takes_shortest_of_alternatives(self):
        mps = MinPlusSystem()
        mps.add_equation("s", [("a", 1.0), (TARGET, 10.0)])
        mps.add_equation("a", [(TARGET, 2.0)])
        assert mps.solve_distance("s") == pytest.approx(3.0)

    def test_cycle_does_not_loop(self):
        mps = MinPlusSystem()
        mps.add_equation("a", [("b", 1.0)])
        mps.add_equation("b", [("a", 1.0), (TARGET, 5.0)])
        assert mps.solve_distance("a") == pytest.approx(6.0)


class TestBellmanFordOracle:
    def test_agrees_on_paper_system(self, paper_system):
        assert paper_system.solve_bellman_ford("Ann") == pytest.approx(6.0)

    def test_agrees_on_unreachable(self):
        mps = MinPlusSystem()
        mps.add_equation("x", [("y", 1.0)])
        assert mps.solve_bellman_ford("x") is None


class TestWeightedDependencyGraph:
    def test_figure5b_shape(self, paper_system):
        gd, weights = paper_system.weighted_dependency_graph()
        assert gd.has_edge("Ann", "Mat")
        assert weights[("Ann", "Mat")] == 2.0
        assert gd.has_edge("Ross", TARGET)
        assert weights[("Ross", TARGET)] == 1.0


def _rows():
    """Two rows over three columns; ``c`` is referenced by both."""
    return BoundedRows.from_lists(
        ["u", "v", "w"], ["a", TARGET, "c"], [[(0, 1), (2, 3)], [], [(2, 0), (1, 2)]]
    )


class TestBoundedRows:
    def test_equals_its_dict_form_both_ways(self):
        rows = _rows()
        expected = {
            "u": (("a", 1.0), ("c", 3.0)),
            "v": (),
            "w": (("c", 0.0), (TARGET, 2.0)),
        }
        assert rows == expected
        assert expected == rows
        assert dict(rows) == expected
        assert rows["w"] == (("c", 0.0), (TARGET, 2.0))
        assert all(isinstance(d, float) for _, d in rows["u"])
        assert list(rows) == ["u", "v", "w"] and len(rows) == 3
        assert rows != {"u": (("a", 1.0),)}

    def test_pickle_round_trip(self):
        import pickle

        rows = _rows()
        back = pickle.loads(pickle.dumps(rows))
        assert back == rows
        assert (back.rows, back.columns) == (rows.rows, rows.columns)
        assert (back.starts, back.cols, back.dists) == (rows.starts, rows.cols, rows.dists)
        assert back["w"][1][0] is TARGET

    def test_empty(self):
        none = BoundedRows.from_lists([], [], [])
        assert none == {} and len(none) == 0
        bare = BoundedRows.from_lists(["x", "y"], [], [[], []])
        assert bare == {"x": (), "y": ()}

    def test_immutable(self):
        rows = _rows()
        with pytest.raises(AttributeError):
            rows.rows = ()

    def test_buffers_must_agree(self):
        with pytest.raises(ValueError):
            BoundedRows(["x"], ["a"], [0], [0], [1])

    def test_concat_retables_overlapping_columns(self):
        first = _rows()
        second = BoundedRows.from_lists(["x"], ["c", "d", "a"], [[(0, 4), (1, 1), (2, 2)]])
        merged = BoundedRows.concat([first, second])
        assert merged == {**dict(first), **dict(second)}
        assert merged.columns == ("a", TARGET, "c", "d")
        with pytest.raises(ValueError):
            BoundedRows.concat([first, first])


class TestRowBackedSystem:
    def test_loads_by_reference(self):
        mps = MinPlusSystem()
        mps.update(_rows())
        assert len(mps) == 3 and mps.num_terms == 4
        assert "u" in mps and "zzz" not in mps
        assert mps.terms_of("w") == {"c": 0.0, TARGET: 2.0}
        assert set(mps.variables()) == {"u", "v", "w"}
        gd, weights = mps.weighted_dependency_graph()
        assert gd.has_edge("u", "c") and weights[("w", TARGET)] == 2.0
        assert mps.solve_distance("u") is None
        mps.add_equation("c", [(TARGET, 1.0)])
        assert mps.solve_distance("u") == pytest.approx(4.0)
        assert mps.solve_bellman_ford("u") == pytest.approx(4.0)

    def test_variable_defined_twice_min_merges(self):
        mps = MinPlusSystem()
        mps.update(_rows())
        mps.update(BoundedRows.from_lists(["u"], ["c", "e"], [[(0, 1), (1, 5)]]))
        assert mps.terms_of("u") == {"a": 1.0, "c": 1.0, "e": 5.0}
        assert len(mps) == 3 and mps.num_terms == 5
        mps.add_equation("w", [("c", 7.0)])
        assert mps.terms_of("w") == {"c": 0.0, TARGET: 2.0}
        assert mps.num_terms == 5

    def test_rejects_negative_distance_at_load(self):
        mps = MinPlusSystem()
        for negative in (-1, -256, -(2**40)):
            with pytest.raises(ValueError):
                mps.update(BoundedRows(["x"], ["y"], [0, 1], [0], [negative]))
        assert len(mps) == 0
        # Low bytes with the high bit set are not a sign.
        mps.update(BoundedRows(["x"], ["y"], [0, 1], [0], [200]))
        assert mps.terms_of("x") == {"y": 200.0}


@st.composite
def _matrices(draw):
    """Bounded partials of a few fragments over shared variables."""
    names = [f"v{i}" for i in range(draw(st.integers(2, 7)))]
    variables = names + [TARGET]
    parts, defined = [], set()
    for _ in range(draw(st.integers(1, 3))):
        rows = [v for v in names if v not in defined and draw(st.booleans())]
        defined.update(rows)
        columns = draw(st.permutations(variables))[: draw(st.integers(0, len(variables)))]
        terms = [
            sorted(
                draw(
                    st.dictionaries(
                        st.integers(0, max(0, len(columns) - 1)),
                        st.integers(0, 4),
                        max_size=len(columns),
                    )
                ).items()
            )
            if columns
            else []
            for _ in rows
        ]
        parts.append(BoundedRows.from_lists(rows, columns, terms))
    return names, parts


class TestRowBackedSolverProperties:
    @settings(max_examples=150, deadline=None)
    @given(_matrices(), st.one_of(st.none(), st.integers(0, 8)))
    def test_row_backed_equals_dict_backed_and_bellman_ford(self, drawn, cutoff):
        names, parts = drawn
        rows_backed, dict_backed = MinPlusSystem(), MinPlusSystem()
        for part in parts:
            rows_backed.update(part)
            dict_backed.update(dict(part))
        assert len(rows_backed) == len(dict_backed)
        assert rows_backed.num_terms == dict_backed.num_terms
        bound = None if cutoff is None else float(cutoff)
        for source in names:
            expected = dict_backed.solve_distance(source, cutoff=bound)
            assert rows_backed.solve_distance(source, cutoff=bound) == expected
            if cutoff is None:
                assert rows_backed.solve_bellman_ford(source) == expected
