"""Unit tests for the min-plus equation system (evalDGd)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.core import TARGET, MinPlusSystem  # noqa: E402
from repro.core.bounded import HopRows, assemble_bounded  # noqa: E402
from repro.core.queries import BoundedReachQuery  # noqa: E402
from repro.distributed.messages import payload_size  # noqa: E402
from repro.net.framing import HEADER_BYTES, decode_payload, encode_frame  # noqa: E402
from repro.partition.fragment import TRUE_ID  # noqa: E402

import kernel_reference  # noqa: E402


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


#: The ``Vf`` ids of the variables below (``TARGET`` at ``TRUE_ID``).
IDS = {TARGET: TRUE_ID, **{name: i for i, name in enumerate("uvwacdex", 1)}}


def _hop_rows(rows, columns, terms, bound=9):
    """A :class:`HopRows` over named variables; ``terms[i]`` maps row
    ``i``'s column indices to hops."""
    hops = np.full((len(rows), len(columns)), bound + 1, np.min_scalar_type(bound + 1))
    for i, row in enumerate(terms):
        for j, step in row.items():
            hops[i, j] = step
    return HopRows(
        rows,
        np.array([IDS[var] for var in rows], dtype=np.int64),
        hops,
        columns,
        np.array([IDS[var] for var in columns], dtype=np.int64),
        sum(map(payload_size, rows)),
        np.array([payload_size(var) for var in columns], dtype=np.int64),
        bound,
    )


def _rows():
    """Three rows over three columns; ``c`` is referenced by two."""
    return _hop_rows(["u", "v", "w"], ["a", TARGET, "c"], [{0: 1, 2: 3}, {}, {2: 0, 1: 2}])


class TestBoundedRows:
    """The id-space hop matrix a site ships (:class:`HopRows`)."""

    def test_equals_its_dict_form_both_ways(self):
        rows = _rows()
        expected = {
            "u": (("a", 1.0), ("c", 3.0)),
            "v": (),
            "w": ((TARGET, 2.0), ("c", 0.0)),
        }
        assert rows == expected
        assert expected == rows
        assert dict(rows) == expected
        assert rows["w"] == ((TARGET, 2.0), ("c", 0.0))
        assert all(isinstance(d, float) for _, d in rows["u"])
        assert list(rows) == ["u", "v", "w"] and len(rows) == 3
        assert rows != {"u": (("a", 1.0),)}
        assert rows.num_terms == 4
        assert rows.payload_size() == kernel_reference.bounded_size(expected)

    def test_pickle_round_trip(self):
        import pickle

        rows = _rows()
        for back in (
            pickle.loads(pickle.dumps(rows)),
            decode_payload(encode_frame(rows)[HEADER_BYTES:]),
        ):
            assert back == rows
            assert (back.rows, back.columns, back.bound) == (rows.rows, rows.columns, rows.bound)
            assert back.hops.dtype == rows.hops.dtype == np.uint8
            assert back.hops.tolist() == rows.hops.tolist()
            assert (back.size, back.num_terms) == (rows.size, rows.num_terms)
            assert back["w"][0][0] is TARGET

    def test_empty(self):
        none = _hop_rows([], [], [])
        assert none == {} and len(none) == 0 and none.payload_size() == 2
        bare = _hop_rows(["x", "u"], [], [{}, {}])
        assert bare == {"x": (), "u": ()}
        assert bare.payload_size() == 2 + 2 and bare.num_terms == 0

    def test_immutable(self):
        rows = _rows()
        with pytest.raises(AttributeError):
            rows.rows = ()

    def test_buffers_must_agree(self):
        rows = _rows()
        with pytest.raises(ValueError):
            HopRows(["x"], rows.row_ids[:1], rows.hops, rows.columns, rows.col_ids,
                    1, rows.col_bytes, rows.bound)
        with pytest.raises(ValueError):
            HopRows(rows.rows, rows.row_ids, rows.hops, rows.columns, rows.col_ids[:2],
                    rows.row_bytes, rows.col_bytes, rows.bound)

    def test_concat_retables_overlapping_columns(self):
        first = _rows()
        second = _hop_rows(["x"], ["c", "d", "a"], [{0: 4, 1: 1, 2: 2}])
        merged = HopRows.concat([first, second])
        as_sets = {var: set(terms) for var, terms in {**first, **second}.items()}
        assert {var: set(terms) for var, terms in merged.items()} == as_sets
        # One column per id, in id order; each part's other columns no term.
        assert merged.columns == (TARGET, "a", "c", "d")
        assert merged.col_ids.tolist() == [0, 4, 5, 6]
        assert merged.hops[0, 3] == merged.bound + 1
        assert merged.payload_size() == kernel_reference.bounded_size(merged)
        assert merged.num_terms == first.num_terms + second.num_terms
        with pytest.raises(ValueError):
            HopRows.concat([first, first])

    def test_concat_keeps_rows_in_repr_order(self):
        # Parts [v, x] and [u, w] interleave: the merged rows are re-sorted
        # with their ids and hops, so position() finds every row.
        first = _hop_rows(["v", "x"], ["a", TARGET], [{0: 1}, {1: 2}])
        second = _hop_rows(["u", "w"], ["c"], [{0: 3}, {}])
        merged = HopRows.concat([first, second])
        assert merged.rows == ("u", "v", "w", "x")
        assert merged.row_ids.tolist() == [IDS[var] for var in merged.rows]
        assert [merged.position(var) for var in "uvwx"] == [0, 1, 2, 3]
        assert merged.position("a") == -1
        assert merged == {**first, **second}


class TestRowBackedSystem:
    """The node-keyed system a hop matrix decodes into (``details["system"]``)."""

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
        mps.update(_hop_rows(["u"], ["c", "e"], [{0: 1, 1: 5}]))
        assert mps.terms_of("u") == {"a": 1.0, "c": 1.0, "e": 5.0}
        assert len(mps) == 3 and mps.num_terms == 5
        mps.add_equation("w", [("c", 7.0)])
        assert mps.terms_of("w") == {"c": 0.0, TARGET: 2.0}
        assert mps.num_terms == 5

    def test_rejects_negative_distance_at_load(self):
        mps = MinPlusSystem()
        for negative in (-1.0, -256.0, -(2.0**40)):
            with pytest.raises(ValueError):
                mps.update({"x": (("y", negative),)})
        # A uint8 hop with the high bit set is a distance, not a sign.
        mps.update(_hop_rows(["x"], ["c"], [{0: 200}], bound=254))
        assert mps.terms_of("x") == {"c": 200.0}


@st.composite
def _matrices(draw):
    """Bounded partials of a few fragments over shared variables."""
    names = [f"v{i}" for i in range(draw(st.integers(2, 7)))]
    ids = {TARGET: TRUE_ID, **{name: i for i, name in enumerate(names, 1)}}
    variables = names + [TARGET]
    parts, defined = [], set()
    for _ in range(draw(st.integers(1, 3))):
        rows = [v for v in names if v not in defined and draw(st.booleans())]
        defined.update(rows)
        columns = draw(st.permutations(variables))[: draw(st.integers(0, len(variables)))]
        hops = np.full((len(rows), len(columns)), 41, np.uint8)
        for i in range(len(rows)):
            for j, step in draw(
                st.dictionaries(st.integers(0, max(0, len(columns) - 1)), st.integers(0, 4))
            ).items():
                if columns:
                    hops[i, j] = step
        parts.append(
            HopRows(
                rows,
                np.array([ids[v] for v in rows], dtype=np.int64),
                hops,
                columns,
                np.array([ids[v] for v in columns], dtype=np.int64),
                sum(map(payload_size, rows)),
                np.array([payload_size(v) for v in columns], dtype=np.int64),
                40,
            )
        )
    return names, parts


class TestRowBackedSolverProperties:
    @settings(max_examples=150, deadline=None)
    @given(_matrices(), st.one_of(st.none(), st.integers(0, 8)))
    def test_row_backed_equals_dict_backed_and_bellman_ford(self, drawn, cutoff):
        """The id-space Dijkstra equals the node-keyed one and Bellman–Ford
        (no cutoff: the parts' bound 40 exceeds every path of the system)."""
        names, parts = drawn
        dict_backed = MinPlusSystem()
        for part in parts:
            dict_backed.update(dict(part))
        assert sum(map(len, parts)) == len(dict_backed)
        assert sum(part.num_terms for part in parts) == dict_backed.num_terms
        bound = 40 if cutoff is None else cutoff
        partials = {}
        for part in parts:
            keep = part.hops <= bound
            partials[len(partials)] = HopRows(
                part.rows, part.row_ids, np.where(keep, part.hops, bound + 1).astype(
                    np.min_scalar_type(bound + 1)
                ), part.columns, part.col_ids, part.row_bytes, part.col_bytes, bound,
            )
        for source in names:
            expected = dict_backed.solve_distance(source, cutoff=float(bound))
            query = BoundedReachQuery(source, "t", bound)
            assert assemble_bounded(partials, query) == expected
            if cutoff is None:
                assert dict_backed.solve_bellman_ford(source) == expected
