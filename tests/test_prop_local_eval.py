"""Property tests: every local-evaluation engine computes the same answers.

The paper's Section 3 remark lets sites plug in any reachability index for
``des(v, Fi)`` checks.  These properties pin the contract: the numpy sweep
and each of the static oracles of :mod:`repro.index`, asked pair by pair,
produce identical equations.
"""

from distance_reference import BFSDistanceOracle, DistanceMatrixOracle, oracle_terms
from hypothesis import given, settings, strategies as st
from reach_reference import oracle_rows

from repro.core.bounded import local_eval_bounded
from repro.core.queries import BoundedReachQuery, ReachQuery
from kernel_reference import boolean_size
from repro.core.reachability import local_eval_reach
from repro.distributed import payload_size
from repro.graph import DiGraph
from repro.index import ORACLE_NAMES, build_oracle
from repro.partition import build_fragmentation


@st.composite
def fragmented_graphs(draw, max_nodes=12):
    n = draw(st.integers(min_value=3, max_value=max_nodes))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=3 * n,
        )
    )
    g = DiGraph()
    for i in range(n):
        g.add_node(i, label="L")
    for u, v in edges:
        if u != v:
            g.add_edge(u, v)
    k = draw(st.integers(min_value=1, max_value=3))
    assignment = {node: node % k for node in g.nodes()}
    fragmentation = build_fragmentation(g, assignment, k)
    s = draw(st.integers(0, n - 1))
    t = draw(st.integers(0, n - 1))
    return g, fragmentation, s, t


@given(fragmented_graphs())
@settings(max_examples=50, deadline=None)
def test_reach_engines_agree(case):
    _, fragmentation, s, t = case
    query = ReachQuery(s, t)
    for fragment in fragmentation:
        rows = local_eval_reach(fragment, query)
        for name in ORACLE_NAMES:
            oracle = build_oracle(name, fragment.local_graph)
            assert oracle_rows(fragment, query, oracle) == rows, name


@given(fragmented_graphs(), st.integers(0, 6))
@settings(max_examples=50, deadline=None)
def test_distance_engines_agree(case, bound):
    _, fragmentation, s, t = case
    query = BoundedReachQuery(s, t, bound)
    for fragment in fragmentation:
        reference = {
            k: sorted(v, key=repr)
            for k, v in local_eval_bounded(fragment, query).items()
        }
        for oracle in (BFSDistanceOracle, DistanceMatrixOracle):
            got = {
                k: sorted(v, key=repr)
                for k, v in oracle_terms(fragment, query, oracle).items()
            }
            assert got == reference, oracle


@given(fragmented_graphs())
@settings(max_examples=50, deadline=None)
def test_partial_answer_payload_is_positive_and_monotone(case):
    _, fragmentation, s, t = case
    query = ReachQuery(s, t)
    for fragment in fragmentation:
        equations = local_eval_reach(fragment, query)
        size = payload_size(equations)
        assert size >= 2
        assert boolean_size(equations) == size
        grown = dict(equations)
        grown["extra-row"] = frozenset({"extra-col"})
        assert boolean_size(grown) > size
