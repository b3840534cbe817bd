"""Property-based tests (hypothesis) for the core invariants.

Each property pins one of the reproduction's semantic anchors:

* the two BES solvers and the naive fixpoint agree on arbitrary systems;
* Dijkstra and Bellman-Ford agree on arbitrary min-plus systems;
* Glushkov NFA acceptance agrees with Python's ``re`` on arbitrary ASTs;
* reach-set sweeps agree with per-node BFS on arbitrary digraphs;
* fragmentation invariants hold for arbitrary assignments, and
  disReach/disDist/disRPQ agree with the centralized oracles on them.
"""

import re

from hypothesis import given, settings, strategies as st
from kernel_reference import reachable_seed_sets

from repro.automata import PositionNFA, to_python_regex
from repro.automata import ast as rast
from repro.core import (
    BooleanEquationSystem,
    MinPlusSystem,
    TRUE,
    bounded_reachable,
    dis_dist,
    dis_reach,
    dis_rpq,
    reachable,
    regular_reachable,
)
from repro.core.minplus import TARGET
from repro.distributed import SimulatedCluster
from repro.graph import DiGraph, is_reachable
from repro.partition import build_fragmentation, check_fragmentation

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------
node_ids = st.integers(min_value=0, max_value=14)


@st.composite
def digraphs(draw, max_nodes=15, labels=("A", "B", "C")):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)
            ),
            max_size=3 * n,
        )
    )
    g = DiGraph()
    for i in range(n):
        g.add_node(i, label=draw(st.sampled_from(labels)))
    for u, v in edges:
        if u != v:
            g.add_edge(u, v)
    return g


@st.composite
def regexes(draw, alphabet="abc", max_depth=4):
    def build(depth):
        if depth <= 0:
            return draw(
                st.sampled_from(
                    [rast.Epsilon()] + [rast.Symbol(c) for c in alphabet]
                )
            )
        kind = draw(st.integers(0, 4))
        if kind == 0:
            return draw(st.sampled_from([rast.Symbol(c) for c in alphabet]))
        if kind == 1:
            return rast.Concat((build(depth - 1), build(depth - 1)))
        if kind == 2:
            return rast.Union((build(depth - 1), build(depth - 1)))
        if kind == 3:
            return rast.Star(build(depth - 1))
        return rast.Epsilon()

    return build(max_depth)


@st.composite
def bes_systems(draw):
    num_vars = draw(st.integers(1, 12))
    bes = BooleanEquationSystem()
    for var in range(num_vars):
        disjuncts = set(
            draw(st.lists(st.integers(0, num_vars - 1), max_size=4))
        )
        if draw(st.booleans()) and draw(st.integers(0, 3)) == 0:
            disjuncts.add(TRUE)
        bes.add_equation(var, disjuncts)
    return bes


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------
@given(bes_systems())
@settings(max_examples=80, deadline=None)
def test_bes_solvers_agree(bes):
    fixpoint = bes.solve_fixpoint()
    assert bes.solve_all() == fixpoint
    for var in bes.variables():
        assert bes.solve_reachability(var) == fixpoint[var]


@given(
    st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 9), st.integers(0, 9)),
        max_size=30,
    ),
    st.integers(0, 8),
)
@settings(max_examples=80, deadline=None)
def test_minplus_solvers_agree(equations, source):
    mps = MinPlusSystem()
    for var, successor, weight in equations:
        succ = TARGET if successor == 9 else successor
        mps.add_equation(var, [(succ, float(weight))])
    assert mps.solve_distance(source) == mps.solve_bellman_ford(source)


@given(regexes(), st.lists(st.sampled_from("abcx"), max_size=6))
@settings(max_examples=150, deadline=None)
def test_nfa_agrees_with_python_re(regex, word):
    nfa = PositionNFA.from_regex(regex)
    pattern = re.compile(to_python_regex(regex))
    assert nfa.accepts(word) == bool(pattern.fullmatch("".join(word)))


@given(digraphs(), st.lists(node_ids, min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_reachsets_agree_with_bfs(graph, seed_pool):
    seeds = [s for s in seed_pool if graph.has_node(s)]
    if not seeds:
        return
    sets = reachable_seed_sets(graph.nodes(), graph.successors, seeds)
    for node in graph.nodes():
        expected = frozenset(s for s in seeds if is_reachable(graph, node, s))
        assert sets[node] == expected


@given(digraphs(), st.integers(1, 4), st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_random_fragmentations_are_valid(graph, k, salt):
    assignment = {node: (hash((node, salt)) % k) for node in graph.nodes()}
    fragmentation = build_fragmentation(graph, assignment, k)
    check_fragmentation(graph, fragmentation)


@given(digraphs(), st.integers(1, 4), node_ids, node_ids)
@settings(max_examples=40, deadline=None)
def test_disreach_matches_centralized(graph, k, s, t):
    if not (graph.has_node(s) and graph.has_node(t)):
        return
    assignment = {node: node % k for node in graph.nodes()}
    cluster = SimulatedCluster(build_fragmentation(graph, assignment, k))
    assert dis_reach(cluster, (s, t)).answer == reachable(graph, s, t)


@given(digraphs(), st.integers(1, 4), node_ids, node_ids, st.integers(0, 6))
@settings(max_examples=40, deadline=None)
def test_disdist_matches_centralized(graph, k, s, t, bound):
    if not (graph.has_node(s) and graph.has_node(t)):
        return
    assignment = {node: node % k for node in graph.nodes()}
    cluster = SimulatedCluster(build_fragmentation(graph, assignment, k))
    assert (
        dis_dist(cluster, (s, t, bound)).answer
        == bounded_reachable(graph, s, t, bound)
    )


@given(
    digraphs(),
    st.integers(1, 3),
    node_ids,
    node_ids,
    st.sampled_from(["A* | B*", ". *", "B A*", "A? (B | C)*", "()"]),
)
@settings(max_examples=40, deadline=None)
def test_disrpq_matches_centralized(graph, k, s, t, regex):
    if not (graph.has_node(s) and graph.has_node(t)):
        return
    assignment = {node: node % k for node in graph.nodes()}
    cluster = SimulatedCluster(build_fragmentation(graph, assignment, k))
    assert dis_rpq(cluster, (s, t, regex)).answer == regular_reachable(
        graph, s, t, regex
    )


@given(digraphs(), st.integers(1, 4), node_ids, node_ids)
@settings(max_examples=30, deadline=None)
def test_visit_guarantee_always_holds(graph, k, s, t):
    if not (graph.has_node(s) and graph.has_node(t)) or s == t:
        return
    assignment = {node: node % k for node in graph.nodes()}
    cluster = SimulatedCluster(build_fragmentation(graph, assignment, k))
    result = dis_reach(cluster, (s, t))
    assert result.stats.max_visits_per_site == 1
    assert result.stats.total_visits == cluster.num_sites
