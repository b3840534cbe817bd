"""Size-once accounting charges exactly what a fresh sizing would.

The serving engine sizes a partial answer once, when its cache entry is
produced, and every later charge reads the entry (DESIGN.md §6).  The other
serving tests compare the engine with itself (batch vs. one-by-one), which a
wrong memoized size would pass.  Here every query's message log and traffic
are compared with an independent reference that evaluates every fragment
again and sizes its equations from scratch with a term-by-term walk — on a
miss, on a hit, after a mutation, and on a site holding two fragments
(where the engine must fall back to sizing the merged rvset).
"""

from __future__ import annotations

import pytest

from repro.core.engine import plan_for
from repro.core.queries import BoundedReachQuery, ReachQuery, RegularReachQuery
from repro.distributed import COORDINATOR, Message, MessageKind, SimulatedCluster, payload_size
from repro.graph import erdos_renyi
from repro.partition import build_fragmentation, random_partition
from repro.serving import BatchQueryEngine, SiteResultCache
from repro.serving.engine import execute_plans

K = 4
GRAPH = erdos_renyi(40, 110, seed=5, num_labels=3)


def _cluster(fragment_assignment=None):
    graph = GRAPH.copy()
    fragmentation = build_fragmentation(graph, random_partition(graph, K, seed=5), K)
    return SimulatedCluster(fragmentation, fragment_assignment=fragment_assignment)


def _plans():
    return [plan_for(query) for query in _queries()]


def _queries():
    nodes = sorted(GRAPH.nodes())
    s, t = nodes[0], nodes[-1]
    return [
        ReachQuery(s, t),
        ReachQuery(nodes[3], nodes[17]),
        BoundedReachQuery(s, t, 5),
        BoundedReachQuery(nodes[7], nodes[2], 3),
        RegularReachQuery(s, t, "L0* | L1*"),
        RegularReachQuery(nodes[9], nodes[30], "(L0 | L2)*"),
    ]


def _reference_size(plan, merged):
    """The wire size of one site's merged equations, walked term by term.

    Written out independently of the partial-answer classes (which size by
    arithmetic over their own representation): rows, then the distinct
    column ids, then per row the cheaper of a dense bitset and a sparse
    list (Boolean and regular) or 6 bytes per min-plus term (bounded).
    """
    total = 2 + sum(payload_size(row) for row in merged)
    if plan.algorithm == "disDist":
        columns = {var for terms in merged.values() for var, _ in terms}
        total += sum(payload_size(column) for column in columns)
        return total + sum(6 * len(terms) for terms in merged.values())
    columns = set()
    for disjuncts in merged.values():
        columns |= disjuncts
    total += sum(payload_size(column) for column in columns)
    dense_row = (len(columns) + 7) // 8
    return total + sum(min(dense_row, 2 * len(d) + 2) for d in merged.values())


def _fresh_messages(cluster, plan):
    """The message log of one query, every size computed from scratch."""
    query_size = payload_size(plan.broadcast_payload())
    messages = [
        Message(COORDINATOR, site.site_id, MessageKind.QUERY, query_size)
        for site in cluster.sites
    ]
    for site in cluster.sites:
        merged = {}
        for fragment in site.fragments:
            merged.update(plan.local_eval()(fragment, *plan.local_eval_args()))
        messages.append(
            Message(
                site.site_id,
                COORDINATOR,
                MessageKind.PARTIAL,
                _reference_size(plan, merged),
            )
        )
    return messages


def _assert_fresh(cluster, plans, results):
    for plan, result in zip(plans, results):
        expected = _fresh_messages(cluster, plan)
        assert result.stats.messages == expected, plan.algorithm
        assert result.stats.traffic_bytes == sum(m.size_bytes for m in expected)


@pytest.mark.parametrize(
    "assignment", [None, {0: 0, 1: 0, 2: 1, 3: 2}], ids=["one-per-site", "shared-site"]
)
def test_miss_hit_and_mutation_charge_a_fresh_sizing(assignment):
    cluster = _cluster(assignment)
    plans = _plans()
    cache = SiteResultCache()

    cold = execute_plans(cluster, plans, cache=cache)
    assert cold.workload.cache_misses > 0
    _assert_fresh(cluster, plans, cold.results)

    warm = execute_plans(cluster, plans, cache=cache)
    assert warm.workload.cache_misses == 0
    _assert_fresh(cluster, plans, warm.results)

    # A cross-fragment edge: two fragments change content and version.
    node_site = cluster.node_site_map()
    nodes = sorted(node_site)
    u = nodes[0]
    v = next(
        n for n in nodes
        if node_site[n] != node_site[u] and not GRAPH.has_edge(u, n)
    )
    BatchQueryEngine(cluster, cache=cache)  # registers the cache for invalidation
    assert cluster.apply_edge_mutation(u, v, add=True)
    mutated = execute_plans(cluster, plans, cache=cache)
    assert 0 < mutated.workload.cache_misses < cold.workload.cache_misses
    _assert_fresh(cluster, plans, mutated.results)


def test_batch_run_ships_each_distinct_partial_once():
    # The batch's own run charges the tuple of the site's distinct wrapped
    # partials: 2 bytes of header plus each entry's size.
    cluster = _cluster()
    plans = _plans()
    cache = SiteResultCache()
    batch = execute_plans(cluster, plans, cache=cache)
    by_site = {}
    for (fid, _version, _algorithm, _params), entry in cache._entries.items():
        by_site.setdefault(cluster.site_of_fragment(fid).site_id, []).append(entry.size)
    partials = {
        m.src: m.size_bytes
        for m in batch.workload.batch.messages
        if m.kind is MessageKind.PARTIAL
    }
    assert partials == {site: 2 + sum(sizes) for site, sizes in by_site.items()}
    bundle = tuple(dict.fromkeys(plan.broadcast_payload() for plan in plans))
    queries = {
        m.size_bytes for m in batch.workload.batch.messages if m.kind is MessageKind.QUERY
    }
    assert queries == {payload_size(bundle)}
