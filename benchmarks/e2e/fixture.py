"""Inputs of the end-to-end benchmark: the pinned graph and seeded op streams.

The graph is a fixture (the labeled YouTube stand-in at one pinned scale and
graph seed), like the data set a deployed system already holds; ``--seed``
drives what a client sends — which queries, in which order, which edges are
written.  Two different seeds therefore measure the same system on two
samples of the same traffic, and the spread between them stays inside the
bounds of ``BENCHMARK.json``; a seed-dependent graph would move ``|Vf|`` —
and with it traffic and latency — by more than any bound.

Everything here (generation and the centralized ground truth of every op)
runs before the first clock starts.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, NamedTuple, Sequence, Tuple

from repro.core.centralized import evaluate_centralized
from repro.core.queries import BoundedReachQuery, ReachQuery
from repro.graph.digraph import DiGraph
from repro.graph.traversal import bfs_distances, descendants
from repro.workload import (
    load_dataset,
    planted_path_query,
    random_reach_queries,
    random_regular_queries,
)

#: The deployed configuration every workload shares.
FRAGMENTS = 8
PARTITIONER = "multilevel"
KERNEL = "numpy"

#: Class mix of every query pool (reach / bounded / regular).
MIX = (("reach", 0.4), ("bounded", 0.3), ("regular", 0.3))
#: Hop bound of the bounded class; local cost grows with it.
BOUND = 6
#: Share of bounded / regular queries planted to answer true, so the
#: correctness check compares both answers on every class.
PLANTED = 0.3
ZIPF_S = 1.2


class Sizes(NamedTuple):
    """Op counts of one run; ``--smoke`` swaps in the small set."""

    scale: float
    cold_ops: int
    zipf_ops: int
    zipf_distinct: int
    mutate_rounds: int
    mutate_distinct: int


#: 8 205 nodes / 15 922 edges / 12 labels.  Every pass has >= 400 ops, so
#: p95 has >= 20 samples beyond it.
FULL = Sizes(0.035, 400, 1000, 300, 60, 120)
SMOKE = Sizes(0.01, 40, 120, 30, 6, 12)

#: Reads between two writes of ``mutate-mix`` (writes are 1 op in 5).
READS_PER_WRITE = 4


class Op(NamedTuple):
    """One client operation and the answer the system must give.

    ``kind`` is ``reach``/``bounded``/``regular`` (``arg`` is the query,
    ``truth`` its Boolean answer) or ``add``/``remove`` (``arg`` is the edge,
    ``truth`` the standing answers of the open sessions after the write).
    """

    kind: str
    arg: Any
    truth: Any


def build_graph(sizes: Sizes) -> DiGraph:
    """The pinned graph fixture (graph seed 0 whatever ``--seed`` is)."""
    return load_dataset("youtube", scale=sizes.scale, seed=0)


def _bounded_queries(graph: DiGraph, count: int, rng: random.Random) -> List[Any]:
    nodes = sorted(graph.nodes(), key=repr)
    out = set()
    while len(out) < count:
        source = rng.choice(nodes)
        near: List[Any] = []
        if rng.random() < PLANTED:
            near = sorted(bfs_distances(graph, source, cutoff=BOUND), key=repr)
        target = rng.choice(near) if near else rng.choice(nodes)
        if target != source:
            out.add(BoundedReachQuery(source, target, BOUND))
    return sorted(out, key=repr)


def _regular_queries(graph: DiGraph, count: int, rng: random.Random) -> List[Any]:
    out = set()
    while len(out) < round(count * PLANTED):
        planted = planted_path_query(graph, 4, seed=rng.randrange(2**32))
        if planted is not None:
            out.add(planted)
    while len(out) < count:
        out.update(
            random_regular_queries(
                graph,
                count - len(out),
                num_states=6,
                num_transitions=10,
                num_labels=4,
                seed=rng.randrange(2**32),
            )
        )
    return sorted(out, key=repr)


def _reach_queries(graph: DiGraph, count: int, rng: random.Random) -> List[Any]:
    out = set()
    while len(out) < count:
        out.update(
            random_reach_queries(graph, count - len(out), seed=rng.randrange(2**32))
        )
    return sorted(out, key=repr)


def _deal(weights: Dict[str, float], count: int) -> List[str]:
    """``count`` class names, each class spread evenly at its share of ``weights``.

    Position by position, the class furthest behind its share so far is
    dealt, so the class at every position depends on the shares alone.
    """
    total = sum(weights.values())
    dealt = {kind: 0 for kind in weights}
    order = []
    for position in range(count):
        kind = max(weights, key=lambda k: weights[k] / total * (position + 1) - dealt[k])
        dealt[kind] += 1
        order.append(kind)
    return order


def query_pool(graph: DiGraph, count: int, rng: random.Random) -> List[Any]:
    """``count`` distinct queries, the classes dealt in a fixed order.

    Position ``r`` holds the same class whatever the seed (reach, bounded,
    regular, reach, ...), so when positions become popularity ranks every
    seed puts the same mass on each class; the seed decides which queries
    fill the positions.
    """
    makers = {
        "reach": _reach_queries,
        "bounded": _bounded_queries,
        "regular": _regular_queries,
    }
    order = _deal(dict(MIX), count)
    queries = {}
    for kind, make in makers.items():
        queries[kind] = make(graph, order.count(kind), rng)
        rng.shuffle(queries[kind])
    return [queries[kind].pop() for kind in order]


def kind_of(query: Any) -> str:
    """The class name of a query, as used in ``Op.kind`` and metric names."""
    if isinstance(query, ReachQuery):
        return "reach"
    if isinstance(query, BoundedReachQuery):
        return "bounded"
    return "regular"


def _read(graph: DiGraph, query: Any) -> Op:
    return Op(kind_of(query), query, evaluate_centralized(graph, query))


def _zipf(pool: Sequence[Any], count: int, rng: random.Random) -> List[Any]:
    """``count`` queries of ``pool``, position ``r`` with popularity 1/(r+1)^s.

    How often each position occurs is its exact share (largest remainder), not
    a sample, and the stream deals the classes evenly (:func:`_deal`); the
    seed only orders the queries inside each class.  A sampled stream moves
    the share of the expensive class — and a shuffled one the classes read
    right after a write — by more than the bounds allow.
    """
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(pool))]
    total = sum(weights)
    quotas = [count * weight / total for weight in weights]
    counts = [int(quota) for quota in quotas]
    by_remainder = sorted(range(len(pool)), key=lambda r: counts[r] - quotas[r])
    for rank in by_remainder[: count - sum(counts)]:
        counts[rank] += 1
    by_kind: Dict[str, List[Any]] = {}
    for query, times in zip(pool, counts):
        by_kind.setdefault(kind_of(query), []).extend([query] * times)
    for queries in by_kind.values():
        rng.shuffle(queries)
    order = _deal({kind: len(queries) for kind, queries in by_kind.items()}, count)
    return [by_kind[kind].pop() for kind in order]


def cold_ops(graph: DiGraph, seed: int, sizes: Sizes) -> List[Op]:
    """Distinct queries: no op repeats another, so no cache can help."""
    rng = random.Random(f"cold-{seed}")
    return [_read(graph, query) for query in query_pool(graph, sizes.cold_ops, rng)]


def zipf_ops(graph: DiGraph, seed: int, sizes: Sizes) -> List[Op]:
    """A zipf-skewed stream over a pool of distinct queries."""
    rng = random.Random(f"zipf-{seed}")
    pool = {query: _read(graph, query) for query in query_pool(graph, sizes.zipf_distinct, rng)}
    return [pool[query] for query in _zipf(list(pool), sizes.zipf_ops, rng)]


def mutate_ops(
    graph: DiGraph, seed: int, sizes: Sizes
) -> Tuple[List[Op], Tuple[ReachQuery, ReachQuery]]:
    """Writes that are each undone, with zipf reads between them.

    Returns the ops and the two standing queries.  Each round adds an edge,
    reads, removes the edge and reads again, so a pass ends on the graph it
    started on and every pass replays the same states.  Every fourth edge
    bridges a standing query's source side to its target side, so standing
    answers flip and flip back.  Ground truth comes from a mirror graph
    mutated in lockstep.
    """
    rng = random.Random(f"mutate-{seed}")
    mirror = graph.copy()
    nodes = sorted(graph.nodes(), key=repr)
    standing = tuple(
        random_reach_queries(
            graph, 2, seed=rng.randrange(2**32), positive_fraction=0.0
        )
    )
    sides = []
    for query in standing:
        below = sorted(descendants(graph, query.source) | {query.source}, key=repr)
        above = sorted(
            descendants(graph.reverse(), query.target) | {query.target}, key=repr
        )
        sides.append((below, above))
    pool = query_pool(graph, sizes.mutate_distinct, rng)
    reads = iter(_zipf(pool, sizes.mutate_rounds * 2 * READS_PER_WRITE, rng))

    def standing_truth() -> Tuple[bool, ...]:
        return tuple(evaluate_centralized(mirror, query) for query in standing)

    ops: List[Op] = []
    for round_index in range(sizes.mutate_rounds):
        while True:
            if round_index % 4 == 0:
                below, above = sides[(round_index // 4) % 2]
                u, v = rng.choice(below), rng.choice(above)
            else:
                u, v = rng.choice(nodes), rng.choice(nodes)
            if u != v and not mirror.has_edge(u, v):
                break
        for kind in ("add", "remove"):
            if kind == "add":
                mirror.add_edge(u, v)
            else:
                mirror.remove_edge(u, v)
            ops.append(Op(kind, (u, v), standing_truth()))
            for _ in range(READS_PER_WRITE):
                ops.append(_read(mirror, next(reads)))
    return ops, standing
