"""Deterministic shortcut/hopset precompute for the Pregel baselines.

The message-passing baselines pay one superstep per BFS level, so their
round count is O(diameter) — exactly where the paper's partitioned
algorithms win.  Following the parallel-reachability line of work
(Ullman–Yannakakis sampled pivots; Jambulapati/Liu/Sidford,
arXiv:1905.08841, PAPERS.md), this module precomputes **shortcut edges**
that provably preserve the query answers while collapsing the propagation
depth: ~``ceil(sqrt(n))`` pivots are sampled deterministically, each pivot
is expanded forward and backward, and every discovered ``(node, pivot)`` /
``(pivot, node)`` pair at hop distance >= 2 becomes a shortcut edge.

Two variants (DESIGN.md §13):

``reach``
    Unbounded forward/backward closure per pivot, weightless edges.  A
    shortcut ``(u, v)`` exists only when ``v`` is already reachable from
    ``u``, so the augmented graph has *exactly* the original transitive
    closure — reachability answers are preserved by construction.  On a
    path with ``sqrt(n)`` pivots a token reaches any target in O(1)
    supersteps (source -> pivot -> target), at the cost of up to
    O(n * sqrt(n)) shortcut edges.

``hopset``
    Hop-bounded expansion (default bound ``beta ~ 2 * stride``), each
    shortcut tagged with the **exact distance** between its endpoints as
    found by the bounded search.  Any augmented path therefore has the
    length of some real walk (each shortcut weight realizes a real
    subpath), so shortest distances can only be *met*, never undercut —
    BFS/SSSP converge to exactly the unaugmented distances, in ~``stride``
    relaxation rounds instead of ~diameter.

Shortcut edges are kept **disjoint from the original edge set** (a pair
already connected by a graph edge is never added), which lets the Pregel
substrate classify every generated message as original-edge or
shortcut-edge traffic by target membership alone — the provenance tags
the accounting layer uses to report shortcut traffic separately.

Mode selection follows the one strategy-registry precedence (explicit >
``set_default_shortcuts`` > ``REPRO_SHORTCUTS`` > ``none``;
:mod:`repro.strategies`, DESIGN.md §14).
"""

from __future__ import annotations

import heapq
import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ShortcutError
from ..strategies import StrategyRegistry
from .digraph import DiGraph, Node

#: The selectable shortcut modes (``--shortcuts`` choices).
SHORTCUT_MODES: Tuple[str, ...] = ("none", "reach", "hopset")

#: The shortcut-mode family of the one strategy registry (DESIGN.md §14).
SHORTCUT_REGISTRY = StrategyRegistry(
    "shortcuts",
    SHORTCUT_MODES,
    fallback="none",
    error=ShortcutError,
    env_var="REPRO_SHORTCUTS",
    kind="shortcut mode",
    summary="shortcut precompute for the message-passing baselines "
    "disReachm/disDistm: 'reach' and 'hopset' cut supersteps to "
    "sub-diameter, answers bit-identical (DESIGN.md §13)",
)

SHORTCUTS_ENV_VAR = SHORTCUT_REGISTRY.env_var
set_default_shortcuts = SHORTCUT_REGISTRY.set_default
default_shortcuts = SHORTCUT_REGISTRY.default
resolve_shortcuts = SHORTCUT_REGISTRY.resolve


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ShortcutStats:
    """Construction-cost accounting of one shortcut set."""

    pivots: int
    edges: int
    expanded: int  # node visits across all pivot expansions (work proxy)
    build_seconds: float


@dataclass(frozen=True)
class ShortcutSet:
    """An augmented-edge overlay with provenance-separable edges.

    ``edges`` maps a source node to its shortcut successors as
    ``(target, weight)`` pairs — weight is the exact (hop or weighted)
    distance for ``hopset`` sets and ``None`` for ``reach`` sets.  Pairs
    already connected by an original graph edge are never present, so the
    Pregel substrate can classify a message as shortcut traffic by target
    membership alone.  Plain dicts/tuples throughout: the set (or a
    per-site slice of it) ships to process/socket workers by pickle.
    """

    kind: str
    edges: Dict[Node, Tuple[Tuple[Node, Optional[float]], ...]]
    stats: ShortcutStats

    def targets(self, source: Node) -> Tuple[Tuple[Node, Optional[float]], ...]:
        """The shortcut successors of ``source`` (empty when it has none)."""
        return self.edges.get(source, ())

    @property
    def edge_count(self) -> int:
        return self.stats.edges


def _sorted_nodes(graph: DiGraph) -> List[Node]:
    """Graph nodes in a deterministic order (natural sort, repr fallback)."""
    nodes = list(graph.nodes())
    try:
        return sorted(nodes)
    except TypeError:
        return sorted(nodes, key=repr)


def pick_pivots(graph: DiGraph, seed: int = 0, count: Optional[int] = None) -> List[Node]:
    """~``ceil(sqrt(n))`` pivots: a deterministic stratified sample over the
    sorted node order — one pivot per ``stride``-wide window, at a
    seed-drawn position *within* its window.

    Stratification guarantees every node is within ~``stride`` of a pivot
    in *id order* — on path/grid graphs, whose edges follow id order, that
    is exactly the structural spacing the depth argument needs.  The
    per-window jitter (rather than one global offset) matters on grids:
    when the stride happens to divide the row width, a fixed-phase sample
    puts every pivot in the *same column*, and entire columns fall outside
    every pivot's forward cone.  Independent window positions break any
    such alignment with the graph's structure.
    """
    nodes = _sorted_nodes(graph)
    n = len(nodes)
    if n == 0:
        return []
    if count is None:
        count = max(1, math.isqrt(n - 1) + 1)  # ceil(sqrt(n)) for n >= 1
    count = min(count, n)
    stride = max(1, n // count)
    rng = random.Random(seed)
    pivots = []
    for window in range(count):
        low = window * stride
        high = min(low + stride, n)
        if low >= n:
            break
        pivots.append(nodes[low + rng.randrange(high - low)])
    return pivots


def _bounded_bfs(
    graph: DiGraph,
    start: Node,
    forward: bool,
    beta: Optional[int],
) -> Tuple[Dict[Node, int], int]:
    """Hop-bounded BFS from ``start``; returns ``(distances, visits)``."""
    neighbors = graph.successors if forward else graph.predecessors
    dist: Dict[Node, int] = {start: 0}
    frontier = [start]
    visits = 1
    depth = 0
    while frontier and (beta is None or depth < beta):
        depth += 1
        nxt: List[Node] = []
        for node in frontier:
            for other in sorted(neighbors(node), key=repr):
                if other not in dist:
                    dist[other] = depth
                    nxt.append(other)
                    visits += 1
        frontier = nxt
    return dist, visits


def _bounded_dijkstra(
    graph: DiGraph,
    start: Node,
    forward: bool,
    beta: Optional[int],
    weight_fn: Callable[[Node, Node], float],
) -> Tuple[Dict[Node, float], int]:
    """Hop-capped Dijkstra (deterministic tie order); ``(distances, visits)``.

    A hop cap can miss a cheaper many-hop path, so returned distances are
    only upper bounds on the true distance — which is all correctness
    needs: a shortcut of weight ``w >= dist(u, v)`` that realizes a real
    walk can never shorten any shortest path.
    """
    neighbors = graph.successors if forward else graph.predecessors
    dist: Dict[Node, float] = {}
    heap: List[Tuple[float, int, str, Node]] = [(0.0, 0, repr(start), start)]
    visits = 0
    while heap:
        d, hops, _key, node = heapq.heappop(heap)
        if node in dist:
            continue
        dist[node] = d
        visits += 1
        if beta is not None and hops >= beta:
            continue
        for other in sorted(neighbors(node), key=repr):
            if other in dist:
                continue
            weight = weight_fn(node, other) if forward else weight_fn(other, node)
            heapq.heappush(heap, (d + weight, hops + 1, repr(other), other))
    return dist, visits


def build_shortcuts(
    graph: DiGraph,
    kind: str,
    seed: int = 0,
    beta: Optional[int] = None,
    weight_fn: Optional[Callable[[Node, Node], float]] = None,
) -> ShortcutSet:
    """Build a :class:`ShortcutSet` of the named ``kind`` over ``graph``.

    ``reach``: unbounded forward/backward closure per pivot, weightless —
    reachability-only provenance edges.  ``hopset``: expansion bounded to
    ``beta`` hops (default ``2 * stride``, covering the inter-pivot gap
    with slack), each edge weighted with the distance the bounded search
    found; pass ``weight_fn`` to build against weighted edges (Dijkstra
    instead of BFS — the set then matches :class:`~repro.baselines.
    pregel_programs.SsspProgram` runs using the same ``weight_fn``).

    Deterministic in ``(graph, kind, seed, beta)``: pivots, expansion
    order and the per-source target order are all fixed, so every backend
    and every rebuild sees the same augmented adjacency.
    """
    SHORTCUT_REGISTRY.check(kind)
    if kind == "none":
        raise ShortcutError("mode 'none' has no shortcut set to build")
    if kind == "reach" and weight_fn is not None:
        raise ShortcutError("reach shortcuts are weightless; weight_fn needs 'hopset'")
    started = time.perf_counter()
    pivots = pick_pivots(graph, seed=seed)
    n = graph.num_nodes
    if kind == "hopset" and beta is None:
        stride = max(1, n // max(1, len(pivots)))
        beta = 2 * stride
    if kind == "reach":
        beta = None

    by_source: Dict[Node, Dict[Node, Optional[float]]] = {}
    expanded = 0
    for pivot in pivots:
        if weight_fn is None:
            fwd, fv = _bounded_bfs(graph, pivot, True, beta)
            bwd, bv = _bounded_bfs(graph, pivot, False, beta)
        else:
            fwd, fv = _bounded_dijkstra(graph, pivot, True, beta, weight_fn)
            bwd, bv = _bounded_dijkstra(graph, pivot, False, beta, weight_fn)
        expanded += fv + bv
        for target, d in fwd.items():
            _record(by_source, graph, pivot, target, d, kind)
        for source, d in bwd.items():
            _record(by_source, graph, source, pivot, d, kind)

    edges: Dict[Node, Tuple[Tuple[Node, Optional[float]], ...]] = {}
    count = 0
    for source in sorted(by_source, key=repr):
        pairs = tuple(sorted(by_source[source].items(), key=lambda kv: repr(kv[0])))
        edges[source] = pairs
        count += len(pairs)
    stats = ShortcutStats(
        pivots=len(pivots),
        edges=count,
        expanded=expanded,
        build_seconds=time.perf_counter() - started,
    )
    return ShortcutSet(kind=kind, edges=edges, stats=stats)


def _record(
    by_source: Dict[Node, Dict[Node, Optional[float]]],
    graph: DiGraph,
    source: Node,
    target: Node,
    distance: float,
    kind: str,
) -> None:
    """Add one candidate shortcut, skipping loops and original edges."""
    if source == target or distance == 0:
        return
    if graph.has_edge(source, target):
        return  # keep shortcut targets disjoint from original successors
    slot = by_source.setdefault(source, {})
    if kind == "reach":
        slot[target] = None
    else:
        prior = slot.get(target)
        if prior is None or distance < prior:
            slot[target] = distance


def build_reach_shortcuts(graph: DiGraph, seed: int = 0) -> ShortcutSet:
    """Sampled-pivot reachability shortcuts (unbounded closure, weightless)."""
    return build_shortcuts(graph, "reach", seed=seed)


def build_hopset(
    graph: DiGraph,
    seed: int = 0,
    beta: Optional[int] = None,
    weight_fn: Optional[Callable[[Node, Node], float]] = None,
) -> ShortcutSet:
    """Bounded-hop, distance-preserving hopset (exact weights on edges)."""
    return build_shortcuts(graph, "hopset", seed=seed, beta=beta, weight_fn=weight_fn)
