"""Deterministic reachability-shortcut precompute for disReachm.

The message-passing baseline pays one superstep per BFS level, so its
round count is O(diameter) — exactly where the paper's partitioned
algorithms win.  Following the parallel-reachability line of work
(Ullman–Yannakakis sampled pivots), this module precomputes **shortcut
edges** that provably preserve reachability answers while collapsing the
propagation depth: ~``ceil(sqrt(n))`` pivots are sampled
deterministically, each pivot's forward and backward closure is expanded,
and every discovered ``(pivot, node)`` / ``(node, pivot)`` pair that is
not already an original edge becomes a shortcut edge (DESIGN.md §13).

A shortcut ``(u, v)`` exists only when ``v`` is already reachable from
``u``, so the augmented graph has *exactly* the original transitive
closure.  On a path with ``sqrt(n)`` pivots a token reaches any target in
O(1) supersteps (source -> pivot -> target), at the cost of up to
O(n * sqrt(n)) shortcut edges.

Shortcut edges are kept **disjoint from the original edge set**, which
lets the Pregel substrate classify every generated message as
original-edge or shortcut-edge traffic by target membership alone — the
provenance tags the accounting layer uses to report shortcut traffic
separately.

Mode selection follows the one strategy-registry precedence (explicit >
``set_default_shortcuts`` > ``REPRO_SHORTCUTS`` > ``none``;
:mod:`repro.strategies`, DESIGN.md §14).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..errors import ShortcutError
from ..strategies import StrategyRegistry
from .digraph import DiGraph, Node
from .traversal import descendants

#: The selectable shortcut modes (``--shortcuts`` choices).
SHORTCUT_MODES: Tuple[str, ...] = ("none", "reach")

#: The shortcut-mode family of the one strategy registry (DESIGN.md §14).
SHORTCUT_REGISTRY = StrategyRegistry(
    "shortcuts",
    SHORTCUT_MODES,
    fallback="none",
    error=ShortcutError,
    env_var="REPRO_SHORTCUTS",
    kind="shortcut mode",
    summary="shortcut precompute for the message-passing baseline "
    "disReachm: 'reach' cuts supersteps to sub-diameter, answers "
    "bit-identical (DESIGN.md §13)",
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
    build_seconds: float


@dataclass(frozen=True)
class ShortcutSet:
    """An augmented-edge overlay with provenance-separable edges.

    ``edges`` maps a source node to its shortcut targets in ``repr``
    order.  Pairs already connected by an original graph edge are never
    present, so the Pregel substrate can classify a message as shortcut
    traffic by target membership alone.  Plain dicts/tuples throughout:
    the set (or a per-site slice of it) ships to socket brokers
    by pickle.
    """

    kind: str
    edges: Dict[Node, Tuple[Node, ...]]
    stats: ShortcutStats


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


def build_shortcuts(graph: DiGraph, kind: str, seed: int = 0) -> ShortcutSet:
    """Build a :class:`ShortcutSet` of the named ``kind`` over ``graph``.

    Each pivot's forward closure yields ``(pivot, node)`` shortcuts and its
    backward closure ``(node, pivot)`` ones.  Deterministic in ``(graph,
    kind, seed)``: the pivots and the per-source target order are fixed,
    so every backend and every rebuild sees the same augmented adjacency.
    """
    SHORTCUT_REGISTRY.check(kind)
    if kind == "none":
        raise ShortcutError("mode 'none' has no shortcut set to build")
    started = time.perf_counter()
    pivots = pick_pivots(graph, seed=seed)
    by_source: Dict[Node, Set[Node]] = {}
    for pivot in pivots:
        for target in descendants(graph, pivot):
            _record(by_source, graph, pivot, target)
        for source in descendants(None, pivot, successors=graph.predecessors):
            _record(by_source, graph, source, pivot)

    edges = {
        source: tuple(sorted(by_source[source], key=repr))
        for source in sorted(by_source, key=repr)
    }
    stats = ShortcutStats(
        pivots=len(pivots),
        edges=sum(len(targets) for targets in edges.values()),
        build_seconds=time.perf_counter() - started,
    )
    return ShortcutSet(kind=kind, edges=edges, stats=stats)


def _record(
    by_source: Dict[Node, Set[Node]], graph: DiGraph, source: Node, target: Node
) -> None:
    """Add one candidate shortcut, skipping loops and original edges."""
    if source == target or graph.has_edge(source, target):
        return  # keep shortcut targets disjoint from original successors
    by_source.setdefault(source, set()).add(target)


def build_reach_shortcuts(graph: DiGraph, seed: int = 0) -> ShortcutSet:
    """Sampled-pivot reachability shortcuts (pivot closures)."""
    return build_shortcuts(graph, "reach", seed=seed)
