"""Classic vertex programs on the Pregel substrate: BFS levels and SSSP.

The paper notes that Pregel [21] supports "several algorithms (distance,
etc.)"; these programs exercise our substrate the same way and back
:func:`dis_dist_m` — a message-passing bounded-reachability baseline built
exactly like disReachm (the paper evaluates no such algorithm, so treat
its numbers as an *extension*, not a reproduction; it is registered in the
engine for completeness and behaves as message passing always does here:
correct answers, unbounded site visits).

Every program is a stateless, picklable dataclass (DESIGN.md §5): state is
the engine's explicit per-vertex value dict, and each program declares a
``min`` combiner — distances are monotone, so only the smallest message to
a vertex can change its state, and collapsing the rest at the sending
fragment's boundary is the textbook Pregel combiner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..core.queries import BoundedReachQuery
from ..core.results import QueryResult
from ..distributed.cluster import SimulatedCluster
from ..distributed.messages import MessageKind
from ..graph.digraph import Node
from .pregel import PregelEngine, VertexOutcome, VertexProgram


@dataclass(frozen=True)
class BfsLevelProgram(VertexProgram):
    """BFS levels: keep the best hop count, propagate improvements."""

    max_level: Optional[int] = None

    def combine(self, messages: List[Any]) -> List[Any]:
        return [min(messages)]

    def compute(
        self,
        vertex: Node,
        value: Any,
        messages: List[Any],
        successors: Tuple[Node, ...],
    ) -> VertexOutcome:
        best = min(messages)
        if value is not None and value <= best:
            return VertexOutcome()
        if self.max_level is not None and best >= self.max_level:
            return VertexOutcome(value=best, set_value=True)
        return VertexOutcome(
            value=best,
            set_value=True,
            messages=tuple((child, best + 1) for child in successors),
        )


@dataclass(frozen=True)
class SsspProgram(VertexProgram):
    """Textbook Pregel SSSP: non-negative weights, default 1.0 per edge.

    ``weight_fn`` must be picklable (a module-level function, not a
    lambda) to run on the socket backend; ``None`` means unit weights.
    """

    weight_fn: Optional[Callable[[Node, Node], float]] = None

    def combine(self, messages: List[Any]) -> List[Any]:
        return [min(messages)]

    def compute(
        self,
        vertex: Node,
        value: Any,
        messages: List[Any],
        successors: Tuple[Node, ...],
    ) -> VertexOutcome:
        best = min(messages)
        if value is not None and value <= best:
            return VertexOutcome()
        weight_fn = self.weight_fn or (lambda u, v: 1.0)
        return VertexOutcome(
            value=best,
            set_value=True,
            messages=tuple(
                (child, best + weight_fn(vertex, child)) for child in successors
            ),
        )


@dataclass(frozen=True)
class BoundedTokenProgram(VertexProgram):
    """disDistm's program: BFS levels capped at the bound, halt at target.

    In a level-synchronous BFS the first message to reach a vertex carries
    its exact distance, so the engine can halt the moment the target is
    reached.
    """

    target: Node
    bound: int

    def combine(self, messages: List[Any]) -> List[Any]:
        return [min(messages)]

    def compute(
        self,
        vertex: Node,
        value: Any,
        messages: List[Any],
        successors: Tuple[Node, ...],
    ) -> VertexOutcome:
        best = min(messages)
        if value is not None and value <= best:
            return VertexOutcome()
        if vertex == self.target:
            return VertexOutcome(
                value=best, set_value=True, halt=True, result=best, report="T"
            )
        if best >= self.bound:
            return VertexOutcome(value=best, set_value=True)
        return VertexOutcome(
            value=best,
            set_value=True,
            messages=tuple((child, best + 1) for child in successors),
        )


def pregel_bfs_levels(
    cluster: SimulatedCluster,
    source: Node,
    max_level: Optional[int] = None,
) -> Tuple[Dict[Node, int], object]:
    """BFS levels from ``source`` over the whole distributed graph.

    Returns ``(levels, stats)`` — hop distance for every reached node.
    """
    cluster.site_of(source)
    run = cluster.start_run("pregelBFS")
    engine = PregelEngine(cluster, run)
    engine.execute(BfsLevelProgram(max_level), {source: [0]})
    return dict(engine.values), run.finish()


def pregel_sssp(
    cluster: SimulatedCluster,
    source: Node,
    weight_fn=None,
) -> Tuple[Dict[Node, float], object]:
    """Single-source shortest paths (non-negative weights; default 1.0/edge).

    The textbook Pregel SSSP: vertices keep their best-known distance and
    propagate improvements until no message flows.
    """
    cluster.site_of(source)
    run = cluster.start_run("pregelSSSP")
    engine = PregelEngine(cluster, run)
    engine.execute(SsspProgram(weight_fn), {source: [0.0]})
    return dict(engine.values), run.finish()


def dis_dist_m(
    cluster: SimulatedCluster,
    query: Union[BoundedReachQuery, Tuple[Node, Node, int]],
) -> QueryResult:
    """Message-passing bounded reachability (extension; disReachm's sibling).

    BFS levels capped at the bound; true iff the target is reached within
    ``l`` hops.  Unbounded site visits, like every message-passing run.
    """
    if not isinstance(query, BoundedReachQuery):
        query = BoundedReachQuery(*query)
    cluster.site_of(query.source)
    cluster.site_of(query.target)

    run = cluster.start_run("disDistm")
    if query.source == query.target:
        return QueryResult(True, run.finish(), {"distance": 0.0, "trivial": True})
    run.broadcast(query, MessageKind.QUERY)

    engine = PregelEngine(cluster, run)
    found = engine.execute(
        BoundedTokenProgram(query.target, query.bound), {query.source: [0]}
    )
    answer = found is not None and found <= query.bound
    if not answer:
        for site in cluster.sites:
            run.send_to_coordinator(site.site_id, "idle", MessageKind.CONTROL)
    stats = run.finish()
    details = {
        "distance": float(found) if found is not None else None,
        "supersteps": stats.supersteps,
    }
    return QueryResult(answer, stats, details)
