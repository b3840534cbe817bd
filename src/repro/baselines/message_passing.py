"""disReachm: the message-passing distributed BFS baseline (Section 7).

Following [21] (Pregel), with the exact protocol the paper describes:

(i)   every node carries a status flag, initially ``inactive``;
(ii)  a token "T" flows only from active nodes to inactive children, which
      then become active;
(iii) no active node ever becomes inactive again;
(iv)  a worker may send "T", "idle", or a virtual node to the master, which
      redirects virtual-node tokens to the owning worker.

The run returns *true* the moment "T" reaches the target (the worker reports
to the master), and *false* once every worker is idle.  Performance-wise
this serializes BFS frontiers into supersteps and pays a master round-trip
for every cross-fragment activation — hence unbounded site visits and a
response time that grows with fragment count, the paper's Exp-1 story.

Executor note (DESIGN.md §5): the vertex program is the stateless,
picklable :class:`ReachTokenProgram` dataclass; per-vertex activation flags
live in the engine's explicit state dict, and every superstep is one
:meth:`ParallelPhase.map` round of per-site :func:`~repro.baselines.pregel.
run_superstep` tasks.  Duplicate tokens to one target are collapsed by the
program's combiner at the sending fragment's boundary before they reach the
master.  disReachm therefore runs on all three executor backends with
bit-identical modeled stats — its unbounded visit count comes from the
protocol, not from how the supersteps execute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple, Union

from ..core.queries import ReachQuery
from ..core.results import QueryResult
from ..distributed.cluster import SimulatedCluster
from ..distributed.messages import MessageKind
from ..graph.digraph import Node
from ..graph.shortcuts import resolve_shortcuts
from .pregel import PregelEngine, VertexOutcome, VertexProgram


@dataclass(frozen=True)
class ReachTokenProgram(VertexProgram):
    """The paper's token protocol (i)–(iii) as a stateless vertex program.

    Per-vertex state is the activation flag; the only parameter is the
    query target.  The combiner keeps a single "T" per target vertex —
    tokens carry no payload beyond their arrival, so duplicates from one
    fragment are pure master-routing overhead.
    """

    target: Node

    def combine(self, messages: List[Any]) -> List[Any]:
        return messages[:1]

    def compute(
        self,
        vertex: Node,
        value: Any,
        messages: List[Any],
        successors: Tuple[Node, ...],
    ) -> VertexOutcome:
        if value:  # already active: tokens to active nodes are dropped (iii)
            return VertexOutcome()
        if vertex == self.target:
            # "if T reaches the node t, Si sends message T to Sc" (ii).
            return VertexOutcome(
                value=True, set_value=True, halt=True, result=True, report="T"
            )
        return VertexOutcome(
            value=True,
            set_value=True,
            messages=tuple((child, "T") for child in successors),
        )


def dis_reach_m(
    cluster: SimulatedCluster,
    query: Union[ReachQuery, Tuple[Node, Node]],
    shortcuts: Optional[str] = None,
) -> QueryResult:
    """Distributed BFS over the Pregel substrate.

    ``shortcuts`` selects a precomputed shortcut overlay (DESIGN.md §13):
    ``"reach"`` runs the token protocol over the augmented adjacency — the
    answer is unchanged (shortcuts only connect pairs that were already
    reachable) while the superstep count collapses to sub-diameter;
    ``None`` defers to the process default / env var.
    """
    if not isinstance(query, ReachQuery):
        query = ReachQuery(*query)
    cluster.site_of(query.source)
    cluster.site_of(query.target)
    mode = resolve_shortcuts(shortcuts)
    shortcut_set = cluster.shortcut_set(mode) if mode != "none" else None

    run = cluster.start_run("disReachm")
    if query.source == query.target:
        stats = run.finish()
        return QueryResult(True, stats, {"trivial": True})

    # The master posts the query to every worker.
    run.broadcast(query, MessageKind.QUERY)

    engine = PregelEngine(cluster, run, shortcuts=shortcut_set)
    result = engine.execute(ReachTokenProgram(query.target), {query.source: ["T"]})
    answer = bool(result)

    if not answer:
        # "when no message is propagating in Si, it sends 'idle' to Sc" (iv).
        for site in cluster.sites:
            run.send_to_coordinator(site.site_id, "idle", MessageKind.CONTROL)

    stats = run.finish()
    details = {"supersteps": stats.supersteps, "activated": len(engine.values)}
    if shortcut_set is not None:
        details["shortcuts"] = engine.shortcut_details()
    return QueryResult(answer, stats, details)
