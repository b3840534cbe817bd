"""A minimal Pregel-style vertex-centric BSP substrate (after [21]).

disReachm — the message-passing baseline of Section 7 — needs a Pregel-like
system: workers hold fragments, vertices exchange messages in synchronous
supersteps, and cross-fragment messages are *routed through the master*
(the paper's protocol: "Si sends a message v to Sc, which redirects the
message to workers Sj").

Since the executor layer became the single evaluation substrate (DESIGN.md
§5), supersteps are **sharded**: vertex programs are stateless, picklable
:class:`VertexProgram` dataclasses, per-vertex state lives in an explicit
engine-side dict, and each superstep runs one :meth:`ParallelPhase.map`
round of per-site :func:`run_superstep` tasks — the same move Pregel itself
makes (Malewicz et al., SIGMOD 2010).  A task receives only what its site
stores (its fragments, the pending messages and state values of its
vertices) and returns a pure :class:`SiteSuperstepResult`; the engine then
routes the outboxes through the master.  Consequently the Pregel baselines
run on *every* executor backend — sequential and socket — with
bit-identical answers, visits, traffic, message logs and superstep counts
(asserted by ``tests/test_executors.py``).

Outgoing messages are aggregated at the fragment boundary before they leave
the worker: a program may declare a **combiner** (:meth:`VertexProgram.
combine`) that collapses the messages destined for one target vertex — the
classic Pregel combiner, placed at the sending site, so a fragment whose
many internal parents activate one remote child routes a single token
through the master instead of one per parent.

Accounting, on top of :class:`~repro.distributed.cluster.Run`:

* every cross-fragment message is two transfers (worker → master → worker)
  and the delivery to the destination worker counts as a **site visit** —
  this is what makes disReachm's visit count unbounded (Exp-1's story:
  hundreds of visits on 4 sites, vs. exactly 4 for disReach);
* every superstep pays one compute round (max worker time) and one routing
  round (latency + max transferred bytes) — the serialization cost the
  paper attributes to message passing.

The engine is generic: any :class:`VertexProgram` (BFS, SSSP — see
:mod:`repro.baselines.pregel_programs`) runs unchanged on the substrate.

**Shortcut precompute** (DESIGN.md §13): the engine optionally runs over a
:class:`~repro.graph.shortcuts.ShortcutSet` — an augmented adjacency whose
extra edges provably preserve reachability while collapsing the superstep
count from O(diameter) to ~O(sqrt(n)) on high-diameter graphs.  A program
sees a plain tuple of successor nodes: the original fragment successors
first, then any shortcut targets.  Shortcut targets are disjoint from
original successors by construction, so every outgoing message is
classified at the sending site (the ``via_shortcut`` provenance tag) and
the engine accounts shortcut routing — messages, master-routed transfers,
bytes — separately from original-edge traffic.  With no shortcut set
installed the pipeline is byte-identical to the unaugmented substrate:
same messages, same order, same modeled stats.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from ..distributed.cluster import Run, SimulatedCluster
from ..distributed.messages import COORDINATOR, MessageKind, payload_size
from ..errors import DistributedError
from ..graph.digraph import Node
from ..graph.shortcuts import ShortcutSet
from ..partition.fragment import Fragment

#: Per-vertex shortcut targets as shipped to a site task: the pending
#: vertices' slice of :attr:`~repro.graph.shortcuts.ShortcutSet.edges`.
ShortcutSlice = Dict[Node, Tuple[Node, ...]]


class VertexOutcome(NamedTuple):
    """What one vertex decided during one superstep (pure data).

    ``set_value`` distinguishes "store ``value`` as the vertex's new state"
    from "leave the state alone" (``value`` alone cannot: ``None`` is a
    legal state).  ``report`` is an optional payload the worker sends to
    the master (a CONTROL message, e.g. disReachm's ``"T"``); ``halt``
    stops the engine after this superstep with ``result``.
    """

    value: Any = None
    set_value: bool = False
    messages: Tuple[Tuple[Node, Any], ...] = ()
    halt: bool = False
    result: Any = None
    report: Any = None


class VertexProgram:
    """A stateless, picklable vertex program.

    Subclasses are frozen dataclasses holding only the query parameters
    (target, bound, ...) — never per-vertex state, which lives in the
    engine's explicit value dict and is passed in per superstep.  The
    socket backend ships program instances to brokers, so every field
    must be picklable.
    """

    def compute(
        self,
        vertex: Node,
        value: Any,
        messages: List[Any],
        successors: Tuple[Node, ...],
    ) -> VertexOutcome:
        """One vertex's reaction to its superstep inbox.

        ``value`` is the vertex's current state (``None`` if never set);
        ``successors`` are the out-neighbors in the owner fragment's local
        graph (internal edges and cross edges to virtual nodes alike),
        followed by any shortcut targets.
        """
        raise NotImplementedError

    def combine(self, messages: List[Any]) -> List[Any]:
        """Combiner: collapse the worker's messages to one target vertex.

        Called once per (sending site, target vertex) before messages leave
        the worker — combiner placement at the fragment boundary, as in
        Pregel.  The default keeps every message (no combining); programs
        whose semantics only need an aggregate override it (e.g.
        ``[min(messages)]`` for BFS/SSSP, ``messages[:1]`` for tokens).
        Must be deterministic: modeled traffic depends on it.
        """
        return messages


class SiteSuperstepResult(NamedTuple):
    """One site's share of one superstep, as pure data.

    ``updates`` are the new per-vertex state values; ``outbox`` the
    combined outgoing ``(target, value, via_shortcut)`` messages in
    deterministic (first-occurrence) order — ``via_shortcut`` is the
    provenance tag separating shortcut-edge from original-edge traffic;
    ``reports`` the payloads to forward to the master; ``halted``/``result``
    the (last) halt decision of the site's vertices.
    """

    updates: Dict[Node, Any]
    outbox: Tuple[Tuple[Node, Any, bool], ...]
    reports: Tuple[Any, ...]
    halted: bool
    result: Any


def run_superstep(
    program: VertexProgram,
    fragments: Tuple[Fragment, ...],
    vertex_messages: Dict[Node, List[Any]],
    values: Dict[Node, Any],
    superstep: int,
    shortcuts: Optional[ShortcutSlice] = None,
) -> SiteSuperstepResult:
    """One site's superstep: a pure, module-level (hence picklable) task.

    Runs ``program.compute`` for every pending vertex of the site against
    the shipped state slice, then applies the program's combiner per target
    vertex before the messages leave the worker.  Deterministic in its
    inputs, so every executor backend produces the same result.

    ``shortcuts`` is the pending vertices' slice of a shortcut set: each
    vertex's successors are extended with its shortcut targets (which are
    disjoint from its original successors by construction), and every
    generated message is tagged ``via_shortcut`` by target membership.
    The combiner runs per ``(target, via_shortcut)`` class so provenance
    survives boundary aggregation; with ``shortcuts=None`` every tag is
    ``False`` and the outbox matches the unaugmented substrate exactly.
    """
    updates: Dict[Node, Any] = {}
    outbox: List[Tuple[Node, Any, bool]] = []
    reports: List[Any] = []
    halted = False
    result: Any = None
    for vertex, messages in vertex_messages.items():
        successors: Tuple[Node, ...] = ()
        for fragment in fragments:
            if vertex in fragment.nodes:
                # Deterministic (repr) order: successor sets iterate in hash
                # order, which varies with PYTHONHASHSEED across processes —
                # the socket backend's brokers are fresh interpreters, so
                # hash order there is not the coordinator's.
                successors = tuple(
                    sorted(fragment.local_graph.successors(vertex), key=repr)
                )
                break
        extra = shortcuts.get(vertex, ()) if shortcuts else ()
        shortcut_targets = set(extra)
        value = updates.get(vertex, values.get(vertex))
        outcome = program.compute(vertex, value, messages, successors + extra)
        if outcome.set_value:
            updates[vertex] = outcome.value
        for target, payload in outcome.messages:
            outbox.append((target, payload, target in shortcut_targets))
        if outcome.report is not None:
            reports.append(outcome.report)
        if outcome.halt:
            halted = True
            result = outcome.result
    # Combiner at the fragment boundary: one combined inbox per target and
    # provenance class (dict insertion order keeps first-occurrence order
    # deterministic).  Keeping the classes separate costs at most one
    # extra message per (site, target) when both edge kinds feed a target,
    # and is what lets the engine account shortcut traffic separately.
    by_target: Dict[Tuple[Node, bool], List[Any]] = {}
    for target, payload, via_shortcut in outbox:
        by_target.setdefault((target, via_shortcut), []).append(payload)
    combined: List[Tuple[Node, Any, bool]] = []
    for (target, via_shortcut), payloads in by_target.items():
        for payload in program.combine(payloads):
            combined.append((target, payload, via_shortcut))
    return SiteSuperstepResult(
        updates, tuple(combined), tuple(reports), halted, result
    )


class PregelEngine:
    """Synchronous superstep executor over one cluster + accounting run.

    Per-vertex state is an explicit dict (:attr:`values`); each superstep
    ships every pending site its message batch and state slice as one
    :func:`run_superstep` task via :meth:`ParallelPhase.map`, so the
    supersteps execute on whatever backend the cluster uses.
    """

    def __init__(
        self,
        cluster: SimulatedCluster,
        run: Run,
        shortcuts: Optional[ShortcutSet] = None,
    ) -> None:
        self.cluster = cluster
        self.run = run
        #: Explicit per-vertex state (what the old closure captures held).
        self.values: Dict[Node, Any] = {}
        self.owner: Dict[Node, int] = cluster.node_site_map()
        self._result: Any = None
        self._halted = False
        #: Optional augmented adjacency (DESIGN.md §13); per-superstep
        #: slices of it ship with each site task.
        self.shortcuts = shortcuts
        #: Shortcut-traffic provenance: deliveries, master-routed
        #: transfers and routed bytes attributable to shortcut edges.
        self.shortcut_messages = 0
        self.shortcut_routed = 0
        self.shortcut_traffic_bytes = 0

    def execute(
        self,
        program: VertexProgram,
        initial_messages: Dict[Node, List[Any]],
        max_supersteps: int = 100_000,
    ) -> Any:
        """Run supersteps until no messages remain or a vertex halted.

        ``initial_messages`` seeds superstep 0 (e.g. a token at the source
        vertex).  Returns whatever a vertex halted with, else ``None``.
        """
        pending = {vertex: list(msgs) for vertex, msgs in initial_messages.items()}
        superstep = 0
        while pending and not self._halted:
            if superstep >= max_supersteps:
                raise DistributedError(
                    f"Pregel computation exceeded {max_supersteps} supersteps"
                )
            by_site: Dict[int, Dict[Node, List[Any]]] = {}
            for vertex, msgs in pending.items():
                by_site.setdefault(self.owner[vertex], {})[vertex] = msgs
            site_ids = list(by_site)  # first-occurrence order, deterministic

            tasks = []
            for site_id in site_ids:
                vertex_msgs = by_site[site_id]
                fragments = tuple(
                    fragment
                    for fragment in self.cluster.site(site_id).fragments
                    if any(vertex in fragment.nodes for vertex in vertex_msgs)
                )
                values = {vertex: self.values.get(vertex) for vertex in vertex_msgs}
                slice_: Optional[ShortcutSlice] = None
                if self.shortcuts is not None:
                    slice_ = {
                        vertex: self.shortcuts.edges[vertex]
                        for vertex in vertex_msgs
                        if vertex in self.shortcuts.edges
                    }
                tasks.append(
                    (
                        site_id,
                        (program, fragments, vertex_msgs, values, superstep, slice_),
                    )
                )

            outboxes: List[Tuple[int, Node, Any, bool]] = []
            with self.run.parallel_phase() as phase:
                results = phase.map(run_superstep, tasks)
                for site_id, site_result in zip(site_ids, results):
                    self.values.update(site_result.updates)
                    for target, value, via_shortcut in site_result.outbox:
                        outboxes.append((site_id, target, value, via_shortcut))
                    for payload in site_result.reports:
                        # "Si sends message T to Sc" — the worker's report,
                        # charged inside the phase like any other transfer.
                        self.run.send_to_coordinator(
                            site_id, payload, MessageKind.CONTROL
                        )
                    if site_result.halted:
                        self._halted = True
                        self._result = site_result.result

            pending = self._route(outboxes)
            superstep += 1
        return self._result

    # ------------------------------------------------------------------
    def _route(
        self, outboxes: List[Tuple[int, Node, Any, bool]]
    ) -> Dict[Node, List[Any]]:
        """Deliver messages; cross-fragment ones go through the master.

        Shortcut-tagged messages are charged exactly like original-edge
        ones (they are real traffic), but tallied separately so the
        accounting can report how much of a run's cost the augmented
        edges carried (DESIGN.md §13).
        """
        nxt: Dict[Node, List[Any]] = {}
        up_bytes: Dict[int, int] = {}  # worker -> master, per source site
        down_bytes: Dict[int, int] = {}  # master -> worker, per destination site
        routed = 0
        for src_site, target, value, via_shortcut in outboxes:
            dst_site = self.owner.get(target)
            if dst_site is None:
                raise DistributedError(f"message to unknown vertex {target!r}")
            nxt.setdefault(target, []).append(value)
            if via_shortcut:
                self.shortcut_messages += 1
            if dst_site == src_site:
                continue  # intra-worker delivery: free
            size = payload_size(target) + payload_size(value)
            self.run.stats.record_message(
                src_site, COORDINATOR, MessageKind.TOKEN, size
            )
            # The redirect counts as a visit to the destination site.
            self.run.stats.record_message(
                COORDINATOR, dst_site, MessageKind.TOKEN, size
            )
            up_bytes[src_site] = up_bytes.get(src_site, 0) + size
            down_bytes[dst_site] = down_bytes.get(dst_site, 0) + size
            routed += 1
            if via_shortcut:
                self.shortcut_routed += 1
                self.shortcut_traffic_bytes += 2 * size
        if up_bytes:
            self.run.network_round(up_bytes)
        if down_bytes:
            self.run.network_round(down_bytes)
        # The master handles each redirected message individually — the
        # serialization cost the paper criticizes in message passing.
        self.run.serialized_routing(routed)
        return nxt

    def shortcut_details(self) -> Dict[str, Any]:
        """The shortcut-provenance summary entry points attach to results."""
        assert self.shortcuts is not None
        stats = self.shortcuts.stats
        return {
            "mode": self.shortcuts.kind,
            "edges": stats.edges,
            "pivots": stats.pivots,
            "build_seconds": stats.build_seconds,
            "messages": self.shortcut_messages,
            "routed": self.shortcut_routed,
            "traffic_bytes": self.shortcut_traffic_bytes,
        }
