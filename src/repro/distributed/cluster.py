"""The simulated distributed cluster: coordinator ``Sc`` plus sites ``S1..Sk``.

The cluster executes distributed algorithms *sequentially* in one process
while accounting for exactly what a real deployment would measure (see
DESIGN.md §3.1 and §4):

* every payload that crosses a site boundary is charged to traffic;
* every delivery of work to a site counts as a *visit*;
* per-site compute time is measured and combined per-phase as a maximum,
  because in the real system the sites run concurrently ("partial evaluation
  is conducted in parallel at each site, without waiting for the outcome or
  messages from any other site", Section 1);
* network time is modeled as ``latency + bytes / bandwidth`` per round, with
  transfers inside one parallel round overlapping (max, not sum).  This is
  what makes the baselines behave as in the paper: ship-all gets faster as
  fragments shrink, message passing pays latency once per superstep.

*Execution* of the site-local work is delegated to a pluggable backend
(:mod:`repro.distributed.executors`, DESIGN.md §5): ``sequential`` (the
default — inline, deterministic) or ``socket``.  Backends only
change how fast the wall clock runs; per-site compute is timed where it
runs, so answers and the modeled costs above are identical under every
backend.

Algorithms drive a :class:`Run`::

    run = cluster.start_run("disReach")
    run.broadcast(query)                       # 1 visit per site
    with run.parallel_phase() as phase:
        # submit one picklable closure per site to the executor backend
        answers = phase.map(
            local_eval_task,
            [(site.site_id, (tuple(site.fragments), query)) for site in cluster.sites],
        )
        for site, answer in zip(cluster.sites, answers):
            run.send_to_coordinator(site.site_id, answer)
    with run.coordinator_work():
        result = assemble(...)
    stats = run.finish()

(``phase.at(site_id)`` remains available for inline, timed site work, but
since the Pregel substrate moved to sharded supersteps — stateless vertex
programs submitted through ``phase.map`` — every algorithm in the repo
evaluates through the executor protocol; ``phase.at`` is kept for ad-hoc
callers and tests.)

Every fragment state carries a process-unique ``Fragment.version``, which
the serving layer (:mod:`repro.serving`) keys its partial-result cache on;
every write installs successor states through one function, so that is all
the invalidation protocol there is (DESIGN.md §6/§8).
"""

from __future__ import annotations

import time
import weakref
from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from ..errors import DistributedError, QueryError
from ..graph.digraph import DiGraph, Node
from ..partition.builder import build_fragmentation
from ..partition.fragment import Fragment, Fragmentation
from ..partition.partitioners import call_partitioner, get_partitioner
from ..partition.quality import RepartitionReport, measure_quality
from ..partition.validation import check_fragmentation
from .executors import ExecutorBackend, SiteTask, resolve_executor
from .messages import COORDINATOR, MessageKind, payload_size
from .site import Site
from .stats import ExecutionStats, PhaseTimer

#: Defaults for the network model: a 2012-era cloud link (the paper ran on
#: EC2) with sub-ms latency — effective TCP throughput around 50 MB/s.
DEFAULT_BANDWIDTH = 50e6  # bytes / second
DEFAULT_LATENCY = 5e-4  # seconds per communication round
#: Per-message handling time at a coordinating master that must route
#: messages one by one (RPC parse + lookup + forward).  This is the
#: serialization cost the paper attributes to message passing [21]; the
#: partial-evaluation algorithms never pay it (they send one bulk message
#: per site per phase).
DEFAULT_MASTER_SERVICE = 5e-5  # seconds per routed message


class ParallelPhase(PhaseTimer):
    """One parallel round: a per-site timer plus task submission.

    Site-local work can be accounted two ways:

    * ``phase.map(fn, tasks)`` — submit one closure per site to the
      cluster's executor backend.  ``fn`` must be module-level and its
      arguments picklable (the socket backend ships them to brokers);
      results come back in task order, each site's measured compute time
      folded into the phase timer.  Every algorithm in the repo —
      including the Pregel substrate's sharded supersteps — submits its
      site work this way.
    * ``with phase.at(site_id): ...`` — run inline, timed.  Always
      sequential regardless of backend; for ad-hoc inline site work.
    """

    def __init__(self, run: "Run") -> None:
        super().__init__()
        self._run = run

    def map(
        self,
        fn: Callable[..., Any],
        tasks: Iterable[Tuple[int, Tuple[Any, ...]]],
    ) -> List[Any]:
        """Run ``fn(*args)`` for every ``(site_id, args)`` via the backend.

        Returns the task values in submission order.  Each task's runtime is
        credited to its site, preserving the max-of-phase response-time
        semantics under every backend.
        """
        site_tasks = [SiteTask(site_id, fn, tuple(args)) for site_id, args in tasks]
        results = self._run.cluster.executor.run_tasks(site_tasks)
        for result in results:
            self.site_seconds[result.site_id] = (
                self.site_seconds.get(result.site_id, 0.0) + result.seconds
            )
        return [result.value for result in results]


class Run:
    """Accounting context for one distributed query evaluation."""

    def __init__(
        self,
        cluster: "SimulatedCluster",
        algorithm: str,
        started: Optional[float] = None,
    ) -> None:
        """``started`` is an earlier ``perf_counter`` reading to time ``wall_seconds`` from."""
        self.cluster = cluster
        self.stats = ExecutionStats(
            algorithm=algorithm,
            num_sites=len(cluster.sites),
            executor=cluster.executor.name,
        )
        self._start = time.perf_counter() if started is None else started
        self._finished = False
        self._phase_bytes: Optional[Dict[int, int]] = None  # per-sender, in-phase

    # ------------------------------------------------------------------
    # network model
    # ------------------------------------------------------------------
    def _transfer_seconds(self, size: int) -> float:
        return size / self.cluster.bandwidth

    def _charge_round(self, max_bytes: int) -> None:
        seconds = self.cluster.latency + self._transfer_seconds(max_bytes)
        self.stats.response_seconds += seconds
        self.stats.network_seconds += seconds

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------
    def broadcast(
        self,
        payload: object,
        kind: MessageKind = MessageKind.QUERY,
        size: Optional[int] = None,
    ) -> None:
        """Coordinator posts ``payload`` to every site (1 visit each).

        All transfers happen concurrently: one latency, one payload time.
        ``size`` is the payload's already-computed :func:`payload_size`
        (see :meth:`send_to_coordinator`).
        """
        if size is None:
            size = payload_size(payload)
        for site in self.cluster.sites:
            self.stats.record_message(COORDINATOR, site.site_id, kind, size)
        self._charge_round(size)

    def send_to_site(
        self,
        site_id: int,
        payload: object,
        kind: MessageKind = MessageKind.QUERY,
        src: int = COORDINATOR,
        charge_time: bool = True,
        size: Optional[int] = None,
    ) -> None:
        """Targeted delivery of work to one site (counts as a visit).

        Round-based algorithms that batch many sends should pass
        ``charge_time=False`` and account the round via :meth:`network_round`.
        ``size`` is the payload's already-computed :func:`payload_size`
        (see :meth:`send_to_coordinator`).
        """
        self.cluster.site(site_id)  # validates the id
        if size is None:
            size = payload_size(payload)
        self.stats.record_message(src, site_id, kind, size)
        if charge_time:
            self._charge_round(size)

    def send_to_coordinator(
        self,
        site_id: int,
        payload: object = None,
        kind: MessageKind = MessageKind.PARTIAL,
        size: Optional[int] = None,
    ) -> None:
        """Site ships a payload to ``Sc``.

        Inside a parallel phase the transfer overlaps with the other sites'
        transfers (network time = max over sites, charged at phase end);
        outside, it is charged immediately as its own round.

        ``size`` overrides the payload-size computation for callers that
        already know it — the ship-all baselines, whose executor tasks
        charge the serialization to the site's compute time and return only
        the byte counts, and the serving engine, which sizes a partial
        answer once when its cache entry is produced (DESIGN.md §6).
        """
        if size is None:
            if payload is None:
                raise DistributedError(
                    "send_to_coordinator needs a payload or an explicit size"
                )
            size = payload_size(payload)
        self.stats.record_message(site_id, COORDINATOR, kind, size)
        if self._phase_bytes is not None:
            self._phase_bytes[site_id] = self._phase_bytes.get(site_id, 0) + size
        else:
            self._charge_round(size)

    def network_round(self, bytes_by_site: Dict[int, int]) -> None:
        """Charge one communication round of concurrent transfers."""
        self._charge_round(max(bytes_by_site.values(), default=0))

    def serialized_routing(self, num_messages: int) -> None:
        """Charge the master's one-by-one handling of routed messages."""
        if num_messages > 0:
            seconds = num_messages * self.cluster.master_service
            self.stats.response_seconds += seconds
            self.stats.network_seconds += seconds

    # ------------------------------------------------------------------
    # timing
    # ------------------------------------------------------------------
    @contextmanager
    def parallel_phase(self) -> Iterator[ParallelPhase]:
        """One round in which all sites compute (and ship) concurrently.

        Yields a :class:`ParallelPhase`; submit site closures with
        ``phase.map`` (runs on the cluster's executor backend) or time
        inline work with ``phase.at``.  The modeled charge stays the same
        either way — max of per-site compute plus one overlapped network
        round — while the real elapsed time of the round is recorded
        separately for speedup reporting.
        """
        if self._phase_bytes is not None:
            raise DistributedError("parallel phases cannot nest")
        timer = ParallelPhase(self)
        self._phase_bytes = {}
        start = time.perf_counter()
        try:
            yield timer
        finally:
            phase_bytes = self._phase_bytes
            self._phase_bytes = None
        wall = time.perf_counter() - start
        self.stats.add_parallel_phase(timer.site_seconds, wall_seconds=wall)
        if phase_bytes:
            self._charge_round(max(phase_bytes.values()))
        self.stats.supersteps += 1

    @contextmanager
    def coordinator_work(self) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.stats.add_coordinator_time(time.perf_counter() - start)

    def finish(self) -> ExecutionStats:
        if self._finished:
            raise DistributedError("Run.finish() called twice")
        self._finished = True
        self.stats.wall_seconds = time.perf_counter() - self._start
        return self.stats


def _resolve_assignment(
    graph: DiGraph,
    num_fragments: int,
    partitioner: Union[str, Callable, Mapping[Node, int]],
    seed: int,
) -> Tuple[Dict[Node, int], str]:
    """Turn a partitioner name / callable / explicit mapping into an assignment.

    Returns ``(assignment, label)`` where ``label`` names the strategy for
    reports.  ``seed=`` is forwarded iff the callable's signature takes it
    (:func:`~repro.partition.partitioners.call_partitioner` — the
    partitioner runs exactly once either way).
    """
    if isinstance(partitioner, str):
        fn, label = get_partitioner(partitioner), partitioner
    elif isinstance(partitioner, Mapping):
        return dict(partitioner), "<assignment>"
    elif callable(partitioner):
        fn = partitioner
        label = getattr(partitioner, "__name__", "<callable>")
    else:
        raise DistributedError(
            f"partitioner must be a name, callable or node->fragment mapping, "
            f"got {type(partitioner).__name__}"
        )
    return call_partitioner(fn, graph, num_fragments, seed), label


def _without(ids: Mapping[Node, int], node: Node, kept: bool) -> Mapping[Node, int]:
    """A fragment's ``boundary_ids`` after a cross-edge removal: ``ids``
    itself while ``node`` stays on its boundary (``kept``), else a copy
    without it (the fragmentation's table keeps its id)."""
    if kept:
        return ids
    return {other: i for other, i in ids.items() if other != node}


class SimulatedCluster:
    """Sites holding the fragments of one graph, plus a coordinator."""

    def __init__(
        self,
        fragmentation: Fragmentation,
        bandwidth: float = DEFAULT_BANDWIDTH,
        latency: float = DEFAULT_LATENCY,
        master_service: float = DEFAULT_MASTER_SERVICE,
        fragment_assignment: Optional[Dict[int, int]] = None,
        executor: Union[str, ExecutorBackend, None] = None,
    ) -> None:
        """``fragment_assignment`` maps fragment id -> site id, letting one
        site host several fragments (Section 2.1's remark: "multiple
        fragments may reside in a single site"); by default each fragment
        gets its own site.

        ``executor`` selects the execution backend for parallel phases — a
        name from :data:`repro.distributed.executors.EXECUTORS`
        (``sequential``/``socket``), a backend
        instance, or ``None`` for the process-wide default (normally
        sequential)."""
        if bandwidth <= 0:
            raise DistributedError("bandwidth must be positive")
        if latency < 0:
            raise DistributedError("latency must be non-negative")
        if master_service < 0:
            raise DistributedError("master_service must be non-negative")
        self.bandwidth = bandwidth
        self.latency = latency
        self.master_service = master_service
        self.executor = resolve_executor(executor)
        self.executor.bind_cluster(self)
        self._install_fragmentation(fragmentation, fragment_assignment)
        # Dynamic-graph protocol state (DESIGN.md §8): the partition epoch
        # counts fragmentation generations, the weak registries hold the
        # open incremental sessions / serving caches that must be notified
        # when the fragmentation changes, and the optional MutationMonitor
        # watches |Vf| drift.  All references are weak: a dropped session,
        # cache or monitor unregisters itself by being garbage collected.
        self._partition_epoch = 0
        self._sessions: "weakref.WeakSet" = weakref.WeakSet()
        self._caches: "weakref.WeakSet" = weakref.WeakSet()
        self._monitor_ref: Optional["weakref.ReferenceType"] = None
        # Weak sets iterate in hash order; registrations get a monotone
        # ticket so batched session remaps (and the shared-cache pick)
        # process registrants in a deterministic order.
        self._registration_counter = 0
        # Shortcut overlays (DESIGN.md §13), cached per mode.  Keyed on
        # every fragment version, so any write or repartition makes the
        # cached set unreachable and the next query rebuilds from the
        # restored graph (mutate-then-rebuild soundness).
        self._shortcut_sets: Dict[tuple, "ShortcutSet"] = {}

    def _install_fragmentation(
        self,
        fragmentation: Fragmentation,
        fragment_assignment: Optional[Dict[int, int]],
    ) -> None:
        """Point the cluster at ``fragmentation``: build sites, place fragments."""
        if len(fragmentation) == 0:
            raise DistributedError("a cluster needs at least one fragment")
        if fragment_assignment is None:
            fragment_assignment = {frag.fid: frag.fid for frag in fragmentation}
        missing = [f.fid for f in fragmentation if f.fid not in fragment_assignment]
        if missing:
            raise DistributedError(f"fragment_assignment misses fragment(s) {missing}")
        by_site: Dict[int, List] = {}
        for frag in fragmentation:
            by_site.setdefault(fragment_assignment[frag.fid], []).append(frag)
        site_ids = sorted(by_site)
        if site_ids != list(range(len(site_ids))):
            raise DistributedError(f"site ids must be contiguous from 0, got {site_ids}")
        self.fragmentation = fragmentation
        self._site_of_fragment: Dict[int, int] = dict(fragment_assignment)
        self.sites: List[Site] = [Site(sid, by_site[sid]) for sid in site_ids]

    # ------------------------------------------------------------------
    @classmethod
    def from_graph(
        cls,
        graph: DiGraph,
        num_fragments: int,
        partitioner: Union[str, Callable] = "random",
        seed: int = 0,
        bandwidth: float = DEFAULT_BANDWIDTH,
        latency: float = DEFAULT_LATENCY,
        master_service: float = DEFAULT_MASTER_SERVICE,
        executor: Union[str, ExecutorBackend, None] = None,
    ) -> "SimulatedCluster":
        """Partition ``graph`` into ``num_fragments`` and build the cluster.

        ``partitioner`` is a name from
        :data:`repro.partition.partitioners.PARTITIONERS`, a callable
        ``(graph, k[, seed]) -> assignment``, or a ready node->fragment
        mapping; ``executor`` picks the parallel execution backend (see
        :meth:`__init__`).
        """
        assignment, _label = _resolve_assignment(graph, num_fragments, partitioner, seed)
        fragmentation = build_fragmentation(graph, assignment, num_fragments)
        return cls(
            fragmentation,
            bandwidth=bandwidth,
            latency=latency,
            master_service=master_service,
            executor=executor,
        )

    # ------------------------------------------------------------------
    def site(self, site_id: int) -> Site:
        if not (0 <= site_id < len(self.sites)):
            raise DistributedError(
                f"no site {site_id} in a {len(self.sites)}-site cluster"
            )
        return self.sites[site_id]

    def site_of(self, node: Node) -> Site:
        """The site owning ``node`` (raises QueryError for unknown nodes)."""
        if not self.fragmentation.has_node(node):
            raise QueryError(f"node {node!r} is not stored at any site")
        fid = self.fragmentation.fragment_of(node).fid
        return self.sites[self._site_of_fragment[fid]]

    def site_of_fragment(self, fid: int) -> Site:
        """The site hosting fragment ``fid``."""
        try:
            return self.sites[self._site_of_fragment[fid]]
        except KeyError:
            raise DistributedError(f"no fragment {fid} in this cluster") from None

    def fragment_version(self, fid: int) -> int:
        """The version of fragment ``fid``'s installed state (cache keys)."""
        if not 0 <= fid < len(self.fragmentation):
            raise DistributedError(f"no fragment {fid} in this cluster")
        return self.fragmentation[fid].version

    def bump_fragment_version(self, fid: int) -> int:
        """Mark fragment ``fid`` as changed; returns the new version.

        Anything that mutates a fragment's local graph in place outside
        :meth:`apply_edge_mutation` (a session's ``resync``, direct test
        mutation) must call this: it installs a successor state through
        :meth:`_write`, so serving-layer partial results stop being served
        and registered caches drop them.
        """
        self.fragment_version(fid)  # validates the id
        self._write({fid: {}})
        return self.fragmentation[fid].version

    def shortcut_set(self, kind: str) -> "ShortcutSet":
        """The cached disReachm shortcut overlay for ``kind`` (``reach``).

        Built once per (mode, fragmentation state) from the restored global
        graph with the pinned seed 0 — construction is deterministic, so
        every executor backend sees the same augmented adjacency.  The cache
        key is every fragment version: any write or repartition installs new
        versions, so the overlay is rebuilt against the current graph on the
        next call (DESIGN.md §13).
        """
        from ..graph.shortcuts import build_shortcuts

        key = (kind, tuple(fragment.version for fragment in self.fragmentation))
        cached = self._shortcut_sets.get(key)
        if cached is None:
            graph = self.fragmentation.restore_graph()
            cached = build_shortcuts(graph, kind, seed=0)
            # Versions are globally monotone, so older states can never
            # come back: keep only the current overlay.
            self._shortcut_sets = {key: cached}
        return self._shortcut_sets[key]

    # ------------------------------------------------------------------
    # dynamic graphs: epoch, registries, in-place edge mutation (§8)
    # ------------------------------------------------------------------
    @property
    def partition_epoch(self) -> int:
        """Monotone fragmentation generation; bumped by :meth:`repartition`.

        Incremental sessions capture the epoch they initialized under and
        refuse to mutate through state from an older epoch — the guard that
        turns a silently-wrong standing answer into a loud :class:`QueryError`
        (or, for registered sessions, into an automatic remap).
        """
        return self._partition_epoch

    def _issue_registration_order(self, registrant: object) -> None:
        """Stamp ``registrant`` with a deterministic processing ticket."""
        if not hasattr(registrant, "_registration_order"):
            registrant._registration_order = self._registration_counter
            self._registration_counter += 1

    def register_session(self, session: object) -> None:
        """Weakly register an incremental session for repartition remapping.

        :meth:`repartition` remaps every live registered session after
        installing the new fragmentation, as one batched evaluation of the
        sessions' own plans through the serving engine (deduplicating the
        shared per-fragment work).  The registry holds weak references
        only — dropping the session is all the deregistration there is.
        """
        self._issue_registration_order(session)
        self._sessions.add(session)

    def register_cache(self, cache: object) -> None:
        """Weakly register a serving-layer cache for eager invalidation.

        Version-keyed lookups already miss stale entries; registration adds
        the *memory reclamation* half: fragment mutations and repartitions
        call ``cache.invalidate_fragment(fid)`` for every affected fragment
        so long-lived serving processes do not accumulate dead entries.
        The first-registered live cache is additionally the one the batched
        session remap shares (:meth:`repartition`), so remap partials are
        served from — and persist into — the serving layer's cache, under
        the same version keys as every other evaluation.
        """
        self._issue_registration_order(cache)
        self._caches.add(cache)

    @property
    def mutation_monitor(self) -> Optional[object]:
        """The attached drift monitor, if alive (see ``partition.monitor``)."""
        if self._monitor_ref is None:
            return None
        return self._monitor_ref()

    def attach_monitor(self, monitor: object) -> None:
        """Attach a :class:`~repro.partition.monitor.MutationMonitor` (weakly).

        The monitor is told about every :meth:`apply_edge_mutation` (and may
        react by triggering a bounded refinement → :meth:`repartition`) and
        about every repartition (to reset its drift baseline).
        """
        self._monitor_ref = weakref.ref(monitor)

    def ensure_current_fragment(self, fragment: Fragment) -> Fragment:
        """Assert ``fragment`` is the currently installed object for its fid.

        Raises :class:`QueryError` for *retired* handles — every write and
        every repartition installs new fragment states, and writing through
        an old one would bypass the state its site now serves.  The
        cluster's own mutation paths never hold
        handles — :meth:`apply_edge_mutation` re-resolves fragments by fid
        at call time — so this is the guard for *callers* that keep a
        :class:`Fragment` reference across mutations: call it (or
        re-resolve via ``cluster.fragmentation``) before touching a held
        handle's ``local_graph``.
        """
        fid = fragment.fid
        if (
            not 0 <= fid < len(self.fragmentation)
            or self.fragmentation[fid] is not fragment
        ):
            raise QueryError(
                f"fragment {fid} handle is stale: the cluster wrote or "
                "repartitioned it since the handle was taken; re-resolve via "
                "cluster.fragmentation before mutating"
            )
        return fragment

    def apply_edge_mutation(self, u: Node, v: Node, add: bool) -> Tuple[int, ...]:
        """Insert (``add=True``) or delete the edge ``(u, v)`` in place.

        The single mutation entry point for the dynamic world: validates
        everything *before* touching any state (unknown endpoints, adding a
        present edge, removing an absent one — all raise
        :class:`QueryError` with fragments, versions and caches untouched),
        then updates the owning fragment(s):

        * intra-fragment edges mutate the owner's ``local_graph`` directly;
        * cross-fragment edges change the fragmentation anatomy itself —
          ``Fi.O``/``cEi`` of the source fragment and ``Fi.I`` of the
          target fragment are rebuilt (the "bookkeeping, not algorithmics"
          the incremental-session module used to rule out).

        Then :meth:`_write` installs the successor states; the attached
        :attr:`mutation_monitor`, notified last, may repartition.

        Returns:
            The affected fragment ids — ``(fid,)`` for intra-fragment
            edges, ``(fid_u, fid_v)`` for cross edges.
        """
        for node in (u, v):
            if not self.fragmentation.has_node(node):
                raise QueryError(f"node {node!r} is not stored at any site")
        fu = self.fragmentation.placement[u]
        fv = self.fragmentation.placement[v]
        frag_u = self.fragmentation[fu]
        exists = frag_u.local_graph.has_edge(u, v)
        if add and exists:
            raise QueryError(f"edge ({u!r}, {v!r}) already exists")
        if not add and not exists:
            raise QueryError(f"edge ({u!r}, {v!r}) is not in the graph")

        if fu == fv:
            if add:
                frag_u.local_graph.add_edge(u, v)
            else:
                frag_u.local_graph.remove_edge(u, v)
            changes: Dict[int, Dict[str, Any]] = {fu: {}}
        elif add:
            changes = self._add_cross_edge(frag_u, self.fragmentation[fv], u, v)
        else:
            changes = self._remove_cross_edge(frag_u, self.fragmentation[fv], u, v)
        return self._write(changes, edge=(u, v, add))

    def _write(
        self,
        changes: Mapping[int, Mapping[str, Any]],
        edge: Optional[Tuple[Node, Node, bool]] = None,
    ) -> Tuple[int, ...]:
        """Every write's one path (DESIGN.md §8): install successor states.

        ``changes`` maps each written fid (the edge's source side first) to
        its anatomy changes; ``edge`` is the ``(u, v, added)`` delta already
        applied to the source side's graph, ``None`` for a version bump.
        Successors come from ``Fragment.replaced`` (carry table ``CARRY``);
        then the source side's CSR view is repaired by the delta
        (``core.csr.repair_view``), registered caches drop the fids and the
        monitor hears of the edge.
        """
        successors = [
            self.fragmentation[fid].replaced(**fields)
            for fid, fields in changes.items()
        ]
        self.fragmentation.replace_fragments(successors)
        for fragment in successors:
            site = self.site_of_fragment(fragment.fid)
            for slot, held in enumerate(site.fragments):
                if held.fid == fragment.fid:
                    site.fragments[slot] = fragment
        affected = tuple(changes)
        if edge is not None:
            u, v, added = edge
            if "_csr_cache" in successors[0].__dict__:  # numpy is loaded
                from ..core.csr import repair_view

                repair_view(successors[0], u, v, added)
        self._invalidate_caches(affected)
        monitor = self.mutation_monitor
        if edge is not None and monitor is not None:
            monitor.record_mutation(u, v, affected)
        return affected

    def _add_cross_edge(
        self, frag_u: Fragment, frag_v: Fragment, u: Node, v: Node
    ) -> Dict[int, Dict[str, Any]]:
        """Apply cross ``(u, v)``; the (source, target) anatomy changes."""
        local = frag_u.local_graph
        if not local.has_node(v):
            # The virtual placeholder carries the remote node's label
            # (Section 2.1: cross edges ship the labels of virtual nodes).
            local.add_node(v, frag_v.local_graph.label(v))
        local.add_edge(u, v)
        cross = tuple(sorted(frag_u.cross_edges + ((u, v),), key=repr))
        # v joins Vf (if new to it) under the table's id for it, minted once.
        ids = {v: self.fragmentation.intern(v)}
        return {
            frag_u.fid: {
                "virtual_nodes": frag_u.virtual_nodes | {v},
                "cross_edges": cross,
                "boundary_ids": {**frag_u.boundary_ids, **ids},
            },
            frag_v.fid: {
                "in_nodes": frag_v.in_nodes | {v},
                "boundary_ids": {**frag_v.boundary_ids, **ids},
            },
        }

    def _remove_cross_edge(
        self, frag_u: Fragment, frag_v: Fragment, u: Node, v: Node
    ) -> Dict[int, Dict[str, Any]]:
        """Delete cross ``(u, v)``; the (source, target) anatomy changes."""
        local = frag_u.local_graph
        local.remove_edge(u, v)
        new_cross = tuple(edge for edge in frag_u.cross_edges if edge != (u, v))
        virtual = frag_u.virtual_nodes
        if v not in {target for _src, target in new_cross}:
            # v was virtual only for this edge; drop the placeholder (it has
            # no other incident edges — virtual nodes never have outgoing
            # local edges, and its remaining incoming ones would be cross).
            virtual = virtual - {v}
            local.remove_node(v)
        still_in = any(target == v for _src, target in new_cross) or any(
            target == v
            for fragment in self.fragmentation
            if fragment.fid not in (frag_u.fid, frag_v.fid)
            for _src, target in fragment.cross_edges
        )
        in_nodes = frag_v.in_nodes if still_in else frag_v.in_nodes - {v}
        return {
            frag_u.fid: {
                "virtual_nodes": virtual,
                "cross_edges": new_cross,
                "boundary_ids": _without(frag_u.boundary_ids, v, v in virtual),
            },
            frag_v.fid: {
                "in_nodes": in_nodes,
                "boundary_ids": _without(frag_v.boundary_ids, v, still_in),
            },
        }

    def _invalidate_caches(self, fids: Iterable[int]) -> None:
        """Eagerly drop registered caches' entries for the given fragments."""
        for cache in list(self._caches):
            for fid in fids:
                cache.invalidate_fragment(fid)

    def repartition(
        self,
        partitioner: Union[str, Callable, Mapping[Node, int]] = "refined",
        num_fragments: Optional[int] = None,
        seed: int = 0,
    ) -> RepartitionReport:
        """Re-fragment the stored graph in place with a better partitioner.

        The graph is reassembled from the current fragments
        (:meth:`Fragmentation.restore_graph`, deterministic order), split by
        ``partitioner`` (a :data:`~repro.partition.partitioners.PARTITIONERS`
        name — typically ``refined`` or ``multilevel`` — a callable, or a
        ready node->fragment mapping), checked with
        :func:`~repro.partition.validation.check_fragmentation`, and
        installed on the current sites: fragment ``i`` stays on the site
        that hosted fragment ``i``.  A new ``card(F)`` rebuilds one site per
        fragment, and is refused on a cluster whose sites host several
        fragments (there is no site map to carry).  Answers to any query are
        unchanged (the guarantees are partition-agnostic); what moves are
        the boundary statistics the theorems charge traffic to.

        Cache soundness: every new fragment state has a never-issued version,
        so serving-layer :class:`~repro.serving.cache.SiteResultCache`
        entries keyed ``(fid, version, ...)`` for the *old* fragments can
        never be served for the new ones (registered caches also get their
        dead entries reclaimed eagerly).

        Dynamic-world protocol (DESIGN.md §8): the move is *not* free —
        every node whose hosting site changes is charged ``O(|Fi|)``-style
        shipping (its id, label and outgoing adjacency) under the network
        model, reported in the returned
        :attr:`~repro.partition.quality.RepartitionReport.shipping` stats.
        :attr:`partition_epoch` is bumped, every registered incremental
        session is remapped onto the new fragmentation
        (:meth:`_remap_sessions`), and the attached mutation monitor's drift
        baseline is reset.

        Args:
            partitioner: strategy name, callable, or explicit assignment.
            num_fragments: new ``card(F)`` (default: keep the current count).
            seed: forwarded to randomized partitioners.

        Returns:
            A :class:`~repro.partition.quality.RepartitionReport` with
            before/after :class:`~repro.partition.quality.PartitionQuality`.
        """
        before = measure_quality(self.fragmentation)
        graph = self.fragmentation.restore_graph()
        k = num_fragments if num_fragments is not None else len(self.fragmentation)
        same_card = k == len(self.fragmentation)
        if not same_card and self.num_sites < len(self.fragmentation):
            raise DistributedError(
                f"cannot repartition {len(self.fragmentation)} fragments on "
                f"{self.num_sites} sites into {k}: a shared-site cluster "
                "keeps its card(F)"
            )
        assignment, label = _resolve_assignment(graph, k, partitioner, seed)
        fragmentation = build_fragmentation(graph, assignment, k)
        check_fragmentation(graph, fragmentation)
        old_site_of_node = {
            node: self._site_of_fragment[fid]
            for node, fid in self.fragmentation.placement.items()
        }
        old_fids = tuple(frag.fid for frag in self.fragmentation)
        self._install_fragmentation(
            fragmentation, self._site_of_fragment if same_card else None
        )
        self._partition_epoch += 1
        moved_nodes, shipping = self._charge_shipping(graph, old_site_of_node)
        # Versions alone keep registered caches *sound*; eager invalidation
        # reclaims the memory of every retired fragment state.
        self._invalidate_caches(old_fids)
        remapped, remap_saved, remap_rounds, remap_tasks = self._remap_sessions()
        report = RepartitionReport(
            partitioner=label,
            before=before,
            after=measure_quality(fragmentation),
            moved_nodes=moved_nodes,
            shipping=shipping,
            epoch=self._partition_epoch,
            sessions_remapped=remapped,
            remap_visits_saved=remap_saved,
            remap_rounds=remap_rounds,
            remap_tasks=remap_tasks,
        )
        monitor = self.mutation_monitor
        if monitor is not None:
            monitor.note_repartition(report)
        return report

    def _remap_sessions(self) -> Tuple[int, int, int, int]:
        """Remap every live registered session onto the new fragmentation.

        Returns ``(sessions_remapped, visits_saved, map_rounds, tasks)``.
        The initialized sessions' own plans run as ONE
        :func:`~repro.serving.engine.execute_plans` batch: identical
        per-fragment tasks are deduplicated across sessions and served
        from/into the first-registered serving cache — a version-keyed hit
        is the only reuse — and each session installs its partials and
        answer from the batch.  Each session's replayed stats are
        bit-identical to a fresh ``initialize()`` on the new fragmentation;
        ``visits_saved`` is the per-session visit total minus what the
        batched round actually charged, the measurable saving of the dedup.
        """
        sessions = sorted(
            self._sessions, key=lambda s: getattr(s, "_registration_order", 0)
        )
        live = [session for session in sessions if session._begin_remap()]
        if not live:
            return 0, 0, 0, 0
        # Imported here: serving.engine imports this module at load time.
        from ..serving.engine import execute_plans

        caches = sorted(
            self._caches, key=lambda c: getattr(c, "_registration_order", 0)
        )
        batch = execute_plans(
            self,
            [session.plan for session in live],
            cache=caches[0] if caches else None,
        )
        for session, partials, result in zip(live, batch.partials, batch.results):
            session._finish_remap(partials, result)
        workload = batch.workload
        saved = workload.total_visits - workload.batch.total_visits
        return len(live), saved, workload.batch.supersteps, workload.tasks_executed

    def _charge_shipping(
        self, graph: DiGraph, old_site_of_node: Dict[Node, int]
    ) -> Tuple[int, ExecutionStats]:
        """Model the fragment-data movement of the just-installed layout.

        Every node whose hosting site changed ships its id, label and
        outgoing adjacency list from its old site to its new one — the
        ``O(moved |Fi|)`` cost the ROADMAP's online cost model calls for.
        Transfers are bulk per (source, destination) site pair and overlap
        in one network round (charged as the max per destination), matching
        how :class:`Run` accounts every other parallel transfer.
        """
        run = self.start_run("repartition")
        pair_bytes: Dict[Tuple[int, int], int] = {}
        moved = 0
        for node, fid in self.fragmentation.placement.items():
            dst = self._site_of_fragment[fid]
            src = old_site_of_node[node]
            if src == dst:
                continue
            moved += 1
            size = (
                payload_size(node)
                + payload_size(graph.label(node))
                + 2
                + sum(payload_size(nxt) for nxt in graph.successors(node))
            )
            key = (src, dst)
            pair_bytes[key] = pair_bytes.get(key, 0) + size
        if pair_bytes:
            bytes_by_dst: Dict[int, int] = {}
            for (src, dst), size in sorted(pair_bytes.items()):
                run.stats.record_message(src, dst, MessageKind.DATA, size)
                bytes_by_dst[dst] = bytes_by_dst.get(dst, 0) + size
            run.network_round(bytes_by_dst)
        return moved, run.finish()

    def node_site_map(self) -> Dict[Node, int]:
        """node -> hosting site id, for algorithms that route per vertex."""
        return {
            node: self._site_of_fragment[fid]
            for node, fid in self.fragmentation.placement.items()
        }

    @property
    def num_sites(self) -> int:
        return len(self.sites)

    def start_run(self, algorithm: str, started: Optional[float] = None) -> Run:
        return Run(self, algorithm, started)

    @contextmanager
    def using_executor(
        self, executor: Union[str, ExecutorBackend, None]
    ) -> Iterator["SimulatedCluster"]:
        """Temporarily evaluate on a different execution backend::

            with cluster.using_executor("socket"):
                result = evaluate(cluster, query)
        """
        previous = self.executor
        self.executor = resolve_executor(executor)
        self.executor.bind_cluster(self)
        try:
            yield self
        finally:
            self.executor = previous

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimulatedCluster(sites={len(self.sites)}, {self.fragmentation!r})"
