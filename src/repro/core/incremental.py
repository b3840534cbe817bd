"""Incremental distributed reachability (the paper's future-work direction).

The Conclusion sketches "combin[ing] partial evaluation and incremental
computation, to provide efficient distributed graph query evaluation
strategies in the dynamic world."  Partial evaluation makes this nearly
free: the coordinator's equation system is a *join* of independent
per-fragment contributions, so when an edge changes inside fragment ``Fi``

* only site ``Si`` recomputes its partial answer (one visit, one rvset
  shipped — every other site is left alone), and
* the coordinator swaps ``Fi``'s equations and re-solves the BES, which is
  O(|Vf|^2) regardless of |G|.

:class:`IncrementalReachSession` and :class:`IncrementalRegularSession`
maintain a *standing query* under edge insertions and deletions.
Cross-fragment updates change the fragmentation anatomy itself (virtual
nodes, in-node sets and cross edges move between sites); the cluster does
that bookkeeping in :meth:`~repro.distributed.cluster.SimulatedCluster.
apply_edge_mutation`, and the session re-evaluates the (at most two)
affected fragments — two visits, two rvsets, still independent of |G|.

Sessions evaluate **entirely on the plan/executor protocol** (DESIGN.md
§5/§6): the initial evaluation runs the session's own plan as a
batch-of-one through :func:`~repro.serving.engine.execute_plans` and
installs the partials the batch resolved, and the post-mutation partial
re-evaluation submits its affected fragments as picklable
:func:`~repro.serving.engine.eval_fragment_jobs` tasks via
:meth:`ParallelPhase.map` — so every session path runs on every executor
backend with identical modeled cost.

Sessions are **repartition-safe** (DESIGN.md §8).  Each session registers
weakly with its cluster and captures the cluster's ``partition_epoch`` at
:meth:`~_IncrementalSession.initialize` time.  When the cluster
repartitions — explicitly, or because a drift-triggered refinement fired —
the session is *remapped*: its cached per-fragment partials (keyed by
fragment ids that may now name entirely different fragments) are dropped
and the standing query is re-evaluated against the new fragmentation with
honest modeled cost.  The cluster runs every open session's plan as
**one** ``execute_plans`` batch, so N standing queries over the same new
fragmentation share the per-fragment work instead of paying it N times;
the only reuse across the move is a version-keyed cache hit, so a session
never contributes its own (possibly un-resynced) partials.  A session
that somehow missed the notification (the epoch guard) refuses to mutate
with a :class:`QueryError` instead of joining stale partials into a
silently wrong standing answer.

Errors follow one contract: anything a caller can get wrong — unknown
nodes, inserting a present edge, deleting an absent one, mutating an
uninitialized or stale session — raises :class:`QueryError` *before* any
fragment, version counter or cache is touched.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

from ..distributed.cluster import SimulatedCluster
from ..distributed.messages import MessageKind, payload_size
from ..errors import QueryError
from ..graph.digraph import Node
from ..serving.engine import eval_fragment_jobs, execute_plans
from ..serving.plans import QueryPlan
from .options import EvalOptions
from .queries import ReachQuery, RegularReachQuery
from .reachability import ReachPlan
from .regular import RegularReachPlan
from .results import QueryResult


class _IncrementalSession:
    """Shared machinery: cached per-site partial answers + re-solve."""

    algorithm = "incremental"

    def __init__(self, cluster: SimulatedCluster, plan: QueryPlan) -> None:
        self.cluster = cluster
        #: The standing query's partial-evaluation plan.  Every
        #: (re-)evaluation this session runs — full, remap, and
        #: post-mutation partial alike — asks this one plan for its local
        #: evaluation, payloads and assembly, so all paths run under the
        #: same resolved options.
        self.plan = plan
        if plan.trivial() is not None:
            raise QueryError("trivially-true query needs no standing session")
        plan.validate(cluster)
        self._partials: Dict[int, dict] = {}
        self._answer: Optional[bool] = None
        self._epoch: Optional[int] = None
        self.updates_applied = 0
        #: Times the session was remapped onto a new fragmentation.
        self.remaps = 0
        #: The re-initialization result of the most recent remap.
        self.last_remap: Optional[QueryResult] = None
        cluster.register_session(self)

    # -- lifecycle --------------------------------------------------------
    def initialize(self) -> QueryResult:
        """The initial full evaluation (identical to the one-shot algorithm)."""
        batch = execute_plans(self.cluster, [self.plan])
        self._install(batch.partials[0], batch.results[0].answer)
        return self._labelled(batch.results[0], "init")

    def _install(self, partials: Dict[int, dict], answer: bool) -> None:
        """Adopt a full evaluation's partials and answer at the current epoch."""
        self._partials = partials
        self._answer = answer
        self._epoch = self.cluster.partition_epoch

    def _labelled(self, result: QueryResult, label: str) -> QueryResult:
        """``result`` with the session's details shape: every evaluation
        lists the sites it visited (a full one visits them all)."""
        return QueryResult(
            result.answer,
            result.stats,
            {
                "incremental": label,
                "sites": tuple(site.site_id for site in self.cluster.sites),
            },
        )

    def _begin_remap(self) -> bool:
        """Cluster hook: drop stale partials; ``True`` iff a re-evaluation
        is needed (the session was initialized)."""
        self._partials = {}
        return self._answer is not None

    def _finish_remap(self, partials: Dict[int, dict], result: QueryResult) -> None:
        """Cluster hook: install one batched remap's partials and answer."""
        self._install(partials, result.answer)
        self.remaps += 1
        self.last_remap = self._labelled(result, "remap")

    @property
    def query(self):
        """The standing query."""
        return self.plan.query

    @property
    def answer(self) -> bool:
        if self._answer is None:
            raise QueryError("session not initialized; call initialize() first")
        return self._answer

    # -- updates ----------------------------------------------------------
    def _check_live(self) -> None:
        """Reject mutation through an uninitialized or stale session."""
        if self._answer is None:
            raise QueryError("session not initialized; call initialize() first")
        if self._epoch != self.cluster.partition_epoch:
            raise QueryError(
                f"session is stale: it initialized under partition epoch "
                f"{self._epoch} but the cluster is at epoch "
                f"{self.cluster.partition_epoch}; re-run initialize() to "
                "remap the standing query onto the current fragmentation"
            )

    def _after_mutation(self, fids: Tuple[int, ...], refresh: bool = False
                        ) -> QueryResult:
        """Re-evaluate the touched fragments, re-solve at the coordinator.

        The touched fragments are submitted as picklable
        :func:`~repro.serving.engine.eval_fragment_jobs` tasks through
        :meth:`ParallelPhase.map`, so the update path runs on the cluster's
        executor backend like every other evaluation.

        ``refresh=True`` (the :meth:`resync` path — a change applied
        *outside* this session) first installs a successor state of each
        fragment (:meth:`~repro.distributed.cluster.SimulatedCluster.
        bump_fragment_version`), which
        :meth:`~repro.distributed.cluster.SimulatedCluster.apply_edge_mutation`
        already did for the session's own mutations.
        """
        run = self.cluster.start_run(f"{self.algorithm}:update")
        by_site: Dict[int, list] = {}
        for fid in fids:
            if refresh:
                # Serving-layer caches key partial results on the fragment
                # version; bumping retires every cached rvset of the fragment.
                self.cluster.bump_fragment_version(fid)
            by_site.setdefault(self.cluster.site_of_fragment(fid).site_id, []).append(
                self.cluster.fragmentation[fid]
            )
        plan = self.plan
        payload = plan.broadcast_payload()
        size = payload_size(payload)
        site_ids = sorted(by_site)
        for site_id in site_ids:
            run.send_to_site(site_id, payload, MessageKind.QUERY, charge_time=False)
        run.network_round({site_id: size for site_id in by_site})
        fn, args = plan.local_eval(), plan.local_eval_args()
        with run.parallel_phase() as phase:
            site_values = phase.map(
                eval_fragment_jobs,
                [
                    (
                        site_id,
                        (
                            tuple(
                                (fn, fragment, args)
                                for fragment in by_site[site_id]
                            ),
                        ),
                    )
                    for site_id in site_ids
                ],
            )
            for site_id, values in zip(site_ids, site_values):
                parts = []
                for fragment, (equations, _seconds) in zip(
                    by_site[site_id], values
                ):
                    self._partials[fragment.fid] = equations
                    parts.append(equations)
                run.send_to_coordinator(
                    site_id,
                    plan.wrap_partial(plan.merge_partials(parts)),
                    MessageKind.PARTIAL,
                )
        with run.coordinator_work():
            self._answer, _details = plan.assemble(self._partials, False)
        stats = run.finish()
        return QueryResult(
            self._answer,
            stats,
            {"incremental": "update", "sites": tuple(site_ids)},
        )

    def resync(self, node: Node) -> QueryResult:
        """Re-evaluate the fragment owning ``node``.

        For changes applied *outside* this session (another session sharing
        the cluster, or direct fragment mutation): one visit, one rvset.
        """
        self._check_live()
        if not self.cluster.fragmentation.has_node(node):
            raise QueryError(f"node {node!r} is not stored at any site")
        fragment = self.cluster.fragmentation.fragment_of(node)
        return self._after_mutation((fragment.fid,), refresh=True)

    def _mutate(self, u: Node, v: Node, add: bool) -> QueryResult:
        self._check_live()
        epoch_before = self.cluster.partition_epoch
        affected = self.cluster.apply_edge_mutation(u, v, add)
        self.updates_applied += 1
        if self.cluster.partition_epoch != epoch_before:
            # A drift-triggered refinement repartitioned the cluster inside
            # the mutation; the remap already re-evaluated the standing
            # query on the post-mutation graph.
            return self.last_remap
        return self._after_mutation(affected)

    def add_edge(self, u: Node, v: Node) -> QueryResult:
        """Insert an edge (intra- or cross-fragment), refresh the answer."""
        return self._mutate(u, v, add=True)

    def remove_edge(self, u: Node, v: Node) -> QueryResult:
        """Delete an edge (intra- or cross-fragment), refresh the answer."""
        return self._mutate(u, v, add=False)


class IncrementalReachSession(_IncrementalSession):
    """A standing ``qr(s, t)`` maintained under edge updates."""

    algorithm = "incReach"

    def __init__(
        self,
        cluster: SimulatedCluster,
        query: Union[ReachQuery, Tuple],
        kernel: Optional[str] = None,
    ):
        super().__init__(cluster, ReachPlan(query, EvalOptions(kernel=kernel)))


class IncrementalRegularSession(_IncrementalSession):
    """A standing ``qrr(s, t, R)`` maintained under edge updates."""

    algorithm = "incRPQ"

    def __init__(
        self,
        cluster: SimulatedCluster,
        query: Union[RegularReachQuery, Tuple],
        kernel: Optional[str] = None,
    ):
        super().__init__(cluster, RegularReachPlan(query, EvalOptions(kernel=kernel)))
