"""The query-plan protocol the batch engine executes (DESIGN.md §6).

A :class:`QueryPlan` decomposes one partial-evaluation algorithm run into
the pieces the serving layer needs to schedule, deduplicate, cache and
replay it:

* what the coordinator posts to the sites (:meth:`broadcast_payload`);
* the per-fragment local evaluation as a picklable task
  (:meth:`local_eval` / :meth:`local_eval_args`);
* the *boundary-relevant parameters* of that evaluation
  (:meth:`fragment_params`) — the part of the cache key that decides when
  two different queries may share one fragment's partial result;
* how a site holding several fragments merges their partial answers
  (:meth:`merge_partials`) and wraps one for the wire (:meth:`wrap_partial`);
* the coordinator-side assembly (:meth:`assemble`).

The concrete plans live next to their algorithms
(:class:`repro.core.reachability.ReachPlan`,
:class:`repro.core.bounded.BoundedReachPlan`,
:class:`repro.core.regular.RegularReachPlan`); this module holds only the
protocol and the shared boundary-relevance helper, so it imports nothing
from :mod:`repro.core` and the core algorithms can import the engine
without a cycle.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, Hashable, Mapping, Optional, Sequence, Tuple

from ..partition.fragment import Fragment


class _Absent:
    """Key marker: 'this endpoint does not touch this fragment'.

    A dedicated sentinel (rather than ``None``) so a graph whose node ids
    include ``None`` cannot collide with the marker.
    """

    _instance: Optional["_Absent"] = None

    def __new__(cls) -> "_Absent":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<absent>"


ABSENT = _Absent()


def endpoint_params(
    fragment: Fragment,
    source: Any,
    target: Any,
    source_matters_as_in_node: bool = False,
) -> Tuple[Any, Any]:
    """The (source, target) components of a fragment's cache key.

    A fragment's partial answer depends on the query's endpoints only through
    their *relationship to the fragment* (DESIGN.md §6):

    * the source matters iff it is stored locally (it joins ``iset``).  For
      the Boolean and min-plus algorithms a source that is already an
      in-node adds nothing (``iset`` is unchanged), so it is normalized to
      :data:`ABSENT` — the regular algorithm passes
      ``source_matters_as_in_node=True`` because a local source always adds
      the ``(s, us)`` product root, in-node or not;
    * the target matters iff it appears in the local graph at all — locally
      stored (joins ``oset``) *or* a virtual node (its disjuncts become the
      constant ``true``).

    Everything else about the endpoints is invisible to the fragment, which
    is exactly what makes cross-query reuse sound: on a k-site cluster only
    the (at most two) fragments touching s or t produce query-specific
    partials; every other fragment's answer is shared by the whole workload.
    """
    src: Any = ABSENT
    if source in fragment.nodes:
        if source_matters_as_in_node or source not in fragment.in_nodes:
            src = source
    tgt: Any = ABSENT
    if target in fragment.nodes or target in fragment.virtual_nodes:
        tgt = target
    return src, tgt


class QueryPlan(ABC):
    """One query's evaluation, decomposed for batched execution.

    Instances are cheap value objects; the engine may build many per batch.
    ``algorithm`` doubles as the query-kind component of cache keys, so two
    plans of different classes can never share an entry.
    """

    #: Registry name of the algorithm (e.g. ``"disReach"``).
    algorithm: str = "abstract"

    @abstractmethod
    def validate(self, cluster) -> None:
        """Raise :class:`~repro.errors.QueryError` for unknown endpoints."""

    @abstractmethod
    def trivial(self) -> Optional[Tuple[bool, Dict[str, object]]]:
        """``(answer, details)`` when answerable at the coordinator alone."""

    @abstractmethod
    def broadcast_payload(self) -> object:
        """What ``Sc`` posts to every site (the query, or ``Gq(R)``)."""

    @abstractmethod
    def local_eval(self) -> Callable[..., Any]:
        """The per-fragment evaluation — a module-level, picklable function
        called as ``fn(fragment, *local_eval_args())``."""

    @abstractmethod
    def local_eval_args(self) -> Tuple[Any, ...]:
        """Arguments after the fragment; must be picklable."""

    @abstractmethod
    def fragment_params(self, fragment: Fragment) -> Hashable:
        """Boundary-relevant cache-key parameters for ``fragment``.

        Two plans whose ``(algorithm, fragment_params)`` coincide must be
        served by the *same* partial result — this is the soundness contract
        of the serving cache.
        """

    def preresolved(self, fragment: Fragment) -> Optional[Dict]:
        """Equations the plan already holds for ``fragment``, or ``None``.

        The engine consults this before cache lookup and scheduling: a
        non-``None`` return enters the batch as a zero-compute resolved
        entry — no local-eval task runs for the fragment.  The soundness
        contract matches :meth:`fragment_params`: the returned equations
        must be exactly what :meth:`local_eval` would produce on the
        fragment's current content.  The default knows nothing.
        """
        return None

    @abstractmethod
    def merge_partials(self, parts: Sequence[Mapping]) -> Mapping:
        """One site's partial from its fragments' ``parts`` (disjoint rows):
        the plan's row type concatenated under one shared column table
        (``BitRows.concat``, ``BoundedRows.concat``)."""

    @abstractmethod
    def wrap_partial(self, site_equations: Mapping) -> object:
        """Wrap one site's merged equations in its wire format."""

    @abstractmethod
    def assemble(
        self, partials: Dict[int, Dict], collect_details: bool
    ) -> Tuple[bool, Dict[str, object]]:
        """Coordinator step: solve the assembled system, build details."""


class SessionRemapPlan(QueryPlan):
    """Re-initialize one open incremental session as a batchable plan.

    A repartition must re-evaluate every open standing query against the
    new fragmentation.  Done per session, N sessions over one k-fragment
    cluster pay ``N x k`` local evaluations even though most fragments'
    partials are query-independent (see :func:`endpoint_params`).  Wrapping
    each session in a ``SessionRemapPlan`` and running them all through
    :func:`~repro.serving.engine.execute_plans` turns the remap sweep into
    one deduplicated map round that also shares the serving layer's
    :class:`~repro.serving.cache.SiteResultCache`.

    Every protocol hook delegates to the session's underlying partial-
    evaluation plan (``session.plan`` — a
    :class:`~repro.core.reachability.ReachPlan` or
    :class:`~repro.core.regular.RegularReachPlan`), including ``algorithm``:
    the cache keys of a remap task are *identical* to the ordinary query's,
    so remaps hit entries the serving engine cached and vice versa.
    ``assemble`` is intercepted to install the fresh per-fragment partials
    and standing answer back into the session — it runs coordinator-side,
    in the main process, so holding the live session object is safe (plans
    never travel to workers; only ``local_eval``/``local_eval_args`` do).
    """

    def __init__(self, session) -> None:
        """Wrap ``session`` (any ``core.incremental`` session object)."""
        self.session = session
        self.inner: QueryPlan = session.plan
        # Shadow the class attribute so cache keys match the inner plan's.
        self.algorithm = self.inner.algorithm

    def validate(self, cluster) -> None:
        """Delegate endpoint validation to the underlying plan."""
        self.inner.validate(cluster)

    def trivial(self) -> Optional[Tuple[bool, Dict[str, object]]]:
        """Never trivial: session constructors reject trivial standing
        queries, and a trivially-answered plan would skip ``assemble`` —
        the hook that installs the session's partials."""
        return None

    def broadcast_payload(self) -> object:
        """The underlying plan's broadcast payload (query or automaton)."""
        return self.inner.broadcast_payload()

    def local_eval(self) -> Callable[..., Any]:
        """The underlying plan's picklable per-fragment evaluation."""
        return self.inner.local_eval()

    def local_eval_args(self) -> Tuple[Any, ...]:
        """The underlying plan's local-eval arguments."""
        return self.inner.local_eval_args()

    def fragment_params(self, fragment: Fragment) -> Hashable:
        """The underlying plan's cache params — identical keys mean remap
        tasks dedupe with ordinary query tasks and cache entries."""
        return self.inner.fragment_params(fragment)

    def preresolved(self, fragment: Fragment) -> Optional[Dict]:
        """The session's pre-repartition partial for a preserved fragment.

        :meth:`~repro.distributed.cluster.SimulatedCluster.repartition`
        stages into ``session._remap_reuse`` the partials of fragments
        whose boundary anatomy (fid, node set, in/out-node sets, local
        graph content) survived the move byte-identically — the equations
        of such a fragment cannot have changed, so the remap skips its
        local-eval task instead of recomputing it (the incremental-remap
        delta).  Empty outside a repartition remap, so ordinary
        ``initialize()`` runs are never served stale partials.
        """
        return self.session._remap_reuse.get(fragment.fid)

    def merge_partials(self, parts: Sequence[Mapping]) -> Mapping:
        """The underlying plan's merge of one site's fragment partials."""
        return self.inner.merge_partials(parts)

    def wrap_partial(self, site_equations: Mapping) -> object:
        """The underlying plan's wire format for one site's partial."""
        return self.inner.wrap_partial(site_equations)

    def assemble(
        self, partials: Dict[int, Dict], collect_details: bool
    ) -> Tuple[bool, Dict[str, object]]:
        """Solve via the underlying plan, then install the fresh partials
        and standing answer into the session (main-process side effect)."""
        answer, details = self.inner.assemble(partials, collect_details)
        self.session._install_remap(dict(partials), answer)
        return answer, details
