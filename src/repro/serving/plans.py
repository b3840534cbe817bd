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

    A plan depends only on its query and its resolved options, never on the
    graph, so the serving cache keeps one per distinct query and reuses it
    across batches.  ``algorithm`` doubles as the query-kind component of
    cache keys, so two plans of different classes can never share an entry.
    """

    #: Registry name of the algorithm (e.g. ``"disReach"``).
    algorithm: str = "abstract"
    #: The query this plan evaluates (an immutable, hashable value).
    query: Any
    #: ``payload_size(broadcast_payload())``: the payload is immutable, so
    #: the engine sizes it the first time it ships the plan and a cached
    #: plan never sizes it again.
    broadcast_size: Optional[int] = None

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

    @abstractmethod
    def merge_partials(self, parts: Sequence[Mapping]) -> Mapping:
        """One site's partial from its fragments' ``parts`` (disjoint rows):
        the plan's row type concatenated under one shared column table
        (``ReachRows.concat``, ``HopRows.concat``, ``RegularRows.concat``)."""

    @abstractmethod
    def wrap_partial(self, site_equations: Mapping) -> object:
        """Wrap one site's merged equations in its wire format."""

    @abstractmethod
    def assemble(
        self, partials: Dict[int, Dict], collect_details: bool
    ) -> Tuple[bool, Dict[str, object]]:
        """Coordinator step: solve the assembled system, build details."""
