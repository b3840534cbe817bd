"""Per-fragment oracle store: build-once caching + mutation routing.

The lifecycle this module owns (DESIGN.md §12):

* **Caching** — oracles live *on* their fragment (the CSR idiom: a
  ``_oracle_cache`` slot in the frozen dataclass's instance ``__dict__``)
  keyed by registry name.  Each entry records the local graph's
  ``mutation_stamp`` at build time — a content check, not an identity:
  it is what catches a direct ``local_graph`` edit between two sweeps.
  :func:`fragment_oracle` is the one resolution point: any executor
  backend, in any process, lazily builds what its fragment copy is
  missing (pickling drops the slot — see ``Fragment.__getstate__``).

* **Maintenance** — the cluster owns one :class:`OracleStore` and calls
  it from its one write path (oracles are the ``repaired`` row of
  ``partition.fragment.CARRY``): live :class:`MaintainableOracle`
  entries get the delta routed into ``on_edge_added``/``on_edge_removed``
  (timed, counted) instead of being discarded; anything else is left to
  stamp-invalidate and rebuild on next use.  The store is deliberately
  *not* in ``cluster._caches`` — those registries exist to invalidate on
  every mutation, which is exactly what maintained indexes must survive.

* **Migration/adoption** — every write installs successor ``Fragment``
  states through :meth:`~repro.partition.fragment.Fragment.replaced`,
  which carries the slot across; after a repartition the store adopts
  entries for the fragments the cluster matched to an outgoing one
  (same node set, same local graph *content*), rebinding maintained
  oracles to the rebuilt graph object, so only moved fragments pay a
  rebuild.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Tuple

from .base import MaintainableOracle, ReachabilityOracle
from .registry import build_oracle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..distributed.cluster import SimulatedCluster
    from ..partition.fragment import Fragment

#: Instance-dict slot on Fragment holding {oracle name -> OracleEntry}.
_ORACLE_SLOT = "_oracle_cache"


@dataclass
class OracleEntry:
    """One cached oracle plus its validity stamp and cost accounting."""

    oracle: ReachabilityOracle
    stamp: int
    builds: int = 0
    build_seconds: float = 0.0
    rebuilds: int = 0
    maintains: int = 0
    maintain_seconds: float = 0.0
    hits: int = 0


@dataclass
class OracleStoreStats:
    """Aggregated per-oracle-name accounting across all fragments."""

    builds: int = 0
    build_seconds: float = 0.0
    rebuilds: int = 0
    maintains: int = 0
    maintain_seconds: float = 0.0
    hits: int = 0
    maintenance: Dict[str, int] = field(default_factory=dict)


def _slot(fragment: "Fragment") -> Dict[str, OracleEntry]:
    cache = fragment.__dict__.get(_ORACLE_SLOT)
    if cache is None:
        cache = {}
        object.__setattr__(fragment, _ORACLE_SLOT, cache)
    return cache


def fragment_oracle(fragment: "Fragment", name: str) -> ReachabilityOracle:
    """The named oracle for ``fragment``, built at most once per stamp.

    Valid entries (matching ``mutation_stamp`` *and* graph identity) are
    returned as-is; stale ones are rebuilt in place, counted as rebuilds
    so the maintain-vs-rebuild benches see exactly what invalidation
    cost.  Safe in any process: workers that received a pickled fragment
    simply build their own copy on first use.
    """
    graph = fragment.local_graph
    cache = _slot(fragment)
    entry = cache.get(name)
    if (
        entry is not None
        and entry.stamp == graph.mutation_stamp
        and entry.oracle.graph is graph
    ):
        entry.hits += 1
        return entry.oracle
    start = time.perf_counter()
    oracle = build_oracle(name, graph)
    elapsed = time.perf_counter() - start
    if entry is None:
        entry = OracleEntry(oracle=oracle, stamp=graph.mutation_stamp)
        cache[name] = entry
    else:
        entry.oracle = oracle
        entry.stamp = graph.mutation_stamp
        entry.rebuilds += 1
    entry.builds += 1
    entry.build_seconds += elapsed
    return oracle


def invalidate_fragment_oracles(fragment: "Fragment") -> int:
    """Drop every cached oracle on ``fragment``; returns how many died."""
    cache = fragment.__dict__.get(_ORACLE_SLOT)
    if not cache:
        return 0
    dropped = len(cache)
    cache.clear()
    return dropped


class OracleStore:
    """The cluster-side router for the per-fragment oracle caches."""

    def __init__(self, cluster: "SimulatedCluster") -> None:
        # A proxy, not a reference: the cluster owns this store, and a
        # strong back-reference would make every dropped cluster (its
        # graphs, CSRs and condensations) wait for a full cycle collection.
        self._cluster = weakref.proxy(cluster)

    # ------------------------------------------------------------------
    def on_edge_mutation(
        self, fragment: "Fragment", u: object, v: object, added: bool
    ) -> None:
        """Route one applied edge delta into the fragment's live oracles.

        Called *after* the local graph was mutated (the maintenance
        contract).  Maintainable oracles bound to the live graph repair
        themselves and have their stamp refreshed; every other entry is
        left stale — the stamp mismatch makes the next resolution a
        counted rebuild.
        """
        cache = fragment.__dict__.get(_ORACLE_SLOT)
        if not cache:
            return
        graph = fragment.local_graph
        for entry in cache.values():
            oracle = entry.oracle
            if not isinstance(oracle, MaintainableOracle) or oracle.graph is not graph:
                continue
            start = time.perf_counter()
            if added:
                oracle.on_edge_added(u, v)
            else:
                oracle.on_edge_removed(u, v)
            entry.maintain_seconds += time.perf_counter() - start
            entry.maintains += 1
            entry.stamp = graph.mutation_stamp

    def after_repartition(self, matches: Mapping[int, "Fragment"]) -> int:
        """Adopt maintained oracles for fragments that did not move.

        A repartition rebuilds every Fragment (new local graph objects);
        ``matches`` maps each new fid to the outgoing fragment with the same
        node set and local graph content (the cluster's one match pass).
        Those keep their maintained indexes: derived state is content-pure
        by the :class:`MaintainableOracle` contract, so rebinding the graph
        reference is enough.  Returns the number of adopted entries.
        """
        adopted_total = 0
        for fid, old in matches.items():
            fragment = self._cluster.fragmentation[fid]
            cache = old.__dict__.get(_ORACLE_SLOT)
            if not cache:
                continue
            adopted: Dict[str, OracleEntry] = {}
            for name, entry in cache.items():
                oracle = entry.oracle
                if (
                    isinstance(oracle, MaintainableOracle)
                    and oracle.graph is old.local_graph
                    and entry.stamp == old.local_graph.mutation_stamp
                ):
                    oracle.rebind_graph(fragment.local_graph)
                    entry.stamp = fragment.local_graph.mutation_stamp
                    adopted[name] = entry
            if adopted:
                object.__setattr__(fragment, _ORACLE_SLOT, adopted)
                adopted_total += len(adopted)
        return adopted_total

    # ------------------------------------------------------------------
    def keys(self) -> List[Tuple[int, int, str]]:
        """Live store keys: ``(fid, fragment version, name)``."""
        return [
            (fragment.fid, fragment.version, name)
            for fragment in self._cluster.fragmentation
            for name in sorted(fragment.__dict__.get(_ORACLE_SLOT) or {})
        ]

    def maintenance_stats(self) -> Dict[str, OracleStoreStats]:
        """Aggregate per-name build/maintain/rebuild accounting."""
        agg: Dict[str, OracleStoreStats] = {}
        for fragment in self._cluster.fragmentation:
            cache = fragment.__dict__.get(_ORACLE_SLOT) or {}
            for name, entry in cache.items():
                stats = agg.setdefault(name, OracleStoreStats())
                stats.builds += entry.builds
                stats.build_seconds += entry.build_seconds
                stats.rebuilds += entry.rebuilds
                stats.maintains += entry.maintains
                stats.maintain_seconds += entry.maintain_seconds
                stats.hits += entry.hits
                oracle = entry.oracle
                if isinstance(oracle, MaintainableOracle):
                    for key, value in oracle.maintenance_stats().items():
                        stats.maintenance[key] = stats.maintenance.get(key, 0) + value
        return agg
