"""Cross-query cache of per-fragment partial results (DESIGN.md §6).

The unit of caching is one fragment's partial answer to one query *kind* —
the rvset a site would ship for that fragment.  Keys are

    (fragment id, fragment version, algorithm, boundary-relevant params)

where the boundary-relevant params come from
:meth:`repro.serving.plans.QueryPlan.fragment_params`.  The fragment
*version* (:attr:`repro.partition.fragment.Fragment.version`) makes
invalidation structural: every write installs a fragment state with a new,
process-unique version, so every stale entry simply stops being reachable
— :meth:`invalidate_fragment` additionally drops the dead entries eagerly
(the cluster's write path calls it) so a long-lived serving process does
not leak them.

Entries store the equations, the compute seconds the evaluation took *and*
the modeled wire size of the partial answer, so a cache hit can replay the
per-query response-time and traffic accounting that one-by-one evaluation
would have charged (the serving engine's bit-identical stats contract)
without re-walking the rvset.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Hashable, NamedTuple, Optional, Set, Tuple

#: (fragment id, fragment version, algorithm, boundary-relevant params).
CacheKey = Tuple[int, int, str, Hashable]


class CacheEntry(NamedTuple):
    """One fragment's cached partial answer, its compute time and wire size.

    ``size`` is ``payload_size(plan.wrap_partial(equations))`` — a pure
    function of the equations and the algorithm in the key, so the engine
    computes it once, when the entry is produced.
    """

    equations: Dict[Any, Any]
    seconds: float
    size: int


class SiteResultCache:
    """Bounded LRU cache of :class:`CacheEntry` keyed by :data:`CacheKey`."""

    def __init__(self, max_entries: int = 4096) -> None:
        """Create an empty cache holding at most ``max_entries`` entries."""
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[CacheKey, CacheEntry]" = OrderedDict()
        # fragment id -> live keys of that fragment.  Incremental-session
        # mutation storms call invalidate_fragment per edge; the index makes
        # that O(keys of the fragment), not O(cache).
        self._keys_by_fid: Dict[int, Set[CacheKey]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    def get(self, key: CacheKey) -> Optional[CacheEntry]:
        """Look up ``key``, counting the hit/miss and refreshing recency."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: CacheKey, entry: CacheEntry) -> None:
        """Store ``entry`` under ``key``, evicting the LRU tail past the cap."""
        self._entries[key] = entry
        self._entries.move_to_end(key)
        self._keys_by_fid.setdefault(key[0], set()).add(key)
        while len(self._entries) > self.max_entries:
            evicted, _entry = self._entries.popitem(last=False)
            self._drop_from_index(evicted)
            self.evictions += 1

    def _drop_from_index(self, key: CacheKey) -> None:
        keys = self._keys_by_fid.get(key[0])
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._keys_by_fid[key[0]]

    def invalidate_fragment(self, fid: int) -> int:
        """Eagerly drop every entry of fragment ``fid``; returns the count.

        Version-keyed lookups already miss stale entries; this reclaims the
        memory (and is the hook the cluster's mutation/repartition paths
        call for every registered cache).  O(keys of the fragment) via the
        per-fragment key index, not a scan of the whole cache.
        """
        dead = self._keys_by_fid.pop(fid, None)
        if not dead:
            return 0
        for key in dead:
            del self._entries[key]
        self.invalidations += len(dead)
        return len(dead)

    def clear(self) -> None:
        """Drop every entry (counted as invalidations); counters survive."""
        self.invalidations += len(self._entries)
        self._entries.clear()
        self._keys_by_fid.clear()

    def check_index(self) -> None:
        """Assert the per-fragment index exactly mirrors the entries.

        Cheap O(cache) self-check used by the test suite (and available to
        callers after administration): every indexed key is live, every
        live key is indexed, and no fragment bucket is empty.
        """
        indexed = set()
        for fid, keys in self._keys_by_fid.items():
            assert keys, f"empty index bucket for fragment {fid}"
            for key in keys:
                assert key[0] == fid, f"key {key} filed under fragment {fid}"
            indexed |= keys
        live = set(self._entries)
        assert indexed == live, (
            f"index desync: {len(indexed - live)} dangling, "
            f"{len(live - indexed)} unindexed"
        )

    @property
    def lookups(self) -> int:
        """Total ``get`` calls (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 before any lookup)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SiteResultCache(entries={len(self)}/{self.max_entries}, "
            f"hits={self.hits}, misses={self.misses})"
        )
