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

Beside the partials the cache keeps the rest of what a warm engine reuses,
one entry per distinct query:

* the **plan** (:class:`~repro.serving.plans.QueryPlan`), keyed by
  :data:`PlanKey` — the resolved algorithm, the query and the option names
  resolved against the process defaults current at lookup, so changing a
  default builds a new plan;
* the **solved answer** (:class:`SolvedAnswer`), keyed by :data:`AnswerKey`
  — the algorithm, the query and the partial-entry keys the query resolved.
  Those keys carry every fragment's version, so a write retires the answers
  that read the fragment the same way it retires its partials.

Both tables are bounded by ``max_entries`` like the partials.  ``get``,
``put``, ``invalidate_fragment``, ``len()`` and the ``hits``/``misses``/
``evictions``/``invalidations`` counters speak of partial entries only;
the two tables have their own lookups and hit/miss counters.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Dict, Hashable, NamedTuple, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .plans import QueryPlan

#: (fragment id, fragment version, algorithm, boundary-relevant params).
CacheKey = Tuple[int, int, str, Hashable]
#: (algorithm, query, option names resolved against the process defaults).
PlanKey = Tuple[str, Hashable, Tuple[Optional[str], ...]]
#: (algorithm, query, the query's partial-entry keys in site order).
AnswerKey = Tuple[str, Hashable, Tuple[CacheKey, ...]]


class CacheEntry(NamedTuple):
    """One fragment's cached partial answer, its compute time and wire size.

    ``size`` is ``payload_size(plan.wrap_partial(equations))`` — a pure
    function of the equations and the algorithm in the key, so the engine
    computes it once, when the entry is produced.
    """

    equations: Dict[Any, Any]
    seconds: float
    size: int


class SolvedAnswer(NamedTuple):
    """One query's coordinator result over one set of partial entries.

    ``seconds`` is what the assemble took when it ran; a hit credits it to
    the query's replayed stats, as a cached partial credits its compute.
    """

    answer: bool
    details: Dict[str, object]
    seconds: float


def _lookup(table: "OrderedDict[Any, Any]", key: Hashable) -> Any:
    """``table[key]`` refreshed to most recent, or ``None``."""
    value = table.get(key)
    if value is not None:
        table.move_to_end(key)
    return value


class SiteResultCache:
    """Bounded LRU cache of :class:`CacheEntry` keyed by :data:`CacheKey`,
    plus the plan and solved-answer tables (each bounded the same way)."""

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
        self._plans: "OrderedDict[PlanKey, QueryPlan]" = OrderedDict()
        self._answers: "OrderedDict[AnswerKey, SolvedAnswer]" = OrderedDict()
        # fragment id -> answer keys that read the fragment.
        self._answers_by_fid: Dict[int, Set[AnswerKey]] = {}
        self.plan_hits = 0
        self.plan_misses = 0
        self.answer_hits = 0
        self.answer_misses = 0

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
        """Eagerly drop every entry of fragment ``fid``, and every solved
        answer that read it; returns the count of partial entries.

        Version-keyed lookups already miss stale entries; this reclaims the
        memory (and is the hook the cluster's mutation/repartition paths
        call for every registered cache).  O(keys of the fragment) via the
        per-fragment key index, not a scan of the whole cache.
        """
        for key in self._answers_by_fid.pop(fid, ()):
            self._drop_answer(key)
        dead = self._keys_by_fid.pop(fid, None)
        if not dead:
            return 0
        for key in dead:
            del self._entries[key]
        self.invalidations += len(dead)
        return len(dead)

    def clear(self) -> None:
        """Drop every partial (counted as invalidations), plan and solved
        answer; counters survive."""
        self.invalidations += len(self._entries)
        self._entries.clear()
        self._keys_by_fid.clear()
        self._plans.clear()
        self._answers.clear()
        self._answers_by_fid.clear()

    # ------------------------------------------------------------------
    # the plan and solved-answer tables
    # ------------------------------------------------------------------
    def get_plan(self, key: PlanKey) -> "Optional[QueryPlan]":
        """The plan stored under ``key``, counting the hit/miss."""
        plan = _lookup(self._plans, key)
        if plan is None:
            self.plan_misses += 1
        else:
            self.plan_hits += 1
        return plan

    def put_plan(self, key: PlanKey, plan: "QueryPlan") -> None:
        """Store ``plan`` under ``key``, evicting the LRU tail past the cap."""
        self._plans[key] = plan
        self._plans.move_to_end(key)
        if len(self._plans) > self.max_entries:
            self._plans.popitem(last=False)

    def get_answer(self, key: AnswerKey) -> Optional[SolvedAnswer]:
        """The solved answer stored under ``key``, counting the hit/miss."""
        solved = _lookup(self._answers, key)
        if solved is None:
            self.answer_misses += 1
        else:
            self.answer_hits += 1
        return solved

    def put_answer(self, key: AnswerKey, solved: SolvedAnswer) -> None:
        """Store ``solved`` under ``key``, evicting the LRU tail past the cap."""
        if key not in self._answers:
            for entry_key in key[2]:
                self._answers_by_fid.setdefault(entry_key[0], set()).add(key)
        self._answers[key] = solved
        self._answers.move_to_end(key)
        if len(self._answers) > self.max_entries:
            self._drop_answer(next(iter(self._answers)))

    def _drop_answer(self, key: AnswerKey) -> None:
        del self._answers[key]
        for entry_key in key[2]:
            keys = self._answers_by_fid.get(entry_key[0])
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._answers_by_fid[entry_key[0]]

    def check_index(self) -> None:
        """Assert the per-fragment index exactly mirrors the entries.

        Cheap O(cache) self-check used by the test suite (and available to
        callers after administration): every indexed key is live, every
        live key is indexed, and no fragment bucket is empty — for the
        partials and for the solved answers alike.
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
        expected: Dict[int, Set[AnswerKey]] = {}
        for key in self._answers:
            for entry_key in key[2]:
                expected.setdefault(entry_key[0], set()).add(key)
        assert expected == self._answers_by_fid, "solved-answer index desync"

    def reuse_counts(self) -> Dict[str, int]:
        """Hits and misses of the plan and solved-answer tables."""
        return {
            "plan_hits": self.plan_hits,
            "plan_misses": self.plan_misses,
            "answer_hits": self.answer_hits,
            "answer_misses": self.answer_misses,
        }

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
