"""Vectorized local-evaluation kernels over the CSR fragment core.

The three local-evaluation procedures (``localEval`` / ``localEvald`` /
``localEvalr``) each reduce to one sweep over a fragment's local graph.
This module reimplements those sweeps as array kernels over the
:mod:`repro.core.csr` int-array view, selectable by name:

``python``
    The default and the *reference*: the existing pure-python paths
    (SCC-condensation bitmask sweeps, cutoff BFS) in
    :mod:`repro.core.reachability` / ``bounded`` / ``regular``.  Pure
    stdlib, always available.

``numpy``
    Bitset/frontier sweeps over CSR arrays: seed-reachability packs seed
    memberships into ``uint64`` words and runs a Jacobi OR-propagation to
    fixpoint (one fancy-index gather + ``bitwise_or.reduceat`` per round);
    bounded distance runs the same propagation level-by-level, reading off
    each root's newly acquired seeds per level; regular reachability runs
    the OR-propagation per automaton transition over a ``[V, states,
    words]`` cube with a vectorized label-match mask.

Selection follows the one strategy-registry precedence (explicit >
``set_default_kernel`` > ``REPRO_KERNEL`` > ``python``;
:mod:`repro.strategies`, DESIGN.md §14).  Plans resolve the name once at
construction, so the resolved string — not ambient state — travels to
process-pool workers inside ``local_eval_args``.

**Identity contract**: every kernel produces bit-identical equations to
the python reference — same disjunct sets, same term tuples in the same
order — because all kernels share the python paths' deterministic
sorted-by-``repr`` seed/root order and return plain python objects drawn
from the fragment's own node set.  The kernels change *how* a fragment is
swept, never *what* the paper's cost model observes, which is why kernel
choice is deliberately absent from serving-cache keys
(:meth:`~repro.serving.plans.QueryPlan.fragment_params`).
"""

from __future__ import annotations

import importlib.util
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from ..errors import KernelError
from ..strategies import StrategyRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..automata.query_automaton import QueryAutomaton
    from ..partition.fragment import Fragment

#: The selectable kernel names (``--kernel`` choices).
KERNELS: Tuple[str, ...] = ("python", "numpy")


def _missing_dependency(name: str) -> Optional[str]:
    """What ``name`` needs that is not importable here (``None`` = runnable)."""
    if name == "numpy" and importlib.util.find_spec("numpy") is None:
        return "numpy"
    return None


#: The kernel family of the one strategy registry (DESIGN.md §14).
KERNEL_REGISTRY = StrategyRegistry(
    "kernel",
    KERNELS,
    fallback="python",
    error=KernelError,
    env_var="REPRO_KERNEL",
    missing=_missing_dependency,
    summary="local-evaluation kernel: numpy sweeps fragments as CSR int "
    "arrays, same answers and modeled costs, faster wall-clock (DESIGN.md §9)",
)

KERNEL_ENV_VAR = KERNEL_REGISTRY.env_var
kernel_available = KERNEL_REGISTRY.is_available
available_kernels = KERNEL_REGISTRY.available
set_default_kernel = KERNEL_REGISTRY.set_default
default_kernel = KERNEL_REGISTRY.default
resolve_kernel = KERNEL_REGISTRY.resolve


# ---------------------------------------------------------------------------
# shared array helpers (numpy is an optional import — only reached when the
# numpy kernel was requested and resolve_kernel() verified availability)
# ---------------------------------------------------------------------------
def _row_to_int(np, row) -> int:
    """One bitset row decoded to the python int the decode loops expect."""
    return int.from_bytes(row.astype("<u8", copy=False).tobytes(), "little")


def _unpack_rows(np, rows, width: int):
    """Bitset rows -> bool matrix of the first ``width`` bit columns."""
    as_bytes = np.ascontiguousarray(rows.astype("<u8", copy=False)).view(np.uint8)
    return np.unpackbits(as_bytes, axis=1, bitorder="little")[:, :width].astype(bool)


# ---------------------------------------------------------------------------
# Boolean reachability (localEval)
# ---------------------------------------------------------------------------
def reach_seed_masks(
    fragment: "Fragment",
    roots: Sequence[Any],
    seeds: Sequence[Any],
) -> Dict[Any, int]:
    """Per-root seed bitmasks (python-int), bit ``j`` = reaches ``seeds[j]``.

    Drop-in replacement for the python path's
    :func:`repro.graph.reachsets.reachable_seed_masks_from` restricted to
    ``roots`` (``include_self=True`` semantics: the fixpoint starts with
    every seed holding its own bit, so a root that is itself a seed keeps
    its bit via the empty path).

    The numpy path sweeps the fragment's *cached* level-ordered SCC
    condensation (:meth:`~repro.core.csr.FragmentCSR.condensation`): seed
    bits are ORed into their components, then each condensation level
    absorbs its successor levels in one ``reduceat`` — a single pass
    touching every condensation edge once, with the Tarjan work amortized
    across all queries on the fragment version.
    """
    import numpy as np

    from .csr import fragment_csr

    csr = fragment_csr(fragment)
    index = csr.index
    words = max(1, (len(seeds) + 63) >> 6)
    cond = csr.condensation()
    comp, level_ptr = cond.comp, cond.level_ptr
    cindptr, cindices = cond.cindptr, cond.cindices
    cbits = np.zeros((cond.num_comps, words), dtype=np.uint64)
    for j, seed in enumerate(seeds):
        cbits[comp[index[seed]], j >> 6] |= np.uint64(1) << np.uint64(j & 63)
    # Ascending levels: every component at level >= 1 has at least one
    # successor, and all successors live at strictly lower (final) levels.
    for level in range(1, len(level_ptr) - 1):
        c0, c1 = int(level_ptr[level]), int(level_ptr[level + 1])
        segment = cindices[cindptr[c0] : cindptr[c1]]
        starts = cindptr[c0:c1] - cindptr[c0]
        agg = np.bitwise_or.reduceat(cbits[segment], starts, axis=0)
        cbits[c0:c1] |= agg
    return {root: _row_to_int(np, cbits[comp[index[root]]]) for root in roots}


# ---------------------------------------------------------------------------
# bounded distance (localEvald)
# ---------------------------------------------------------------------------
def bounded_seed_terms(
    fragment: "Fragment",
    roots: Sequence[Any],
    seeds: Sequence[Any],
    bound: int,
    term_vars: Sequence[Any],
) -> Dict[Any, Tuple[Tuple[Any, float], ...]]:
    """Per-root equation terms ``((term_vars[j], dist), ...)``, dist <= bound.

    Level-synchronous propagation of a per-seed reachability matrix: a
    seed's column first turns true on a row at level ``d`` exactly when the
    row's shortest path to the seed has ``d`` hops, so per-level new-column
    extraction at the root rows reads off BFS distances without a
    Dijkstra-style priority queue.  The reachability state is an unpacked
    ``bool[V, S]`` matrix (bounded never needs packed python-int masks, and
    the unpacked form keeps each level to a handful of array ops — at
    fragment scale the op *count*, not the byte count, is the cost).

    ``term_vars`` are the caller's equation variables, one per seed in seed
    order; terms are emitted per root in that order with float distances —
    exactly the python path's append order, fused here so the distance
    matrix is decoded straight into equation tuples in one pass.
    """
    import numpy as np

    from .csr import fragment_csr

    csr = fragment_csr(fragment)
    index = csr.index
    num_seeds = len(seeds)
    root_rows = np.asarray([index[r] for r in roots], dtype=np.int64)
    dists = np.full((len(roots), num_seeds), -1, dtype=np.int64)
    # Packed uint64 bitset (seed j = bit j): ~S/64 words per row keeps
    # every per-level array op narrow — at fragment scale the op cost,
    # not the algorithmic work, dominates.
    words = max(1, (num_seeds + 63) >> 6)
    bits = np.zeros((csr.num_nodes, words), dtype=np.uint64)
    seed_rows = np.asarray([index[s] for s in seeds], dtype=np.int64)
    seed_j = np.arange(num_seeds)
    bits[seed_rows, seed_j >> 6] = np.uint64(1) << (seed_j & 63).astype(np.uint64)
    known = _unpack_rows(np, bits[root_rows], num_seeds)
    dists[known] = 0
    indices = csr.indices
    rows, starts = csr.nonempty_rows()
    for level in range(1, bound + 1) if rows.size else ():
        # Jacobi step (gather fully precedes update): row r's bitset at
        # level L is exactly "reachable within L hops".
        agg = np.bitwise_or.reduceat(bits[indices], starts, axis=0)
        cur = bits[rows]
        new = cur | agg
        if np.array_equal(new, cur):
            break
        bits[rows] = new
        now = _unpack_rows(np, bits[root_rows], num_seeds)
        fresh = now & ~known
        if fresh.any():
            dists[fresh] = level
            known = now
    # Decode all roots in one nonzero scan (per-root scans are pure
    # overhead at fragment scale); (ri, rj) come out row-major, so each
    # root's terms stay in seed order.
    lists: Dict[Any, List[Tuple[Any, float]]] = {root: [] for root in roots}
    ri, rj = np.nonzero(dists >= 0)
    hit = dists[ri, rj].astype(np.float64)
    for i, j, d in zip(ri.tolist(), rj.tolist(), hit.tolist()):
        lists[roots[i]].append((term_vars[j], d))
    return {root: tuple(terms) for root, terms in lists.items()}


# ---------------------------------------------------------------------------
# regular reachability (localEvalr)
# ---------------------------------------------------------------------------
def automaton_match_matrix(csr: Any, automaton: "QueryAutomaton") -> Any:
    """``bool[V, num_states]``: the node×state match matrix, column-aligned
    with ``automaton.states()`` (``US``, positions, ``UT``).

    The position columns come from the CSR view's cached
    :meth:`~repro.core.csr.FragmentCSR.position_match` (query-independent
    per Glushkov analysis, so repeated evaluations of the same automaton
    shape reuse them); only the two one-hot endpoint columns (``US`` =
    the source row, ``UT`` = the target row) are assembled per call.
    Treat the result as read-only — the position block is shared.
    """
    import numpy as np

    match = np.zeros((csr.num_nodes, automaton.num_states), dtype=bool)
    match[:, 1:-1] = csr.position_match(automaton.analysis)
    source_row = csr.index.get(automaton.source)
    if source_row is not None:
        match[source_row, 0] = True
    target_row = csr.index.get(automaton.target)
    if target_row is not None:
        match[target_row, -1] = True
    return match


def regular_boundary_pairs(
    fragment: "Fragment",
    automaton: "QueryAutomaton",
    iset: Any,
    oset: Any,
) -> Tuple[List[Tuple[Any, int]], List[Tuple[Any, int]]]:
    """Vectorized enumeration of the regular algorithm's roots and seeds.

    Returns ``(roots, seeds)`` in exactly the python prologue's order —
    nodes sorted by ``repr``, states in ``automaton.states()`` order, one
    pair per matching combination (seeds skip ``US``, which no transition
    enters).  Interned ids ascend with ``repr`` order, so sorting the
    subset's rows reproduces the node order, and row-major ``nonzero``
    over the match matrix reproduces the nested loops.
    """
    import numpy as np

    from .csr import fragment_csr

    csr = fragment_csr(fragment)
    match = automaton_match_matrix(csr, automaton)
    states = automaton.states()

    def pairs(nodes: Any, columns: Any, column_states: Any) -> List[Tuple[Any, int]]:
        rows = np.asarray(sorted(csr.index[node] for node in nodes), dtype=np.int64)
        if not rows.size:
            return []
        hit_rows, hit_cols = np.nonzero(match[rows][:, columns])
        return [
            (csr.order[rows[i]], column_states[j])
            for i, j in zip(hit_rows.tolist(), hit_cols.tolist())
        ]

    roots = pairs(iset, slice(None), states)
    seeds = pairs(oset, slice(1, None), states[1:])
    return roots, seeds


def regular_seed_masks(
    fragment: "Fragment",
    automaton: "QueryAutomaton",
    roots: Sequence[Tuple[Any, int]],
    seeds: Sequence[Tuple[Any, int]],
) -> Dict[Tuple[Any, int], int]:
    """Per-root-pair seed bitmasks over the local product graph.

    The product vertex set is ``V x Vq`` laid out as a ``[V, states,
    words]`` bitset cube.  Bits flow against product edges — for every
    automaton transition ``u -> u'`` and graph edge ``v -> w`` with
    ``(w, u')`` label-consistent, row ``(v, u)`` absorbs ``(w, u')`` — so
    the fixpoint at a root pair is exactly the python path's closure sweep
    over :func:`repro.graph.product.product_successors`.  Label matching is
    one vectorized comparison of interned label codes per state column;
    the ``us``/``ut`` endpoint states match by node identity.
    """
    import numpy as np

    from ..graph.scc import tarjan_scc
    from .csr import fragment_csr

    csr = fragment_csr(fragment)
    index = csr.index
    states = automaton.states()
    col_of = {state: col for col, state in enumerate(states)}
    num_nodes = csr.num_nodes

    # match[:, col]: may node v occupy the state at col?  Position columns
    # come cached from the CSR view (the hoisted match prologue).
    match = automaton_match_matrix(csr, automaton)

    num_seeds = len(seeds)
    words = max(1, (num_seeds + 63) >> 6)
    bits = np.zeros((num_nodes, len(states), words), dtype=np.uint64)
    for j, (node, state) in enumerate(seeds):
        bits[index[node], col_of[state], j >> 6] |= np.uint64(1) << np.uint64(j & 63)

    # Per successor-state column, the sub-CSR of graph edges whose
    # *target* matches that state — bits only ever flow through
    # label-consistent product pairs, so restricting the edge set up
    # front replaces a full [V, W] mask allocation per transition per
    # round with a one-time filter.
    indptr, indices = csr.indptr, csr.indices
    edge_src = np.repeat(np.arange(num_nodes, dtype=np.int64), np.diff(indptr))
    sub_csr: Dict[int, Any] = {}
    for u2_col in {col_of[u2] for _, u2 in automaton.transitions()}:
        emask = match[indices, u2_col]
        targets = indices[emask]
        if not targets.size:
            sub_csr[u2_col] = None
            continue
        counts = np.bincount(edge_src[emask], minlength=num_nodes)
        rows = np.flatnonzero(counts)
        lens = counts[rows]
        # emask preserves CSR (source-grouped) edge order, so targets
        # are already segmented per source row.
        sub_csr[u2_col] = (rows, np.cumsum(lens) - lens, targets)

    def step(u_col: int, u2_col: int) -> bool:
        entry = sub_csr[u2_col]
        if entry is None:
            return False
        rows, starts, targets = entry
        agg = np.bitwise_or.reduceat(bits[targets, u2_col, :], starts, axis=0)
        cur = bits[rows, u_col, :]
        new = cur | agg
        if np.array_equal(new, cur):
            return False
        bits[rows, u_col, :] = new
        return True

    # Schedule transitions along the automaton's own SCC condensation
    # (emitted successors-first): by the time a component runs, every
    # successor state's plane outside it is final, so cross-component
    # transitions apply exactly once and only intra-component cycles
    # need a fixpoint loop.
    for members in tarjan_scc(states, automaton.successors):
        member_set = set(members)
        incoming = []
        internal = []
        for u in members:
            for u2 in automaton.successors(u):
                pair = (col_of[u], col_of[u2])
                (internal if u2 in member_set else incoming).append(pair)
        for u_col, u2_col in incoming:
            step(u_col, u2_col)
        changed = bool(internal)
        while changed:
            changed = False
            for u_col, u2_col in internal:
                if step(u_col, u2_col):
                    changed = True
    return {
        (node, state): _row_to_int(np, bits[index[node], col_of[state]])
        for node, state in roots
    }
