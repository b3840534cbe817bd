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
    Bitset sweeps over CSR arrays, seed memberships packed into ``uint64``
    words: seed-reachability ORs the bits up the fragment's cached
    level-ordered SCC condensation in a single pass (one ``take`` row
    gather + ``bitwise_or.reduceat`` per condensation level); bounded
    distance runs a Jacobi OR-propagation level by level and reads BFS
    distances off one snapshot of the root rows per level; regular
    reachability runs the propagation per automaton transition over a
    ``[states, V, words]`` cube, each transition restricted to the cached
    sub-CSR of edges into nodes carrying its target state's label.

Selection follows the one strategy-registry precedence (explicit >
``set_default_kernel`` > ``REPRO_KERNEL`` > ``python``;
:mod:`repro.strategies`, DESIGN.md §14).  Plans resolve the name once at
construction, so the resolved string — not ambient state — travels to
process-pool workers inside ``local_eval_args``.

**Identity contract**: every kernel produces bit-identical equations to
the python reference — same disjunct sets, same
:class:`~repro.core.minplus.BoundedRows` rows, columns and buffers —
because all kernels share the python paths' deterministic
sorted-by-``repr`` seed/root order and return stdlib objects drawn from
the fragment's own node set.  The kernels change *how* a fragment is
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
    from .minplus import BoundedRows

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
# numpy kernel was requested and resolve_kernel() verified availability).
# At fragment scale (~10^3 rows, 1-2 words) the per-call overhead of numpy,
# not the bytes, is the cost: row gathers use the ``take(rows, axis=0)``
# method (an advanced-index gather of a 2-D array costs several times more,
# and the ``np.take`` wrapper adds about as much again as the gather itself)
# and row scatters are one store through flat 1-D indices.
# ---------------------------------------------------------------------------
def _seed_bits(np, num_seeds: int):
    """``(word, bit)``: seed ``j``'s word index and its ``uint64`` bit."""
    j = np.arange(num_seeds, dtype=np.int64)
    return j >> 6, np.left_shift(np.uint64(1), (j & 63).astype(np.uint64))


def _flat_rows(np, rows, words: int):
    """Flat indices of every word of ``rows`` in a C-ordered ``[·, words]`` array."""
    if words == 1:
        return rows
    return (rows[:, None] * words + np.arange(words)).ravel()


def _node_rows(np, index: Dict[Any, int], nodes: Sequence[Any]):
    """Interned ids of ``nodes``, in order, as an ``int64`` array."""
    return np.fromiter((index[node] for node in nodes), dtype=np.int64, count=len(nodes))


def _rows_to_ints(bitset_rows) -> List[int]:
    """Bitset rows decoded to the python ints the decode loops expect."""
    raw = bitset_rows.astype("<u8", copy=False).tobytes()
    width = bitset_rows.shape[1] * 8
    return [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]


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
    condensation (:meth:`~repro.core.csr.FragmentCSR.condensation`): every
    seed bit is ORed into its component in one ``bitwise_or.at`` (two
    seeds in one SCC share a component row, so their bits must
    accumulate, not overwrite), then each level of the condensation's
    cached ``schedule`` absorbs its successor levels in one ``reduceat`` —
    a single pass touching every condensation edge once, with the Tarjan
    work amortized across all queries on the fragment version.
    """
    import numpy as np

    from .csr import fragment_csr

    csr = fragment_csr(fragment)
    cond = csr.condensation()
    words = max(1, (len(seeds) + 63) >> 6)
    word, bit = _seed_bits(np, len(seeds))
    seed_comps = cond.comp.take(_node_rows(np, csr.index, seeds))
    cbits = np.zeros(cond.num_comps * words, dtype=np.uint64)
    np.bitwise_or.at(cbits, seed_comps * words + word, bit)
    cbits = cbits.reshape(cond.num_comps, words)
    for c0, c1, segment, starts in cond.schedule:
        cbits[c0:c1] |= np.bitwise_or.reduceat(
            cbits.take(segment, axis=0), starts, axis=0
        )
    root_comps = cond.comp.take(_node_rows(np, csr.index, roots))
    return dict(zip(roots, _rows_to_ints(cbits.take(root_comps, axis=0))))


# ---------------------------------------------------------------------------
# bounded distance (localEvald)
# ---------------------------------------------------------------------------
def bounded_seed_rows(
    fragment: "Fragment",
    roots: Sequence[Any],
    seeds: Sequence[Any],
    bound: int,
    term_vars: Sequence[Any],
) -> "BoundedRows":
    """Per-root hop distances to each seed within ``bound``, as a matrix.

    Level-synchronous propagation of a per-seed reachability bitset: seed
    ``j``'s bit first turns on in a row at level ``d`` exactly when the
    row's shortest path to the seed has ``d`` hops.  The state is a packed
    ``uint64[V, words]`` bitset (seed ``j`` = bit ``j``), which keeps every
    level to a handful of narrow array ops — at fragment scale the op
    *count*, not the byte count, is the cost.  Each level keeps one
    ``take`` snapshot of the root rows; bits only grow, so a root's
    distance to seed ``j`` is the number of snapshots in which bit ``j`` is
    still clear, read off all snapshots in one unpack after the sweep — no
    Dijkstra-style priority queue and no per-level bookkeeping.

    ``term_vars`` are the caller's equation variables, one per seed in seed
    order; they become the matrix columns, and the ``(root, seed)`` hits
    its entries, handed over as ``int64`` buffers with no per-term loop.
    """
    import numpy as np

    from .csr import fragment_csr
    from .minplus import BoundedRows

    csr = fragment_csr(fragment)
    num_seeds = len(seeds)
    words = max(1, (num_seeds + 63) >> 6)
    word, bit = _seed_bits(np, num_seeds)
    bits = np.zeros((csr.num_nodes, words), dtype=np.uint64)
    # Seeds are distinct nodes, so their cells are distinct: one store.
    bits.reshape(-1)[_node_rows(np, csr.index, seeds) * words + word] = bit
    root_rows = _node_rows(np, csr.index, roots)
    snapshots = [bits.take(root_rows, axis=0)]
    indices = csr.indices
    rows, starts = csr.nonempty_rows()
    flat = _flat_rows(np, rows, words)
    for _ in range(bound) if rows.size else ():
        # Jacobi step (gather fully precedes update): row r's bitset after
        # level L is exactly "reachable within L hops".
        agg = np.bitwise_or.reduceat(bits.take(indices, axis=0), starts, axis=0)
        cur = bits.take(rows, axis=0)
        new = cur | agg
        if np.array_equal(new, cur):
            break
        bits.reshape(-1)[flat] = new.reshape(-1)
        snapshots.append(bits.take(root_rows, axis=0))
    held = np.unpackbits(
        np.stack(snapshots).astype("<u8", copy=False).view(np.uint8),
        axis=-1,
        bitorder="little",
    )[..., :num_seeds]
    held_in = held.sum(axis=0, dtype=np.int64)
    # All roots in one nonzero scan; (ri, rj) come out row-major, so each
    # root's entries are contiguous and in seed order: row starts are a
    # searchsorted over ri.
    ri, rj = np.nonzero(held_in)
    dists = len(snapshots) - held_in[ri, rj]
    row_starts = np.searchsorted(ri, np.arange(len(roots) + 1))
    return BoundedRows(
        roots,
        term_vars,
        row_starts.astype(np.int64, copy=False).tobytes(),
        rj.astype(np.int64, copy=False).tobytes(),
        dists.astype(np.int64, copy=False).tobytes(),
    )


# ---------------------------------------------------------------------------
# regular reachability (localEvalr)
# ---------------------------------------------------------------------------
def _position_filters(csr: Any, automaton: "QueryAutomaton") -> List[Any]:
    """Per Glushkov position, the CSR's cached ``(column, edges)`` filter of
    its label (:meth:`~repro.core.csr.FragmentCSR.label_filter`).

    ``None`` where no node of the fragment carries the position's label,
    so nothing here can occupy that position.
    """
    label_index = csr.label_index
    filters: List[Any] = []
    for expected in automaton.analysis.position_labels:
        if expected is None:
            filters.append(csr.label_filter(None))
        else:
            code = label_index.get(expected)
            filters.append(None if code is None else csr.label_filter(code))
    return filters


def automaton_match_matrix(csr: Any, automaton: "QueryAutomaton", rows: Any) -> Any:
    """``bool[len(rows), num_states]``: may node row ``rows[i]`` occupy the
    state at column ``c``?  Columns align with ``automaton.states()``
    (``US``, positions, ``UT``).

    Position columns are gathered from the CSR view's cached per-label
    columns; the endpoint states match by node identity (``US`` = the
    source row, ``UT`` = the target row).
    """
    import numpy as np

    match = np.zeros((rows.size, automaton.num_states), dtype=bool)
    match[:, 0] = rows == csr.index.get(automaton.source, -1)
    match[:, -1] = rows == csr.index.get(automaton.target, -1)
    for col, found in enumerate(_position_filters(csr, automaton), start=1):
        if found is not None:
            match[:, col] = found[0].take(rows)
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
    states = automaton.states()

    def pairs(nodes: Any, first_col: int) -> List[Tuple[Any, int]]:
        rows = np.asarray(sorted(csr.index[node] for node in nodes), dtype=np.int64)
        if not rows.size:
            return []
        match = automaton_match_matrix(csr, automaton, rows)
        hit_rows, hit_cols = np.nonzero(match[:, first_col:])
        column_states = states[first_col:]
        return [
            (csr.order[rows[i]], column_states[j])
            for i, j in zip(hit_rows.tolist(), hit_cols.tolist())
        ]

    return pairs(iset, 0), pairs(oset, 1)


def regular_seed_masks(
    fragment: "Fragment",
    automaton: "QueryAutomaton",
    roots: Sequence[Tuple[Any, int]],
    seeds: Sequence[Tuple[Any, int]],
) -> Dict[Tuple[Any, int], int]:
    """Per-root-pair seed bitmasks over the local product graph.

    The product vertex set is ``V x Vq`` laid out as a ``[states, V,
    words]`` bitset cube, so each state's plane is one contiguous
    ``uint64[V, words]`` array.  Bits flow against product edges — for
    every automaton transition ``u -> u'`` and graph edge ``v -> w`` with
    ``(w, u')`` label-consistent, row ``(v, u)`` absorbs ``(w, u')`` — so
    the fixpoint at a root pair is exactly the python path's closure sweep
    over :func:`repro.graph.product.product_successors`.  A position state
    ``u'`` restricts the edges to the CSR view's cached sub-CSR of edges
    into nodes carrying its label; ``UT`` matches by node identity, so its
    sub-CSR (edges into the target row) is built per call.
    """
    import numpy as np

    from ..automata.query_automaton import UT
    from ..graph.scc import tarjan_scc
    from .csr import fragment_csr

    csr = fragment_csr(fragment)
    index = csr.index
    states = automaton.states()
    col_of = {state: col for col, state in enumerate(states)}
    num_nodes = csr.num_nodes

    def cells(pairs: Sequence[Tuple[Any, int]]) -> Any:
        """Row ids of ``(node, state)`` pairs in the cube's ``[states * V]`` rows."""
        return np.fromiter(
            (col_of[state] * num_nodes + index[node] for node, state in pairs),
            dtype=np.int64,
            count=len(pairs),
        )

    words = max(1, (len(seeds) + 63) >> 6)
    word, bit = _seed_bits(np, len(seeds))
    bits = np.zeros((len(states), num_nodes, words), dtype=np.uint64)
    # Seed pairs are distinct, so their cells are distinct: one store.
    bits.reshape(-1)[cells(seeds) * words + word] = bit

    # Per successor-state column, the sub-CSR of graph edges whose target
    # may occupy that state — bits only ever flow through label-consistent
    # product pairs — plus the flat scatter index of its source rows.
    positions = _position_filters(csr, automaton)
    target_row = index.get(automaton.target)
    edges: Dict[int, Any] = {}
    for u2 in {u2 for _, u2 in automaton.transitions()}:
        if u2 == UT:
            if target_row is None:
                continue
            column = np.zeros(num_nodes, dtype=bool)
            column[target_row] = True
            sub = csr.edges_into(column)
        else:
            found = positions[u2]
            sub = None if found is None else found[1]
        if sub is not None:
            rows, starts, targets = sub
            edges[col_of[u2]] = (rows, starts, targets, _flat_rows(np, rows, words))

    def step(u_col: int, u2_col: int) -> bool:
        entry = edges.get(u2_col)
        if entry is None:
            return False
        rows, starts, targets, flat = entry
        plane = bits[u_col]
        agg = np.bitwise_or.reduceat(
            bits[u2_col].take(targets, axis=0), starts, axis=0
        )
        cur = plane.take(rows, axis=0)
        new = cur | agg
        if np.array_equal(new, cur):
            return False
        plane.reshape(-1)[flat] = new.reshape(-1)
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
    masks = _rows_to_ints(bits.reshape(-1, words).take(cells(roots), axis=0))
    return dict(zip(roots, masks))
