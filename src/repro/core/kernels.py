"""Vectorized local-evaluation kernels over the CSR fragment core.

The three local-evaluation procedures (``localEval`` / ``localEvald`` /
``localEvalr``) each reduce to one sweep over a fragment's local graph.
This module runs those sweeps as array kernels over the
:mod:`repro.core.csr` int-array view — the one runtime path of
:mod:`repro.core.reachability` / ``bounded`` / ``regular``.  Bitset sweeps
over CSR arrays, seed memberships packed into ``uint64`` words:
seed-reachability ORs the bits up the fragment's cached level-ordered SCC
condensation in a single pass (one ``take`` row gather +
``bitwise_or.reduceat`` per condensation level); bounded distance runs a
Jacobi OR-propagation level by level and reads BFS distances off one
snapshot of the root rows per level; regular reachability runs the
propagation per automaton transition over a ``[states, V, words]`` cube,
each transition restricted to the cached sub-CSR of edges into nodes
carrying its target state's label, in the transition schedule the query
compiled once (``QueryAutomaton.compiled``), not per fragment.  All three
sweep only the forward cone of their roots (:class:`~repro.core.csr.Cone`,
handed over by the boundary prologue): the condensation levels, edges and
label sub-CSRs the root rows read, through one code path whether the cone
is proper or the whole fragment.

numpy is imported inside the functions, never at module level: importing
the package, building a cluster or starting a broker or server leaves it
unloaded, and the first local evaluation loads it.

``numpy`` is the one registered kernel name.  The registry keeps the
selection surface (``kernel=``, ``--kernel``, ``REPRO_KERNEL``) working
with that single value, following the one strategy-registry precedence
(explicit > ``set_default_kernel`` > ``REPRO_KERNEL`` > ``numpy``;
:mod:`repro.strategies`, DESIGN.md §14); an unknown name is rejected
when a plan resolves it.

**Identity contract**: the kernels produce exactly the equations of the
pure-python sweeps kept as the test reference (``tests/kernel_reference.py``)
because they keep that reference's deterministic sorted-by-``repr``
seed/root order and draw rows and columns from the fragment's own node
set.  Reach emits the id-space matrix,
:class:`~repro.core.reachability.ReachRows` — each column's bit at its
``Vf`` id, ``TRUE`` at bit 0 — whose rows, columns, id sizes, decoded
equations and wire size equal the reference's; bounded emits the
id-space hop matrix, :class:`~repro.core.bounded.HopRows` — each column at
its ``Vf`` id, ``TARGET`` at ``TRUE_ID``, ``bound + 1`` for "no term" —
whose rows, columns, id sizes, decoded equations and wire size equal the
reference's; regular emits :class:`~repro.core.bes.BitRows` identical to
the reference's rows, columns, id sizes and disjunct sets.  Roots and columns come from the
boundary prologue cached on the CSR view
(:func:`~repro.core.csr.boundary_prologue`).  The kernels change *how* a
fragment is swept, never *what* the paper's cost model observes, which is
why the kernel is deliberately absent from serving-cache keys
(:meth:`~repro.serving.plans.QueryPlan.fragment_params`).
"""

from __future__ import annotations

import importlib.util
from typing import TYPE_CHECKING, Any, Dict, List, NamedTuple, Optional, Tuple

from ..errors import KernelError
from ..strategies import StrategyRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..automata.query_automaton import QueryAutomaton
    from ..partition.fragment import Fragment
    from .bes import BitRows
    from .bounded import HopRows
    from .reachability import ReachRows

#: The selectable kernel names (``--kernel`` choices).
KERNELS: Tuple[str, ...] = ("numpy",)


def _missing_dependency(name: str) -> Optional[str]:
    """What ``name`` needs that is not importable here (``None`` = runnable)."""
    if name == "numpy" and importlib.util.find_spec("numpy") is None:
        return "numpy"
    return None


#: The kernel family of the one strategy registry (DESIGN.md §14).
KERNEL_REGISTRY = StrategyRegistry(
    "kernel",
    KERNELS,
    fallback="numpy",
    error=KernelError,
    env_var="REPRO_KERNEL",
    missing=_missing_dependency,
    summary="local-evaluation kernel: numpy sweeps fragments as CSR int "
    "arrays (DESIGN.md §9)",
)

KERNEL_ENV_VAR = KERNEL_REGISTRY.env_var
kernel_available = KERNEL_REGISTRY.is_available
available_kernels = KERNEL_REGISTRY.available
set_default_kernel = KERNEL_REGISTRY.set_default
default_kernel = KERNEL_REGISTRY.default
resolve_kernel = KERNEL_REGISTRY.resolve


# ---------------------------------------------------------------------------
# shared array helpers (numpy is a function-level import, passed in as
# ``np``).
# At fragment scale (~10^3 rows, 1-2 words) the per-call overhead of numpy,
# not the bytes, is the cost: row gathers use the ``take(rows, axis=0)``
# method (an advanced-index gather of a 2-D array costs several times more,
# and the ``np.take`` wrapper adds about as much again as the gather itself)
# and row scatters are one store through flat 1-D indices.
# ---------------------------------------------------------------------------
def _id_bits(np, ids):
    """``(word, bit)``: each int64 id's word index and its ``uint64`` bit.

    The shift runs in ``uint64`` on both sides, so bit 63 never meets a
    signed int (numpy would promote the pair to ``float64``)."""
    return ids >> 6, np.left_shift(np.uint64(1), (ids & 63).astype(np.uint64))


def _seed_bits(np, num_seeds: int):
    """``(word, bit)``: seed ``j``'s word index and its ``uint64`` bit."""
    return _id_bits(np, np.arange(num_seeds, dtype=np.int64))


def _flat_rows(np, rows, words: int):
    """Flat indices of every word of ``rows`` in a C-ordered ``[·, words]`` array."""
    if words == 1:
        return rows
    return (rows[:, None] * words + np.arange(words)).ravel()


def _rows_to_ints(bitset_rows) -> List[int]:
    """Bitset rows decoded to the python-int masks ``BitRows.from_masks`` takes
    (the regular kernel's hand-over)."""
    raw = bitset_rows.astype("<u8", copy=False).tobytes()
    width = bitset_rows.shape[1] * 8
    return [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]


# ---------------------------------------------------------------------------
# Boolean reachability (localEval)
# ---------------------------------------------------------------------------
def _reach_masks(
    np, csr: Any, cone: Any, root_rows: Any, seed_rows: Any, seed_ids: Any, words: int
) -> Any:
    """Per root row, the ``uint64[words]`` bitset of the seeds it reaches,
    seed ``j`` at bit ``seed_ids[j]``.

    The sweep runs over the fragment's *cached* level-ordered SCC
    condensation (:meth:`~repro.core.csr.FragmentCSR.condensation`): every
    seed bit is ORed into its component in one ``bitwise_or.at`` (two
    seeds in one SCC share a component row, so their bits must
    accumulate, not overwrite), then each level of ``cone``'s cached
    schedule absorbs its successor levels in one ``reduceat`` — a single
    pass over the condensation edges *out of the roots' forward cone*
    (:class:`~repro.core.csr.Cone`), the only components a root row reads,
    with the Tarjan work amortized across all queries on the fragment
    version.  The ids are distinct and below ``64 * words``.
    """
    cond = csr.condensation()
    word, bit = _id_bits(np, seed_ids)
    cbits = np.zeros(cond.num_comps * words, dtype=np.uint64)
    np.bitwise_or.at(cbits, cond.comp.take(seed_rows) * words + word, bit)
    cbits = cbits.reshape(cond.num_comps, words)
    for ids, starts, segment in cone.schedule(cond):
        cbits[ids] |= np.bitwise_or.reduceat(cbits.take(segment, axis=0), starts, axis=0)
    return cbits.take(cond.comp.take(root_rows), axis=0)


def reach_rows(fragment: "Fragment", source: Any, target: Any) -> "ReachRows":
    """``localEval``'s :class:`~repro.core.reachability.ReachRows` for
    ``qr(source, target)``: the paper's |Fi.I| × |Fi.O| bit matrix.

    Roots, columns (``TRUE`` for the target) and their ``Vf`` ids and id
    sizes come from the cached boundary prologue; the rows from one
    condensation sweep over the prologue's cone, each column's bit at its
    ``Vf`` id (``TRUE`` at bit 0), so a row is as wide as the fragment's
    largest column id needs.
    """
    import numpy as np

    from .bes import TRUE
    from .csr import boundary_prologue
    from .reachability import ReachRows

    csr, cone, found = boundary_prologue(fragment, source, target, TRUE)
    col_ids = found.col_ids
    words = int(col_ids.max()) // 64 + 1 if col_ids.size else 1
    if found.root_rows.size and found.seed_rows.size:
        bits = _reach_masks(np, csr, cone, found.root_rows, found.seed_rows, col_ids, words)
    else:
        bits = np.zeros((len(found.roots), words), dtype=np.uint64)
    return ReachRows(
        found.roots,
        found.root_ids,
        bits,
        found.columns,
        col_ids,
        found.row_bytes,
        found.col_bytes,
    )


# ---------------------------------------------------------------------------
# bounded distance (localEvald)
# ---------------------------------------------------------------------------
def bounded_seed_rows(
    fragment: "Fragment", source: Any, target: Any, bound: int
) -> "HopRows":
    """``localEvald``'s :class:`~repro.core.bounded.HopRows` for
    ``qbr(source, target, bound)``: the paper's |Fi.I| × |Fi.O| hop matrix.

    Level-synchronous propagation of a per-seed reachability bitset: seed
    ``j``'s bit first turns on in a row at level ``d`` exactly when the
    row's shortest path to the seed has ``d`` hops.  The state is a packed
    ``uint64[V, words]`` bitset (seed ``j`` = bit ``j``), which keeps every
    level to a handful of narrow array ops — at fragment scale the op
    *count*, not the byte count, is the cost.  Each level keeps one
    ``take`` snapshot of the root rows; bits only grow, so a root's
    distance to seed ``j`` is the number of snapshots in which bit ``j`` is
    still clear, read off all snapshots in one unpack after the sweep — no
    Dijkstra-style priority queue and no per-level bookkeeping.  The counts
    sum in the narrowest unsigned dtype holding ``bound + 1``, the matrix's
    "no term" mark, and every subtraction takes a count from a larger one,
    so none wraps.

    Roots, columns (``TARGET`` for the target), their ``Vf`` ids and id
    sizes come from the cached boundary prologue, and the levels gather
    only the edges out of its cone (:meth:`~repro.core.csr.Cone.edges`),
    the rows a root reads.
    """
    import numpy as np

    from .bounded import HopRows
    from .csr import boundary_prologue
    from .minplus import TARGET

    csr, cone, found = boundary_prologue(fragment, source, target, TARGET)
    roots, root_rows, columns = found.roots, found.root_rows, found.columns
    col_ids, col_bytes = found.col_ids, found.col_bytes
    dtype = np.min_scalar_type(bound + 1)
    if not roots or not columns:  # no term: no column either, as in the reference
        hops = np.empty((len(roots), 0), dtype)
        return HopRows(
            roots, found.root_ids, hops, (), col_ids[:0], found.row_bytes, col_bytes[:0], bound
        )
    num_seeds = len(columns)
    words = max(1, (num_seeds + 63) >> 6)
    word, bit = _seed_bits(np, num_seeds)
    bits = np.zeros((csr.num_nodes, words), dtype=np.uint64)
    # Seeds are distinct nodes, so their cells are distinct: one store.
    bits.reshape(-1)[found.seed_rows * words + word] = bit
    snapshots = [bits.take(root_rows, axis=0)]
    edges = cone.edges(csr)
    if edges is not None:
        rows, starts, targets = edges
        flat = _flat_rows(np, rows, words)
    for _ in range(bound) if edges is not None else ():
        # Jacobi step (gather fully precedes update): row r's bitset after
        # level L is exactly "reachable within L hops".
        agg = np.bitwise_or.reduceat(bits.take(targets, axis=0), starts, axis=0)
        cur = bits.take(rows, axis=0)
        new = cur | agg
        if new.tobytes() == cur.tobytes():  # cheaper than array_equal here
            break
        bits.reshape(-1)[flat] = new.reshape(-1)
        snapshots.append(bits.take(root_rows, axis=0))
    held_in = np.unpackbits(
        np.stack(snapshots).astype("<u8", copy=False).view(np.uint8),
        axis=-1,
        count=num_seeds,
        bitorder="little",
    ).sum(axis=0, dtype=dtype)
    # A seed first held at level d is held in the last n - d of n snapshots.
    hops = len(snapshots) - held_in
    if len(snapshots) <= bound:  # a converged sweep: unheld reads n, not l + 1
        hops[held_in == 0] = bound + 1
    return HopRows(
        roots, found.root_ids, hops, columns, col_ids, found.row_bytes, col_bytes, bound
    )


# ---------------------------------------------------------------------------
# regular reachability (localEvalr)
# ---------------------------------------------------------------------------
#: Label code of a position whose label no node of the fragment carries.
_ABSENT = -1
#: Label code of the wildcard position, which every node matches.
_WILDCARD = -2


class RegularPrologue(NamedTuple):
    """The regular algorithm's :class:`~repro.core.csr.Prologue`: product
    pairs, addressed as cells of the ``[states * V]`` cube, plus the
    fragment's label code per position."""

    roots: List[Tuple[Any, int]]
    root_cells: Any
    row_bytes: int
    columns: List[Any]
    seed_cells: Any
    col_bytes: Any
    codes: Any


def regular_boundary_pairs(
    fragment: "Fragment", automaton: "QueryAutomaton"
) -> Tuple[Any, Any, "RegularPrologue"]:
    """The view of ``fragment``, the prologue's cone and the regular
    algorithm's roots and seeds.

    Node rows come from the cached boundary prologue, states and their id
    sizes from the query's compiled tables
    (:attr:`~repro.automata.query_automaton.QueryAutomaton.compiled`); per
    fragment only the positions' label codes and one match matrix over the
    root and seed rows are built.  The pairs are in exactly the python
    reference's order — nodes sorted by ``repr``, states in column order,
    one pair per matching combination (seeds skip ``US``, which no
    transition enters).  Row-major ``nonzero`` over the match matrix
    reproduces the nested loops.  The seed ``(t, UT)`` becomes the ``TRUE``
    column, and every pair's modeled id size is ``2 + node + state`` bytes
    (a 2-tuple), read off the view's ``node_bytes``.
    """
    import numpy as np

    from ..distributed.messages import payload_size
    from .bes import TRUE
    from .csr import boundary_prologue

    compiled = automaton.compiled
    states = compiled.states
    state_bytes = np.array(compiled.state_bytes, dtype=np.int64)
    csr, cone, found = boundary_prologue(fragment, automaton.source, automaton.target)
    num_nodes = csr.num_nodes
    label_index = csr.label_index
    codes = np.array(
        [
            _WILDCARD if label is None else label_index.get(label, _ABSENT)
            for label in compiled.position_labels
        ],
        dtype=np.int64,
    )
    # bool[rows, states]: US is the source row, a position its label, UT the
    # target row; seeds skip US, which no transition enters.
    num_roots = found.root_rows.size
    rows = np.concatenate((found.root_rows, found.seed_rows))
    target_row = csr.index.get(automaton.target, -1)
    match = np.empty((rows.size, len(states)), dtype=bool)
    match[:, 0] = rows == csr.index.get(automaton.source, -1)
    match[num_roots:, 0] = False
    match[:, -1] = rows == target_row
    np.equal(csr.label_codes.take(rows)[:, None], codes, out=match[:, 1:-1])
    match[:, 1:-1] |= codes == _WILDCARD
    # One row-major scan for roots and seeds; the roots' hits come first.
    hit_rows, hit_cols = np.nonzero(match)
    node_rows = rows.take(hit_rows)
    nodes = map(csr.order.__getitem__, node_rows.tolist())
    pairs = list(zip(nodes, map(states.__getitem__, hit_cols.tolist())))
    cells = hit_cols * num_nodes + node_rows
    sizes = 2 + csr.node_bytes.take(node_rows) + state_bytes.take(hit_cols)
    split = int(np.searchsorted(hit_rows, num_roots))
    seeds, seed_cells, col_bytes = pairs[split:], cells[split:], sizes[split:]
    if target_row >= 0:
        for at in np.flatnonzero(seed_cells == (len(states) - 1) * num_nodes + target_row):
            seeds[at] = TRUE
            col_bytes[at] = payload_size(TRUE)
    return csr, cone, RegularPrologue(
        pairs[:split], cells[:split], int(sizes[:split].sum()), seeds, seed_cells, col_bytes, codes
    )


def regular_rows(fragment: "Fragment", automaton: "QueryAutomaton") -> "BitRows":
    """``localEvalr``'s :class:`~repro.core.bes.BitRows` for ``automaton``."""
    import numpy as np

    from .bes import BitRows

    csr, cone, found = regular_boundary_pairs(fragment, automaton)
    if found.columns:
        masks = _regular_masks(np, csr, cone, automaton, found)
    else:
        masks = [0] * len(found.roots)
    return BitRows.from_masks(
        found.roots, found.columns, masks, found.row_bytes, found.col_bytes.tobytes()
    )


def _regular_masks(
    np, csr: Any, cone: Any, automaton: "QueryAutomaton", found: "RegularPrologue"
) -> List[int]:
    """Per root cell, the seed bitmask it reaches over the local product graph.

    The product vertex set is ``V x Vq`` laid out as a ``[states, V,
    words]`` bitset cube, so each state's plane is one contiguous
    ``uint64[V, words]`` array.  Bits flow against product edges — for
    every automaton transition ``u -> u'`` and graph edge ``v -> w`` with
    ``(w, u')`` label-consistent, row ``(v, u)`` absorbs ``(w, u')`` — so
    the fixpoint at a root pair is exactly the python reference's closure sweep
    over :func:`repro.graph.product.product_successors`.  A position state
    ``u'`` restricts the edges to the CSR view's cached sub-CSR of edges
    into nodes carrying its label; ``UT`` matches by node identity, so its
    sub-CSR (edges into the target row) is built per call.  Every sub-CSR
    keeps only the source rows in ``cone``, the graph rows a root pair's
    product paths can pass (:meth:`~repro.core.csr.Cone.label_edges`).
    The schedule and target columns are the query's compiled tables.
    """
    compiled = automaton.compiled
    num_states = len(compiled.states)
    num_nodes = csr.num_nodes
    seed_cells = found.seed_cells

    words = max(1, (len(seed_cells) + 63) >> 6)
    word, bit = _seed_bits(np, len(seed_cells))
    bits = np.zeros((num_states, num_nodes, words), dtype=np.uint64)
    # Seed pairs are distinct, so their cells are distinct: one store.
    bits.reshape(-1)[seed_cells * words + word] = bit

    # Per successor-state column, the sub-CSR of graph edges whose target
    # may occupy that state — bits only ever flow through label-consistent
    # product pairs — plus the flat scatter index of its source rows.
    target_row = csr.index.get(automaton.target)
    codes = found.codes.tolist()
    edges: Dict[int, Any] = {}
    for u2_col in compiled.target_cols:
        if u2_col == num_states - 1:
            if target_row is None:
                continue
            column = np.zeros(num_nodes, dtype=bool)
            column[target_row] = True
            sub = cone.restrict(csr.edges_into(column))
        else:
            code = codes[u2_col - 1]
            if code == _ABSENT:
                continue
            sub = cone.label_edges(csr, None if code == _WILDCARD else code)
        if sub is not None:
            rows, starts, targets = sub
            edges[u2_col] = (rows, starts, targets, _flat_rows(np, rows, words))

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
        # Bytes compare in a fraction of ``array_equal``'s call overhead.
        if new.tobytes() == cur.tobytes():
            return False
        plane.reshape(-1)[flat] = new.reshape(-1)
        return True

    # By the time a component of the schedule runs, every successor
    # state's plane outside it is final, so cross-component transitions
    # apply exactly once and only intra-component cycles need a fixpoint
    # loop.
    for incoming, internal in compiled.schedule:
        for u_col, u2_col in incoming:
            step(u_col, u2_col)
        changed = bool(internal)
        while changed:
            changed = False
            for u_col, u2_col in internal:
                if step(u_col, u2_col):
                    changed = True
    return _rows_to_ints(bits.reshape(-1, words).take(found.root_cells, axis=0))
