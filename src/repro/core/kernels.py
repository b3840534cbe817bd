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
reference's; regular emits the pair-id matrix,
:class:`~repro.core.regular.RegularRows` — rows and columns as interned
(node, state) pair ids, ``(t, ut)`` at ``TRUE_ID``, each column at its
own bit in the kernel's seed order — whose rows, columns, id sizes,
decoded equations and wire size equal the reference's.  Roots and columns
come from the boundary prologue cached on the CSR view
(:func:`~repro.core.csr.boundary_prologue`).  The kernels change *how* a
fragment is swept, never *what* the paper's cost model observes, which is
why the kernel is deliberately absent from serving-cache keys
(:meth:`~repro.serving.plans.QueryPlan.fragment_params`).
"""

from __future__ import annotations

import importlib.util
from typing import TYPE_CHECKING, Any, Dict, NamedTuple, Optional, Tuple

from ..errors import KernelError
from ..partition.fragment import TRUE_ID
from ..strategies import StrategyRegistry
from .bes import TRUE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..automata.query_automaton import QueryAutomaton
    from ..partition.fragment import Fragment
    from .bounded import HopRows
    from .reachability import ReachRows
    from .regular import RegularRows

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
    pairs as pair ids and as cells of the ``[states * V]`` cube, plus the
    fragment's label code per position and the nodes behind the node ids
    (which :class:`~repro.core.regular.RegularRows` decodes from)."""

    row_ids: Any
    root_cells: Any
    row_bytes: int
    col_ids: Any
    seed_cells: Any
    col_bytes: Any
    codes: Any
    nodes: Tuple[Any, ...]
    node_ids: Any


def regular_boundary_pairs(
    fragment: "Fragment", automaton: "QueryAutomaton"
) -> Tuple[Any, Any, "RegularPrologue"]:
    """The view of ``fragment``, the prologue's cone and the regular
    algorithm's roots and seeds.

    Node rows and ``Vf`` ids come from the cached boundary prologue, states
    and their id sizes from the query's compiled tables
    (:attr:`~repro.automata.query_automaton.QueryAutomaton.compiled`); per
    fragment only the positions' label codes and one match matrix over the
    root and seed rows are built.  The pairs are in exactly the python
    reference's order — nodes sorted by ``repr``, states in column order,
    one pair per matching combination (seeds skip ``US``, which no
    transition enters).  Row-major ``nonzero`` over the match matrix
    reproduces the nested loops.  Pair ``(w, col)`` gets id ``vf_id(w) ·
    |Vq| + col``, and ``~(block · |Vq| + col)`` for a local endpoint outside
    ``Vf`` (block 0 for the source, 1 for a target that is not the
    source); the seed ``(t, UT)`` becomes the ``TRUE`` column at
    ``TRUE_ID``.  Every pair's modeled id size is ``2 + node + state``
    bytes (a 2-tuple), read off the view's ``node_bytes``.  No pair tuple
    is built.
    """
    import numpy as np

    from .csr import boundary_prologue

    compiled = automaton.compiled
    num_states = len(compiled.states)
    source, target = automaton.source, automaton.target
    csr, cone, found = boundary_prologue(fragment, source, target)
    label_index = csr.label_index
    code_list = [
        _WILDCARD if label is None else label_index.get(label, _ABSENT)
        for label in compiled.position_labels
    ]
    codes = np.array(code_list, dtype=np.int64)
    # bool[rows, states], roots then seeds: a position matches its label,
    # the wildcard everything; US is the source's root row alone and UT the
    # target's rows alone (seeds skip US, which no transition enters).  Both
    # halves ascend, so an endpoint's row is one searchsorted away.
    root_rows, seed_rows = found.root_rows, found.seed_rows
    num_roots = root_rows.size
    rows = np.concatenate((root_rows, seed_rows))
    match = np.zeros((rows.size, num_states), dtype=bool)
    np.equal(csr.label_codes.take(rows)[:, None], codes, out=match[:, 1:-1])
    if _WILDCARD in code_list:
        match[:, [1 + p for p, code in enumerate(code_list) if code == _WILDCARD]] = True
    node_ids = np.concatenate((found.root_ids, found.col_ids))
    negative = False
    if source in fragment.nodes:
        match[int(root_rows.searchsorted(csr.index[source])), 0] = True
        negative = source not in fragment.boundary_ids
    target_row = csr.index.get(target)
    if target_row is not None:
        at = num_roots + int(seed_rows.searchsorted(target_row))
        match[at, -1] = True
        if target in fragment.in_nodes or target == source and target in fragment.nodes:
            match[int(root_rows.searchsorted(target_row)), -1] = True
        if target != source and target in fragment.nodes and target not in fragment.boundary_ids:
            node_ids[at] = -2  # block 1 of the negative ids, apart from s
            negative = True
    # One row-major scan for roots and seeds; the roots' hits come first.
    hit_rows, hit_cols = match.nonzero()
    hit_ids = node_ids.take(hit_rows)
    pair_ids = hit_ids * num_states + hit_cols
    if negative:
        low = hit_ids < 0
        pair_ids[low] = ~(~hit_ids[low] * num_states + hit_cols[low])
    node_rows = rows.take(hit_rows)
    cells = hit_cols * csr.num_nodes + node_rows
    state_bytes = np.array(compiled.state_bytes, dtype=np.int64)
    sizes = csr.node_bytes.take(node_rows) + state_bytes.take(hit_cols) + 2
    split = int(hit_rows.searchsorted(num_roots))
    col_ids, col_bytes = pair_ids[split:], sizes[split:]
    if target_row is not None:
        # (t, UT) is the seed row's last hit: the TRUE column.
        true_at = int(hit_rows.searchsorted(at, side="right")) - 1 - split
        col_ids[true_at] = TRUE_ID
        col_bytes[true_at] = TRUE.payload_size()
    return csr, cone, RegularPrologue(
        pair_ids[:split],
        cells[:split],
        int(sizes[:split].sum()),
        col_ids,
        cells[split:],
        col_bytes,
        codes,
        (*found.roots, *found.columns),
        node_ids,
    )


def regular_rows(fragment: "Fragment", automaton: "QueryAutomaton") -> "RegularRows":
    """``localEvalr``'s :class:`~repro.core.regular.RegularRows` for
    ``automaton``: per root pair, the seed pairs it reaches, column ``j``
    at bit ``j``, sized once here."""
    import numpy as np

    from .regular import RegularRows

    csr, cone, found = regular_boundary_pairs(fragment, automaton)
    if found.col_ids.size:
        bits = _regular_masks(np, csr, cone, automaton, found)
    else:
        bits = np.zeros((found.row_ids.size, 1), dtype=np.uint64)
    return RegularRows(
        None,
        found.row_ids,
        bits,
        None,
        found.col_ids,
        found.row_bytes,
        found.col_bytes,
        len(automaton.compiled.states),
        found.nodes,
        found.node_ids,
    )


def _regular_masks(
    np, csr: Any, cone: Any, automaton: "QueryAutomaton", found: "RegularPrologue"
) -> Any:
    """Per root cell, the ``uint64[words]`` bitset of the seeds it reaches
    over the local product graph, seed ``j`` at bit ``j``.

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
    return bits.reshape(-1, words).take(found.root_cells, axis=0)
