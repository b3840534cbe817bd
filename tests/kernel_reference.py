"""The pure-python local-evaluation sweeps: the reference the kernel is checked against.

The runtime sweeps fragments with the numpy kernel
(:mod:`repro.core.kernels`).  This module keeps the pure-python form of
the three local-evaluation procedures so the identity suites can compare
the kernel's rows against them element by element:

* :func:`local_eval_reach` — ``localEval`` (Section 3): for every in-node
  ``v`` of a fragment, the subset of virtual nodes (``oset``) reachable
  from ``v`` inside the fragment, i.e. ``des(v, Fi) ∩ oset``;
* :func:`local_eval_bounded` — ``localEvald`` (Section 4): one cutoff BFS
  per node on the smaller side of the ``iset × oset`` rectangle;
* :func:`local_eval_regular` — ``localEvalr`` (Section 5): the reach
  question on the *product* of the fragment with the query automaton.

The reach-set sweep behind the first and third answers every root in a
single pass instead of one DFS per in-node (the paper's formulation):
compute SCCs (Tarjan emits them in reverse topological order), then
propagate *seed bitmasks* through the condensation in one topological
sweep.  Python's arbitrary-precision integers make the per-node state a
single ``int``, so the sweep is O(|V| + |E|) big-int word operations.  The
result is identical to running the paper's per-node DFS — only faster —
and, unlike the paper's recursive ``cmpRvec``, it terminates on cyclic
fragments (see DESIGN.md §3.2).
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.automata.query_automaton import US, UT, QueryAutomaton
from repro.core.bes import TRUE
from repro.core.minplus import TARGET, Term
from repro.core.queries import BoundedReachQuery, ReachQuery
from repro.graph.digraph import Node
from repro.graph.product import product_successors
from repro.graph.scc import tarjan_scc
from repro.distributed.messages import equation_set_size, payload_size
from repro.graph.traversal import bfs_distances
from repro.partition.fragment import Fragment

SuccessorsFn = Callable[[Node], Iterable[Node]]


def reachable_seed_masks(
    nodes: Iterable[Node],
    successors: SuccessorsFn,
    seeds: Sequence[Node],
    include_self: bool = True,
) -> Dict[Node, int]:
    """For every node, the bitmask (over ``seeds`` indices) of seeds it reaches.

    ``include_self=True`` (default) counts a seed as reaching itself via the
    empty path; with ``False``, a seed node only carries its own bit if it
    lies on a cycle (a non-empty path back to itself).

    Nodes reachable from none of the seeds simply map to ``0``.
    """
    seed_bit: Dict[Node, int] = {}
    for i, seed in enumerate(seeds):
        seed_bit[seed] = seed_bit.get(seed, 0) | (1 << i)

    comps = tarjan_scc(nodes, successors)
    comp_of: Dict[Node, int] = {}
    for cid, members in enumerate(comps):
        for node in members:
            comp_of[node] = cid

    # comp_full[cid]: seeds reachable from the component via paths of any
    # length *including* the empty one — this is what predecessors inherit.
    # comp_member[cid]: what the component's own members report; it differs
    # from comp_full only for acyclic singletons under include_self=False.
    comp_full: List[int] = [0] * len(comps)
    comp_member: List[int] = [0] * len(comps)
    # Tarjan's output is in reverse topological order: every successor
    # component of comps[cid] has an id < cid, so a single left-to-right scan
    # sees each component after all components it can reach.
    for cid, members in enumerate(comps):
        own = 0
        inherited = 0
        self_loop = False
        for node in members:
            own |= seed_bit.get(node, 0)
            for nxt in successors(node):
                ncid = comp_of[nxt]
                if ncid != cid:
                    inherited |= comp_full[ncid]
                elif nxt == node:
                    self_loop = True
        comp_full[cid] = own | inherited
        cyclic = len(members) > 1 or self_loop
        if include_self or cyclic:
            # A node in a cyclic SCC reaches every seed of its own SCC via a
            # non-empty path, so its own bits count even without include_self.
            comp_member[cid] = own | inherited
        else:
            comp_member[cid] = inherited

    return {node: comp_member[comp_of[node]] for node in comp_of}


def reachable_seed_sets(
    nodes: Iterable[Node],
    successors: SuccessorsFn,
    seeds: Sequence[Node],
    include_self: bool = True,
) -> Dict[Node, FrozenSet[Node]]:
    """Like :func:`reachable_seed_masks` but decoded to frozensets of seeds."""
    seeds = list(seeds)
    masks = reachable_seed_masks(nodes, successors, seeds, include_self=include_self)
    cache: Dict[int, FrozenSet[Node]] = {}
    out: Dict[Node, FrozenSet[Node]] = {}
    for node, mask in masks.items():
        if mask not in cache:
            cache[mask] = frozenset(
                seed for i, seed in enumerate(seeds) if mask >> i & 1
            )
        out[node] = cache[mask]
    return out


def decode_mask(mask: int, seeds: Sequence[Node]) -> FrozenSet[Node]:
    """Decode a bitmask produced by :func:`reachable_seed_masks`."""
    return frozenset(seed for i, seed in enumerate(seeds) if mask >> i & 1)


def forward_closure(
    roots: Iterable[Node],
    successors: SuccessorsFn,
) -> List[Node]:
    """Every node reachable from ``roots`` (roots included), in BFS order.

    The closure is successor-closed, so SCC/mask sweeps may run on it
    directly — ``localEval``/``localEvalr`` use this to skip the parts of a
    fragment (or product graph) that no in-node can see.
    """
    from collections import deque

    seen: Set[Node] = set()
    order: List[Node] = []
    queue = deque()
    for root in roots:
        if root not in seen:
            seen.add(root)
            order.append(root)
            queue.append(root)
    while queue:
        node = queue.popleft()
        for nxt in successors(node):
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
                queue.append(nxt)
    return order


def reachable_seed_masks_from(
    roots: Iterable[Node],
    successors: SuccessorsFn,
    seeds: Sequence[Node],
    include_self: bool = True,
) -> Dict[Node, int]:
    """:func:`reachable_seed_masks` restricted to the closure of ``roots``.

    Output covers exactly the closure; seeds outside it simply never get
    their bit set.  Cost is proportional to the *visited* part of the
    (possibly much larger, possibly implicit) graph.
    """
    closure = forward_closure(roots, successors)
    return reachable_seed_masks(closure, successors, seeds, include_self=include_self)


def python_boundary(fragment: "Fragment", source: Any, target: Any) -> Tuple[list, list]:
    """The python reference's roots and seeds on ``fragment``, sorted by ``repr``.

    Roots are ``Fi.I`` plus ``source`` when it is stored here; seeds are
    ``Fi.O`` plus ``target`` when it is stored here — what the numpy
    kernels read from :func:`~repro.core.csr.boundary_prologue`.
    """
    iset = set(fragment.in_nodes)
    oset = set(fragment.virtual_nodes)
    if source in fragment.nodes:
        iset.add(source)
    if target in fragment.nodes:
        oset.add(target)
    return sorted(iset, key=repr), sorted(oset, key=repr)


class BooleanRows(Mapping):
    """The reference's Boolean answer (``localEval``, ``localEvalr``): ``var
    -> frozenset`` of the columns its seed mask holds (bit ``j`` =
    ``columns[j]``), with the roots and columns in order and their modeled
    id sizes."""

    def __init__(self, rows: Sequence[Any], columns: Sequence[Any], masks: Iterable[int]) -> None:
        self.rows, self.columns = tuple(rows), tuple(columns)
        self._equations = {
            var: frozenset(column for j, column in enumerate(self.columns) if mask >> j & 1)
            for var, mask in zip(self.rows, masks)
        }
        self.row_bytes = sum(map(payload_size, self.rows))
        self.col_bytes = [payload_size(column) for column in self.columns]

    def __getitem__(self, var: Any) -> FrozenSet[Any]:
        return self._equations[var]

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


def boolean_size(equations: Mapping) -> int:
    """The wire size of Boolean equations, from their dict form
    (:func:`~repro.distributed.messages.equation_set_size`): the variables'
    ids, a column table of the disjuncts some row holds, then each row as
    the cheaper of a dense bitset over them and a sparse list."""
    plain = dict(equations)
    columns = set().union(*plain.values())
    return equation_set_size(plain.keys(), columns, map(len, plain.values()), len(columns))


#: disRPQ's partial is a Boolean one too: the same size rule.
regular_size = boolean_size


def local_eval_reach(fragment: Fragment, query: ReachQuery) -> BooleanRows:
    """``localEval``'s rows: one closure-restricted seed-mask sweep."""
    roots, seeds = python_boundary(fragment, query.source, query.target)
    columns = [TRUE if seed == query.target else seed for seed in seeds]
    if not roots or not seeds:
        return BooleanRows(roots, columns, [0] * len(roots))
    # Sweep only what the in-nodes can see (one shared forward closure).
    reached = reachable_seed_masks_from(roots, fragment.local_graph.successors, seeds)
    return BooleanRows(roots, columns, map(reached.__getitem__, roots))


def reach_view(rows: Any) -> tuple:
    """What the identity suites compare of a Boolean partial, this module's
    :class:`BooleanRows` or the kernel's ``ReachRows``/``RegularRows``:
    roots and columns in order, the decoded equations, the recorded id
    sizes, the wire size and the disjunct count."""
    if isinstance(rows, BooleanRows):
        size, num_entries = boolean_size(rows), sum(map(len, rows.values()))
    else:
        size, num_entries = rows.payload_size(), rows.num_entries
    return (
        rows.rows,
        rows.columns,
        dict(rows),
        rows.row_bytes,
        [int(nbytes) for nbytes in rows.col_bytes],
        size,
        num_entries,
    )


#: disRPQ's partial is compared the same way.
regular_view = reach_view


def regular_ids(fragment: Fragment, automaton: QueryAutomaton, pairs: Iterable[Any]) -> List[int]:
    """The interned pair id of each of ``pairs`` on ``fragment``:
    ``vf_id · |Vq| + column`` for a node in ``Vf``, ``-1 - column`` for a
    local source outside it, ``-1 - |Vq| - column`` for a local target
    outside it (not the source), and 0 for ``TRUE`` — ``(t, ut)``."""
    states = automaton.states()
    ids = fragment.boundary_ids
    out = []
    for pair in pairs:
        if pair is TRUE:
            out.append(0)
            continue
        node, state = pair
        column = states.index(state)
        if node in ids:
            out.append(ids[node] * len(states) + column)
        else:
            block = 0 if node == automaton.source else 1
            out.append(-1 - block * len(states) - column)
    return out


class BoundedTerms(Mapping):
    """The reference's ``localEvald`` answer: ``var -> ((column, float
    hops), ...)`` in column order, with the roots and columns in order and
    their modeled id sizes."""

    def __init__(
        self,
        rows: Sequence[Node],
        columns: Sequence[Any],
        terms: Iterable[Iterable[Tuple[int, int]]],
    ) -> None:
        self.rows, self.columns = tuple(rows), tuple(columns)
        self._equations = {
            var: tuple((self.columns[j], float(hops)) for j, hops in row)
            for var, row in zip(self.rows, terms)
        }
        self.row_bytes = sum(map(payload_size, self.rows))
        self.col_bytes = [payload_size(column) for column in self.columns]

    def __getitem__(self, var: Node) -> Tuple[Term, ...]:
        return self._equations[var]

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


def bounded_size(equations: Mapping) -> int:
    """The wire size of bounded equations, from their dict form: the
    variables' ids, a column table of the columns some term uses, then
    2 bytes of column index + 4 bytes of distance per term."""
    plain = dict(equations)
    used = {column for terms in plain.values() for column, _ in terms}
    num_terms = sum(map(len, plain.values()))
    return 2 + sum(map(payload_size, plain)) + sum(map(payload_size, used)) + 6 * num_terms


def bounded_view(rows: Any) -> tuple:
    """What the identity suites compare of a bounded partial, this module's
    :class:`BoundedTerms` or the kernel's ``HopRows``: roots and columns in
    order, the decoded equations, the recorded id sizes, the wire size and
    the term count."""
    if isinstance(rows, BoundedTerms):
        size, num_terms = bounded_size(rows), sum(map(len, rows.values()))
    else:
        size, num_terms = rows.payload_size(), rows.num_terms
    return (
        rows.rows,
        rows.columns,
        dict(rows),
        rows.row_bytes,
        [int(nbytes) for nbytes in rows.col_bytes],
        size,
        num_terms,
    )


def local_eval_bounded(fragment: Fragment, query: BoundedReachQuery) -> BoundedTerms:
    """``localEvald``'s rows: one cutoff BFS per node on the smaller side.

    Local distances are computed with one *reverse* BFS per boundary node
    (cut off at the bound), so the work is ``O(|Fi.O| · |Fi|)`` regardless
    of how many in-nodes ask.
    """
    roots, seeds = python_boundary(fragment, query.source, query.target)
    if not roots or not seeds:
        return BoundedTerms(roots, (), ([] for _ in roots))
    term_vars = [TARGET if o == query.target else o for o in seeds]

    # One BFS per node on the smaller side of the (iset × oset) rectangle:
    # forward out-balls from in-nodes, or reverse in-balls from boundary
    # nodes — whichever needs fewer sweeps.  (On hub-dominated graphs the
    # ball shapes differ enormously, so this is a large constant factor.)
    # Either way each row collects ``(seed index, hops)`` in seed order.
    terms: List[List[Tuple[int, int]]] = [[] for _ in roots]
    local = fragment.local_graph
    if len(roots) <= len(seeds):
        for row, v in zip(terms, roots):
            dist_from_v = bfs_distances(local, v, cutoff=query.bound)
            for j, o in enumerate(seeds):
                d = dist_from_v.get(o)
                if d is not None and d <= query.bound:
                    row.append((j, d))
    else:
        reverse_successors = local.predecessors
        for j, o in enumerate(seeds):
            dist_to_o = bfs_distances(
                None, o, successors=reverse_successors, cutoff=query.bound
            )
            for row, v in zip(terms, roots):
                d = dist_to_o.get(v)
                if d is not None and d <= query.bound:
                    row.append((j, d))
    return BoundedTerms(roots, term_vars, terms)


def local_eval_regular(fragment: Fragment, automaton: QueryAutomaton) -> BooleanRows:
    """``localEvalr``'s rows: one closure sweep over the local product graph."""
    # Roots: every state each in-node (and local source) matches; seeds:
    # every state a boundary node may occupy.  (t, UT) is the ``true``
    # seed; (w, US) is unreachable by construction (no transition enters
    # the start state) and is omitted.
    target = automaton.target
    local = fragment.local_graph
    matches = automaton.match_fn(local)
    nodes, boundary = python_boundary(fragment, automaton.source, target)
    roots = [
        (v, state) for v in nodes for state in automaton.states() if matches(v, state)
    ]
    seeds = [
        (o, state)
        for o in boundary
        for state in automaton.states()
        if state != US and matches(o, state)
    ]
    columns = [TRUE if pair == (target, UT) else pair for pair in seeds]
    if not roots or not seeds:
        return BooleanRows(roots, columns, [0] * len(roots))
    successors = product_successors(local, automaton.successors, matches)
    # Sweep only the product vertices some in-pair can actually see: one
    # shared forward closure from every (in-node, state) row, instead of
    # enumerating the full |Fi| × |Vq| product (or, as the per-pair
    # formulation of [30] does, re-walking it once per row).
    reached = reachable_seed_masks_from(roots, successors, seeds)
    return BooleanRows(roots, columns, map(reached.__getitem__, roots))
