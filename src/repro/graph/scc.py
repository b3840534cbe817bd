"""Strongly connected components and condensation DAGs.

Tarjan's algorithm, implemented iteratively so that deep recursion on long
chains (common in web-graph analogs) cannot overflow Python's stack.  The
condensation underpins the CSR view's level-ordered sweep schedule
(:mod:`repro.core.csr`), the regular kernel's transition order and the
static reachability indexes of :mod:`repro.index`.

Functions are generic over a ``(nodes, successors)`` view so they run both on
:class:`~repro.graph.digraph.DiGraph` instances and on implicit product
graphs (graph × query automaton) without materialization.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Tuple

from .digraph import DiGraph, Node

SuccessorsFn = Callable[[Node], Iterable[Node]]


def tarjan_scc(
    nodes: Iterable[Node],
    successors: SuccessorsFn,
) -> List[List[Node]]:
    """Strongly connected components in reverse topological order.

    The returned list is ordered so that every edge of the condensation goes
    from a *later* component to an *earlier* one (i.e., components appear in
    reverse topological order of the condensation DAG) — Tarjan's natural
    output order, which downstream dataflow passes exploit directly.
    """
    index: Dict[Node, int] = {}
    lowlink: Dict[Node, int] = {}
    on_stack: Dict[Node, bool] = {}
    stack: List[Node] = []
    components: List[List[Node]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        # Explicit DFS stack of (node, iterator over successors).
        work: List[Tuple[Node, Iterable[Node]]] = [(root, iter(successors(root)))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = lowlink[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack[nxt] = True
                    work.append((nxt, iter(successors(nxt))))
                    advanced = True
                    break
                if on_stack.get(nxt):
                    if index[nxt] < lowlink[node]:
                        lowlink[node] = index[nxt]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if lowlink[node] < lowlink[parent]:
                    lowlink[parent] = lowlink[node]
            if lowlink[node] == index[node]:
                component: List[Node] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


def condensation(graph: DiGraph) -> Tuple[DiGraph, Dict[Node, int]]:
    """Collapse each SCC to a single node.

    Returns ``(dag, membership)`` where ``dag`` is a :class:`DiGraph` whose
    nodes are integer component ids (in reverse topological order, matching
    :func:`tarjan_scc`) labeled with a tuple of member nodes, and
    ``membership`` maps each original node to its component id.
    """
    comps = tarjan_scc(graph.nodes(), graph.successors)
    membership: Dict[Node, int] = {}
    for cid, members in enumerate(comps):
        for node in members:
            membership[node] = cid
    dag = DiGraph()
    for cid, members in enumerate(comps):
        dag.add_node(cid, label=tuple(members))
    for u, v in graph.edges():
        cu, cv = membership[u], membership[v]
        if cu != cv:
            dag.add_edge(cu, cv)
    return dag, membership


def is_acyclic(graph: DiGraph) -> bool:
    """True iff every SCC is a singleton without a self-loop."""
    for comp in tarjan_scc(graph.nodes(), graph.successors):
        if len(comp) > 1:
            return False
        node = comp[0]
        if graph.has_edge(node, node):
            return False
    return True
