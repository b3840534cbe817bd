"""Build a :class:`~repro.partition.fragment.Fragmentation` from an assignment.

The builder is the single place where the paper's fragment anatomy
(``Vi``, ``Fi.O``, ``Fi.I``, ``cEi``) is derived from a plain node→site
mapping, so every partitioner and every test goes through the same code.
"""

from __future__ import annotations

from typing import List, Mapping, Set

from ..errors import FragmentationError
from ..graph.digraph import DiGraph, Edge, Node
from .fragment import TRUE_ID, Fragment, Fragmentation


def build_fragmentation(
    graph: DiGraph,
    assignment: Mapping[Node, int],
    num_fragments: int = 0,
) -> Fragmentation:
    """Split ``graph`` according to ``assignment`` (node -> fragment id).

    ``num_fragments`` forces the fragment count (allowing empty fragments,
    which the paper permits — a site may hold a fragment with no nodes);
    by default it is ``max(assignment values) + 1``.
    """
    missing = [node for node in graph.nodes() if node not in assignment]
    if missing:
        raise FragmentationError(
            f"assignment misses {len(missing)} node(s), e.g. {missing[0]!r}"
        )
    if num_fragments <= 0:
        num_fragments = max(assignment.values(), default=-1) + 1
    for node, fid in assignment.items():
        if not (0 <= fid < num_fragments):
            raise FragmentationError(
                f"node {node!r} assigned to fragment {fid} outside [0, {num_fragments})"
            )

    owned: List[Set[Node]] = [set() for _ in range(num_fragments)]
    for node in graph.nodes():
        owned[assignment[node]].add(node)

    virtual: List[Set[Node]] = [set() for _ in range(num_fragments)]
    in_nodes: List[Set[Node]] = [set() for _ in range(num_fragments)]
    cross: List[List[Edge]] = [[] for _ in range(num_fragments)]
    for u, v in graph.edges():
        fu, fv = assignment[u], assignment[v]
        if fu != fv:
            virtual[fu].add(v)
            in_nodes[fv].add(v)
            cross[fu].append((u, v))

    # Vf interned once, in repr order (deterministic across processes);
    # every virtual node is an in-node of its owner, so the in-nodes cover it.
    vf = sorted(set().union(*in_nodes), key=repr)
    boundary_ids = {node: i for i, node in enumerate(vf, TRUE_ID + 1)}

    fragments: List[Fragment] = []
    for fid in range(num_fragments):
        local = DiGraph()
        for node in owned[fid]:
            local.add_node(node, graph.label(node))
        for node in virtual[fid]:
            # Virtual nodes carry the remote node's label (Section 2.1:
            # cross edges ship IRIs / semantic labels), but none of its edges.
            local.add_node(node, graph.label(node))
        for node in owned[fid]:
            for nxt in graph.successors(node):
                if assignment[nxt] == fid:
                    local.add_edge(node, nxt)
        for u, v in cross[fid]:
            local.add_edge(u, v)
        fragments.append(
            Fragment(
                fid=fid,
                local_graph=local,
                nodes=frozenset(owned[fid]),
                virtual_nodes=frozenset(virtual[fid]),
                in_nodes=frozenset(in_nodes[fid]),
                cross_edges=tuple(sorted(cross[fid], key=repr)),
                boundary_ids={
                    node: boundary_ids[node] for node in in_nodes[fid] | virtual[fid]
                },
            )
        )
    return Fragmentation(fragments, dict(assignment))
