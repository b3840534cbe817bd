"""Graph substrate: labeled digraphs, traversal, SCCs, generators."""

from .digraph import DiGraph, Edge, Label, Node
from .generators import (
    assign_labels,
    erdos_renyi,
    forest_fire,
    grid_graph,
    long_cycle,
    path_graph,
    preferential_attachment,
    synthetic_graph,
)
from .graph_io import from_edge_list, from_json, load, save, to_edge_list, to_json
from .product import product_nodes, product_successors
from .scc import condensation, is_acyclic, tarjan_scc
from .shortcuts import (
    SHORTCUT_MODES,
    ShortcutSet,
    ShortcutStats,
    build_reach_shortcuts,
    build_shortcuts,
    default_shortcuts,
    pick_pivots,
    resolve_shortcuts,
    set_default_shortcuts,
)
from .shortest_paths import (
    bellman_ford,
    dijkstra,
    dijkstra_distance,
    graph_weighted_successors,
)
from .traversal import (
    bfs_distance,
    bfs_distances,
    bfs_order,
    descendants,
    dfs_order,
    is_reachable,
    topological_order,
)

__all__ = [
    "DiGraph",
    "Edge",
    "Label",
    "Node",
    "SHORTCUT_MODES",
    "ShortcutSet",
    "ShortcutStats",
    "assign_labels",
    "bellman_ford",
    "bfs_distance",
    "bfs_distances",
    "bfs_order",
    "build_reach_shortcuts",
    "build_shortcuts",
    "condensation",
    "default_shortcuts",
    "descendants",
    "dfs_order",
    "dijkstra",
    "dijkstra_distance",
    "erdos_renyi",
    "forest_fire",
    "from_edge_list",
    "from_json",
    "graph_weighted_successors",
    "grid_graph",
    "is_acyclic",
    "is_reachable",
    "load",
    "long_cycle",
    "path_graph",
    "pick_pivots",
    "preferential_attachment",
    "product_nodes",
    "product_successors",
    "resolve_shortcuts",
    "save",
    "set_default_shortcuts",
    "synthetic_graph",
    "tarjan_scc",
    "to_edge_list",
    "to_json",
    "topological_order",
]
