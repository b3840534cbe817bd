"""The reachability oracles by name: a plain name -> class table.

Names survive ``pickle``, where a per-call factory lambda would not.
Unknown names raise :class:`~repro.errors.QueryError` naming the
registered ones.  Degenerate graphs (empty, single-node, or edgeless) get
a :class:`~repro.index.base.TrivialOracle` instead of whatever the name
says: identity reachability is already exact there.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..errors import QueryError
from ..graph.digraph import DiGraph
from .base import BFSOracle, OracleFactory, ReachabilityOracle, TrivialOracle
from .grail import GrailOracle
from .transitive_closure import TransitiveClosureOracle
from .twohop import TwoHopOracle

#: Registry name -> oracle class.
ORACLES: Dict[str, OracleFactory] = {
    "bfs": BFSOracle,
    "transitive-closure": TransitiveClosureOracle,
    "twohop": TwoHopOracle,
    "grail": GrailOracle,
}

#: The registered oracle names, in registry order.
ORACLE_NAMES: Tuple[str, ...] = tuple(ORACLES)


def build_oracle(name: str, graph: DiGraph) -> ReachabilityOracle:
    """Build the named oracle for one fragment-local graph.

    Degenerate graphs (≤ 1 node, or no edges) get a
    :class:`TrivialOracle` regardless of ``name``.
    """
    if name not in ORACLES:
        raise QueryError(
            f"unknown oracle {name!r}; known: {', '.join(ORACLE_NAMES)}"
        )
    if graph.num_nodes <= 1 or graph.num_edges == 0:
        return TrivialOracle(graph)
    return ORACLES[name](graph)
