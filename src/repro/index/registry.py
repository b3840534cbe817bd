"""Named, picklable reachability-oracle registry.

Oracles are selected by *name*, never by closure: names survive
``pickle``, where a per-call factory lambda would not.  Selection follows
the one strategy-registry precedence (explicit > ``set_default_oracle`` >
``REPRO_ORACLE`` > ``none`` — the label-sweep path with no oracle at all;
:mod:`repro.strategies`, DESIGN.md §14).

Unknown names raise :class:`~repro.errors.QueryError` listing the
registered names, whether they arrive by argument or environment.
Degenerate graphs (empty, single-node, or edgeless) get a
:class:`~repro.index.base.TrivialOracle` instead of whatever the name
says — building a label index over nothing is a crash waiting to happen
and identity reachability is already exact.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..errors import QueryError
from ..graph.digraph import DiGraph
from ..strategies import StrategyRegistry
from .base import BFSOracle, OracleFactory, ReachabilityOracle, TrivialOracle
from .grail import GrailOracle
from .landmarks import LandmarkOracle
from .tol import TOLOracle
from .transitive_closure import TransitiveClosureOracle
from .twohop import TwoHopOracle

#: Registry name -> oracle class; ``none`` means "no oracle" (the
#: kernel/bitmask sweep path in ``local_eval_reach``).
ORACLES: Dict[str, Optional[OracleFactory]] = {
    "none": None,
    "bfs": BFSOracle,
    "transitive-closure": TransitiveClosureOracle,
    "twohop": TwoHopOracle,
    "grail": GrailOracle,
    "tol": TOLOracle,
    "landmarks": LandmarkOracle,
}

#: The registered oracle names, ``none`` included, in registry order.
ORACLE_NAMES: Tuple[str, ...] = tuple(ORACLES)

#: The oracle family of the one strategy registry (DESIGN.md §14).
ORACLE_REGISTRY = StrategyRegistry(
    "oracle",
    ORACLES,
    fallback="none",
    error=QueryError,
    env_var="REPRO_ORACLE",
    listing="registered oracles",
    summary="reachability index over one fragment-local graph (a leaf "
    "library; DESIGN.md §12)",
)

ORACLE_ENV_VAR = ORACLE_REGISTRY.env_var
set_default_oracle = ORACLE_REGISTRY.set_default
default_oracle = ORACLE_REGISTRY.default
resolve_oracle = ORACLE_REGISTRY.resolve


def build_oracle(name: str, graph: DiGraph) -> ReachabilityOracle:
    """Build the named oracle for one fragment-local graph.

    Picklable by construction: module-level function + registry name.
    Degenerate graphs (≤ 1 node, or no edges) get a
    :class:`TrivialOracle` regardless of ``name``.
    """
    ORACLE_REGISTRY.check(name)
    factory = ORACLES[name]
    if factory is None:
        raise QueryError(
            "oracle 'none' names the sweep path and cannot be built; "
            "resolve the name before asking for an index"
        )
    if graph.num_nodes <= 1 or graph.num_edges == 0:
        return TrivialOracle(graph)
    return factory(graph)
