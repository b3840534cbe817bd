"""Local reachability indexes (Section 3's remark): a leaf library.

No other ``repro`` module imports this package; evaluation runs the numpy
cone sweep (DESIGN.md §12).
"""

from .base import (
    BFSOracle,
    MaintainableOracle,
    OracleFactory,
    ReachabilityOracle,
    TrivialOracle,
)
from .grail import GrailOracle
from .landmarks import LandmarkOracle
from .registry import (
    ORACLE_ENV_VAR,
    ORACLE_NAMES,
    ORACLES,
    build_oracle,
    default_oracle,
    resolve_oracle,
    set_default_oracle,
)
from .tol import TOLOracle
from .transitive_closure import TransitiveClosureOracle
from .twohop import TwoHopOracle

__all__ = [
    "BFSOracle",
    "GrailOracle",
    "LandmarkOracle",
    "MaintainableOracle",
    "ORACLES",
    "ORACLE_ENV_VAR",
    "ORACLE_NAMES",
    "OracleFactory",
    "ReachabilityOracle",
    "TOLOracle",
    "TransitiveClosureOracle",
    "TrivialOracle",
    "TwoHopOracle",
    "build_oracle",
    "default_oracle",
    "resolve_oracle",
    "set_default_oracle",
]
