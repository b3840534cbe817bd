"""Local reachability indexes (Section 3's remark): a static leaf library.

No other ``repro`` module imports this package; evaluation runs the numpy
cone sweep (DESIGN.md §12).  The tests check each oracle against
``localEval`` until the package is deleted.
"""

from .base import BFSOracle, OracleFactory, ReachabilityOracle, TrivialOracle
from .grail import GrailOracle
from .registry import ORACLE_NAMES, ORACLES, build_oracle
from .transitive_closure import TransitiveClosureOracle
from .twohop import TwoHopOracle

__all__ = [
    "BFSOracle",
    "GrailOracle",
    "ORACLES",
    "ORACLE_NAMES",
    "OracleFactory",
    "ReachabilityOracle",
    "TransitiveClosureOracle",
    "TrivialOracle",
    "TwoHopOracle",
    "build_oracle",
]
