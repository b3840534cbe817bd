"""Pluggable local reachability indexes (Section 3's remark)."""

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
from .store import (
    OracleEntry,
    OracleStore,
    OracleStoreStats,
    fragment_oracle,
    invalidate_fragment_oracles,
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
    "OracleEntry",
    "OracleFactory",
    "OracleStore",
    "OracleStoreStats",
    "ReachabilityOracle",
    "TOLOracle",
    "TransitiveClosureOracle",
    "TrivialOracle",
    "TwoHopOracle",
    "build_oracle",
    "default_oracle",
    "fragment_oracle",
    "invalidate_fragment_oracles",
    "resolve_oracle",
    "set_default_oracle",
]
