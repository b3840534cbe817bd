"""repro — reproduction of *Performance Guarantees for Distributed
Reachability Queries* (Fan, Wang, Wu; VLDB 2012).

Quickstart::

    import repro

    g = repro.DiGraph.from_edges([("a", "b"), ("b", "c")], labels={"b": "HR"})
    client = repro.connect(g, fragments=2, seed=0)
    result = client.query(repro.ReachQuery("a", "c"))
    assert result.answer and result.stats.max_visits_per_site == 1

The same ``connect()`` call accepts an existing
:class:`~repro.distributed.cluster.SimulatedCluster` or a ``"host:port"``
address of a ``repro-serve`` TCP front end, and the returned client serves
single queries (``query``), batches (``batch``) and standing incremental
sessions (``session``) identically over both transports.

The package mirrors the paper:

* :mod:`repro.core`        — disReach / disDist / disRPQ (Sections 3–5)
* :mod:`repro.mapreduce`   — MRdRPQ (Section 6)
* :mod:`repro.baselines`   — disReachn/m, disDistn, disRPQn/d (Section 7)
* :mod:`repro.graph`, :mod:`repro.automata`, :mod:`repro.partition`,
  :mod:`repro.distributed` — the substrates
* :mod:`repro.serving`, :mod:`repro.net` — the batch engine and the TCP
  serving stack (coordinator/broker executor backend, ``repro-serve``)
* :mod:`repro.workload`, :mod:`repro.bench` — datasets, query generators and
  the per-figure experiment harness
"""

from .automata import PositionNFA, QueryAutomaton, parse_regex
from .client import Client, connect
from .core import (
    BooleanEquationSystem,
    BoundedReachQuery,
    MinPlusSystem,
    QueryResult,
    ReachQuery,
    RegularReachQuery,
    algorithms_for,
    bounded_reachable,
    dis_dist,
    dis_reach,
    dis_rpq,
    distance,
    evaluate_centralized,
    reachable,
    regular_reachable,
)
from .distributed import ExecutionStats, SimulatedCluster
from .errors import (
    DistributedError,
    FragmentationError,
    GraphError,
    MapReduceError,
    QueryError,
    RegexSyntaxError,
    ReproError,
)
from .graph import DiGraph, synthetic_graph
from .mapreduce import MapReduceRuntime, mrd_dist, mrd_reach, mrd_rpq
from .partition import (
    Fragment,
    Fragmentation,
    build_fragmentation,
    check_fragmentation,
)

__version__ = "1.1.0"

__all__ = [
    "BooleanEquationSystem",
    "BoundedReachQuery",
    "Client",
    "DiGraph",
    "DistributedError",
    "ExecutionStats",
    "Fragment",
    "Fragmentation",
    "FragmentationError",
    "GraphError",
    "MapReduceError",
    "MapReduceRuntime",
    "MinPlusSystem",
    "PositionNFA",
    "QueryAutomaton",
    "QueryError",
    "QueryResult",
    "ReachQuery",
    "RegexSyntaxError",
    "RegularReachQuery",
    "ReproError",
    "SimulatedCluster",
    "__version__",
    "algorithms_for",
    "bounded_reachable",
    "build_fragmentation",
    "check_fragmentation",
    "connect",
    "dis_dist",
    "dis_reach",
    "dis_rpq",
    "distance",
    "evaluate_centralized",
    "mrd_dist",
    "mrd_reach",
    "mrd_rpq",
    "parse_regex",
    "reachable",
    "regular_reachable",
    "synthetic_graph",
]
