"""MRdRPQ: regular reachability as a MapReduce job (Section 6, Fig. 10).

* ``preMRPQ`` (coordinator): compile the query automaton, split the graph
  into ``K`` equal-size fragments (Hadoop's default splitter — our
  ``chunk_partition``), and send ``<i, (Fi, Gq(R))>`` to mapper ``i``;
* ``mapRPQ`` (each mapper): ``localEvalr`` on the received fragment, emit
  ``<1, rvset_i>`` — all pairs share key 1, so they meet at one reducer;
* ``reduceRPQ`` (single reducer): assemble with ``evalDGr`` and emit
  ``<0, ans>``.

ECC is ``O(|Fm| + |R|^2 |Vf|^2)`` (mapper input + reducer input), reported
in the returned stats.  The same job template evaluates plain and bounded
reachability by rewriting them as regular queries (paper Remark, Section 2.2
— and :func:`mrd_reach` / :func:`mrd_dist` below do exactly that).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple, Union

from ..automata.ast import Wildcard
from ..core.queries import RegularReachQuery
from ..core.regular import RegularRows, assemble_regular, local_eval_regular
from ..errors import MapReduceError, QueryError
from ..graph.digraph import DiGraph, Node
from ..partition.builder import build_fragmentation
from ..partition.fragment import Fragment
from ..partition.partitioners import chunk_partition
from .runtime import KeyValue, MapReduceRuntime, MapReduceStats


class MapReduceResult:
    """Answer + job statistics for one MRdRPQ run."""

    def __init__(self, answer: bool, stats: MapReduceStats, details: Dict[str, object]):
        self.answer = answer
        self.stats = stats
        self.details = details

    def __bool__(self) -> bool:
        return self.answer

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MapReduceResult(answer={self.answer}, {self.stats.summary()})"


def mrd_rpq(
    graph: DiGraph,
    query: Union[RegularReachQuery, Tuple[Node, Node, object]],
    num_mappers: int,
    runtime: Optional[MapReduceRuntime] = None,
    partitioner=chunk_partition,
) -> MapReduceResult:
    """Algorithm ``MRdRPQ`` (Fig. 10) on a simulated MapReduce runtime."""
    if not isinstance(query, RegularReachQuery):
        query = RegularReachQuery(*query)
    if num_mappers <= 0:
        raise MapReduceError("num_mappers must be positive")
    if not graph.has_node(query.source):
        raise QueryError(f"query source {query.source!r} is not in the graph")
    if not graph.has_node(query.target):
        raise QueryError(f"query target {query.target!r} is not in the graph")
    runtime = runtime or MapReduceRuntime()

    # ---- preMRPQ: build Gq(R) and partition G into K fragments ----------
    automaton = query.automaton()
    if query.source == query.target and automaton.analysis.nullable:
        # Zero-length path; answered by the coordinator before any job runs.
        stats = MapReduceStats(num_mappers=0, num_reducers=0)
        return MapReduceResult(True, stats, {"trivial": True})
    assignment = partitioner(graph, num_mappers)
    fragmentation = build_fragmentation(graph, assignment, num_mappers)
    inputs: List[KeyValue] = [
        (frag.fid, (frag.local_graph, automaton)) for frag in fragmentation
    ]
    fragments: Dict[int, Fragment] = {frag.fid: frag for frag in fragmentation}

    # ---- mapRPQ: localEvalr as the Map function --------------------------
    def map_fn(key: Hashable, value) -> List[KeyValue]:
        fragment = fragments[key]
        _, received_automaton = value
        return [(1, local_eval_regular(fragment, received_automaton))]

    # ---- reduceRPQ: evalDGr as the Reduce function -----------------------
    def reduce_fn(key: Hashable, values: List[RegularRows]) -> List[KeyValue]:
        return [(0, assemble_regular(dict(enumerate(values)), automaton))]

    outputs, stats = runtime.run(
        inputs, map_fn, reduce_fn, num_reducers=1, partitioner=lambda key, n: 0
    )
    answers = [value for key, value in outputs if key == 0]
    if len(answers) != 1:
        raise MapReduceError(f"expected exactly one answer pair, got {outputs!r}")
    return MapReduceResult(
        bool(answers[0]),
        stats,
        {
            "num_fragments": num_mappers,
            "boundary_nodes": fragmentation.num_boundary_nodes,
            "automaton_states": automaton.num_states,
        },
    )


def mrd_reach(
    graph: DiGraph,
    source: Node,
    target: Node,
    num_mappers: int,
    runtime: Optional[MapReduceRuntime] = None,
) -> MapReduceResult:
    """Plain reachability via MRdRPQ, as ``qrr(s, t, .*)`` (Section 2.2)."""
    query = RegularReachQuery(source, target, Wildcard().star())
    return mrd_rpq(graph, query, num_mappers, runtime=runtime)


def mrd_dist(
    graph: DiGraph,
    source: Node,
    target: Node,
    bound: int,
    num_mappers: int,
    runtime: Optional[MapReduceRuntime] = None,
) -> MapReduceResult:
    """Bounded reachability via MRdRPQ: ``dist <= l`` as ``(. | ε)^(l-1)``.

    A path of length ``n`` has ``n - 1`` intermediate labels, so
    ``dist(s, t) <= l`` iff some path label of length ``<= l - 1`` exists.
    """
    if bound < 0:
        raise QueryError(f"bound must be non-negative, got {bound}")
    if bound == 0:
        stats = MapReduceStats(num_mappers=0, num_reducers=0)
        return MapReduceResult(source == target, stats, {"trivial": True})
    from ..automata.ast import Epsilon, RegexNode, concat, optional

    hop: RegexNode = optional(Wildcard())
    parts = [hop] * max(bound - 1, 0)
    regex: RegexNode = concat(*parts) if parts else Epsilon()
    query = RegularReachQuery(source, target, regex)
    return mrd_rpq(graph, query, num_mappers, runtime=runtime)
