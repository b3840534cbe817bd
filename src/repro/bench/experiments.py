"""One function per table/figure of the paper's evaluation (Section 7).

Every experiment reproduces the corresponding artifact's *rows/series* —
same datasets (stand-ins), same x-axes, same algorithm line-up — at a
configurable ``scale`` (default 1/100 of the paper's graph sizes; see
DESIGN.md §4).  Absolute times are not comparable to the paper's Java/EC2
numbers; the *shapes* (who wins, how curves move with card(F), size(F) and
query complexity) are, and EXPERIMENTS.md records both.

All functions return :class:`~repro.bench.harness.ExperimentResult` and are
registered in :data:`EXPERIMENTS` for the CLI (``python -m repro.bench``).
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.engine import evaluate
from ..core.queries import RegularReachQuery
from ..distributed.cluster import SimulatedCluster
from ..distributed.stats import ExecutionStats, stopwatch
from ..graph.digraph import DiGraph
from ..graph.generators import synthetic_graph
from ..mapreduce.mrd_rpq import mrd_rpq
from ..mapreduce.runtime import MapReduceRuntime
from ..partition.partitioners import PARTITIONERS
from ..workload.datasets import DATASETS, load_dataset
from ..workload.query_gen import (
    random_bounded_queries,
    random_reach_queries,
    random_regular_queries,
)
from .harness import AggregateMetrics, ExperimentResult, run_workload

#: Default reproduction scale relative to the paper's graph sizes.
SCALE = 0.01

# The paper's size(F) x-axis ticks (Figs. 11(b), 11(h), 11(k)).
SIZE_F_TICKS = [35_000, 75_000, 115_000, 155_000, 195_000, 235_000, 275_000, 315_000]

# Query complexities (|Vq|, |Eq|) of Fig. 11(g), with |Lq| = 8.
FIG11G_COMPLEXITIES = [(4, 8), (6, 12), (8, 16), (10, 20), (12, 24), (14, 28), (16, 32), (18, 36)]

# Q1..Q4 of Exp-4: (|Vq|, |Eq|, |Lq|).
MR_QUERIES = {"Q1": (4, 6, 8), "Q2": (6, 8, 8), "Q3": (10, 12, 8), "Q4": (12, 14, 8)}


def _cluster(graph: DiGraph, card: int, seed: int = 0) -> SimulatedCluster:
    """Size-controlled contiguous fragmentation.

    The paper "randomly partitioned ... controlled by card(F) and the
    average size of the fragments" — a size-controlled split (like Hadoop's
    input splits, which Section 6 uses explicitly).  We use contiguous
    chunks of the generator's node order, which keeps boundary sets
    realistic; *per-node* random placement (where virtually every node
    becomes a boundary node and the O(|Vf|^2) worst case dominates) is
    exercised separately in the partitioner ablation.
    """
    return SimulatedCluster.from_graph(graph, card, partitioner="chunk", seed=seed)


def _sized_synthetic(
    size_f: int, card: int, scale: float, num_labels: int, seed: int,
    edge_ratio: float = 1.4,
) -> DiGraph:
    """A synthetic graph whose (scaled) per-fragment size is ``size_f``.

    ``size_f`` is the paper's size(F) tick; |G| = size_f * card, split
    |V| + |E| with |E| = edge_ratio * |V|, then scaled.
    """
    total = max(int(size_f * card * scale), 60)
    num_nodes = max(int(total / (1.0 + edge_ratio)), 30)
    num_edges = max(total - num_nodes, num_nodes)
    return synthetic_graph(num_nodes, num_edges, num_labels=num_labels, seed=seed)


# ---------------------------------------------------------------------------
# Exp-1: reachability
# ---------------------------------------------------------------------------
def exp_table2(
    scale: float = SCALE / 5,
    card: int = 4,
    num_queries: int = 6,
    seed: int = 0,
) -> ExperimentResult:
    """Table 2: time and data shipment of disReach / disReachn / disReachm
    on the five real-life reachability datasets, card(F) = 4."""
    result = ExperimentResult(
        "table2",
        "Efficiency and data shipment: real-life data (reachability)",
        ["dataset", "algorithm", "time_ms", "traffic_KB", "max_visits", "total_visits", "positive"],
        notes=f"scale={scale}, card(F)={card}, {num_queries} queries per dataset",
    )
    for name in ["livejournal", "wikitalk", "berkstan", "notredame", "amazon"]:
        graph = load_dataset(name, scale=scale, seed=seed)
        cluster = _cluster(graph, card, seed=seed)
        queries = random_reach_queries(graph, num_queries, seed=seed)
        for algorithm in ["disReach", "disReachn", "disReachm"]:
            metrics = run_workload(cluster, queries, algorithm)
            result.add_row(
                dataset=name,
                algorithm=algorithm,
                time_ms=metrics.mean_response_seconds * 1e3,
                traffic_KB=metrics.mean_traffic_bytes / 1e3,
                max_visits=metrics.max_visits_per_site,
                total_visits=metrics.total_visits,
                positive=metrics.positive_fraction,
            )
    return result


def exp_fig11a(
    scale: float = SCALE / 5,
    cards: Sequence[int] = (2, 4, 6, 8, 10, 12, 14, 16, 18, 20),
    num_queries: int = 4,
    seed: int = 0,
) -> ExperimentResult:
    """Fig. 11(a): reachability time vs card(F) on LiveJournal."""
    graph = load_dataset("livejournal", scale=scale, seed=seed)
    queries = random_reach_queries(graph, num_queries, seed=seed)
    result = ExperimentResult(
        "fig11a",
        "Reachability: varying fragment number (LiveJournal analog)",
        ["card", "disReach_ms", "disReachn_ms", "disReachm_ms"],
        notes=f"scale={scale}, {num_queries} queries",
    )
    for card in cards:
        cluster = _cluster(graph, card, seed=seed)
        row: Dict[str, object] = {"card": card}
        for algorithm in ["disReach", "disReachn", "disReachm"]:
            metrics = run_workload(cluster, queries, algorithm)
            row[f"{algorithm}_ms"] = metrics.mean_response_seconds * 1e3
        result.add_row(**row)
    return result


def exp_fig11b(
    scale: float = SCALE,
    card: int = 8,
    size_ticks: Sequence[int] = tuple(SIZE_F_TICKS),
    num_queries: int = 4,
    seed: int = 0,
) -> ExperimentResult:
    """Fig. 11(b): reachability time vs size(F), card(F) = 8 (synthetic)."""
    result = ExperimentResult(
        "fig11b",
        "Reachability: varying fragment size (densification-law synthetic)",
        ["size_F", "disReach_ms", "disReachn_ms", "disReachm_ms"],
        notes=f"scale={scale}, card(F)={card}",
    )
    for size_f in size_ticks:
        graph = _sized_synthetic(size_f, card, scale, num_labels=0, seed=seed)
        cluster = _cluster(graph, card, seed=seed)
        queries = random_reach_queries(graph, num_queries, seed=seed)
        row: Dict[str, object] = {"size_F": size_f}
        for algorithm in ["disReach", "disReachn", "disReachm"]:
            metrics = run_workload(cluster, queries, algorithm)
            row[f"{algorithm}_ms"] = metrics.mean_response_seconds * 1e3
        result.add_row(**row)
    return result


def exp_fig11c(
    scale: float = SCALE / 10,
    cards: Sequence[int] = (10, 12, 14, 16, 18, 20),
    num_queries: int = 2,
    seed: int = 0,
) -> ExperimentResult:
    """Fig. 11(c): large synthetic graph (paper: 36M nodes / 360M edges),
    disReach vs disReachm, card(F) in 10..20."""
    num_nodes = max(int(36_000_000 * scale), 1000)
    num_edges = max(int(360_000_000 * scale), num_nodes)
    graph = synthetic_graph(num_nodes, num_edges, seed=seed)
    queries = random_reach_queries(graph, num_queries, seed=seed)
    result = ExperimentResult(
        "fig11c",
        "Reachability on a large synthetic graph: varying fragment number",
        ["card", "disReach_ms", "disReachm_ms"],
        notes=f"|V|={num_nodes}, |E|={num_edges} (paper: 36M/360M)",
    )
    for card in cards:
        cluster = _cluster(graph, card, seed=seed)
        row: Dict[str, object] = {"card": card}
        for algorithm in ["disReach", "disReachm"]:
            metrics = run_workload(cluster, queries, algorithm)
            row[f"{algorithm}_ms"] = metrics.mean_response_seconds * 1e3
        result.add_row(**row)
    return result


# ---------------------------------------------------------------------------
# Exp-2: bounded reachability
# ---------------------------------------------------------------------------
def exp_fig11d(
    scale: float = SCALE / 2,
    cards: Sequence[int] = (2, 4, 6, 8, 10, 12, 14, 16, 18, 20),
    bound: int = 10,
    num_queries: int = 5,
    seed: int = 0,
) -> ExperimentResult:
    """Fig. 11(d): disDist vs disDistn on WikiTalk, l = 10."""
    graph = load_dataset("wikitalk", scale=scale, seed=seed)
    queries = random_bounded_queries(graph, num_queries, bound=bound, seed=seed)
    result = ExperimentResult(
        "fig11d",
        "Bounded reachability: varying fragment number (WikiTalk analog)",
        ["card", "disDist_ms", "disDistn_ms"],
        notes=f"scale={scale}, l={bound}, {num_queries} queries",
    )
    for card in cards:
        cluster = _cluster(graph, card, seed=seed)
        row: Dict[str, object] = {"card": card}
        for algorithm in ["disDist", "disDistn"]:
            metrics = run_workload(cluster, queries, algorithm)
            row[f"{algorithm}_ms"] = metrics.mean_response_seconds * 1e3
        result.add_row(**row)
    return result


# ---------------------------------------------------------------------------
# Exp-3: regular reachability
# ---------------------------------------------------------------------------
_RPQ_DATASETS = ["youtube", "meme", "citation", "internet"]


def _rpq_real_metrics(
    scale: float, num_queries: int, seed: int
) -> Dict[str, Dict[str, AggregateMetrics]]:
    out: Dict[str, Dict[str, AggregateMetrics]] = {}
    for name in _RPQ_DATASETS:
        spec = DATASETS[name]
        graph = load_dataset(name, scale=scale, seed=seed)
        card = spec.paper_fragments or 10
        cluster = _cluster(graph, card, seed=seed)
        queries = random_regular_queries(
            graph, num_queries, num_states=8, num_transitions=16, num_labels=8,
            seed=seed,
        )
        out[name] = {
            algorithm: run_workload(cluster, queries, algorithm)
            for algorithm in ["disRPQ", "disRPQn", "disRPQd"]
        }
    return out


def exp_fig11e(
    scale: float = SCALE,
    num_queries: int = 4,
    seed: int = 0,
) -> ExperimentResult:
    """Fig. 11(e): RPQ response time on the four labeled datasets."""
    metrics = _rpq_real_metrics(scale, num_queries, seed)
    result = ExperimentResult(
        "fig11e",
        "Regular reachability: response time on real-life labeled graphs",
        ["dataset", "disRPQ_ms", "disRPQn_ms", "disRPQd_ms"],
        notes=f"scale={scale}, queries (|Vq|,|Eq|,|Lq|)=(8,16,8), card(F) per paper",
    )
    for name in _RPQ_DATASETS:
        result.add_row(
            dataset=name,
            **{
                f"{algo}_ms": metrics[name][algo].mean_response_seconds * 1e3
                for algo in ["disRPQ", "disRPQn", "disRPQd"]
            },
        )
    return result


def exp_fig11f(
    scale: float = SCALE,
    num_queries: int = 4,
    seed: int = 0,
) -> ExperimentResult:
    """Fig. 11(f): RPQ network traffic on the four labeled datasets."""
    metrics = _rpq_real_metrics(scale, num_queries, seed)
    result = ExperimentResult(
        "fig11f",
        "Regular reachability: network traffic on real-life labeled graphs",
        ["dataset", "disRPQ_KB", "disRPQn_KB", "disRPQd_KB"],
        notes=f"scale={scale}; paper plots MB on a log axis",
    )
    for name in _RPQ_DATASETS:
        result.add_row(
            dataset=name,
            **{
                f"{algo}_KB": metrics[name][algo].mean_traffic_bytes / 1e3
                for algo in ["disRPQ", "disRPQn", "disRPQd"]
            },
        )
    return result


def exp_fig11g(
    scale: float = SCALE,
    complexities: Sequence[Tuple[int, int]] = tuple(FIG11G_COMPLEXITIES),
    num_queries: int = 3,
    seed: int = 0,
) -> ExperimentResult:
    """Fig. 11(g): RPQ time vs query complexity (|Vq|, |Eq|) on Youtube."""
    graph = load_dataset("youtube", scale=scale, seed=seed)
    card = DATASETS["youtube"].paper_fragments
    cluster = _cluster(graph, card, seed=seed)
    result = ExperimentResult(
        "fig11g",
        "Regular reachability: varying query complexity (Youtube analog)",
        ["Vq", "Eq", "disRPQ_ms", "disRPQn_ms", "disRPQd_ms"],
        notes=f"scale={scale}, |Lq|=8, card(F)={card}",
    )
    for num_states, num_transitions in complexities:
        queries = random_regular_queries(
            graph, num_queries, num_states=num_states,
            num_transitions=num_transitions, num_labels=8, seed=seed,
        )
        row: Dict[str, object] = {"Vq": num_states, "Eq": num_transitions}
        for algorithm in ["disRPQ", "disRPQn", "disRPQd"]:
            metrics = run_workload(cluster, queries, algorithm)
            row[f"{algorithm}_ms"] = metrics.mean_response_seconds * 1e3
        result.add_row(**row)
    return result


def exp_fig11h(
    scale: float = SCALE,
    card: int = 10,
    size_ticks: Sequence[int] = tuple(SIZE_F_TICKS),
    num_queries: int = 3,
    seed: int = 0,
) -> ExperimentResult:
    """Fig. 11(h): RPQ time vs size(F), card(F) = 10 (synthetic, |L| = 8)."""
    result = ExperimentResult(
        "fig11h",
        "Regular reachability: varying fragment size (synthetic)",
        ["size_F", "disRPQ_ms", "disRPQn_ms", "disRPQd_ms"],
        notes=f"scale={scale}, card(F)={card}, queries (8,16,8)",
    )
    for size_f in size_ticks:
        graph = _sized_synthetic(size_f, card, scale, num_labels=8, seed=seed)
        cluster = _cluster(graph, card, seed=seed)
        queries = random_regular_queries(
            graph, num_queries, num_states=8, num_transitions=16, num_labels=8,
            seed=seed,
        )
        row: Dict[str, object] = {"size_F": size_f}
        for algorithm in ["disRPQ", "disRPQn", "disRPQd"]:
            metrics = run_workload(cluster, queries, algorithm)
            row[f"{algorithm}_ms"] = metrics.mean_response_seconds * 1e3
        result.add_row(**row)
    return result


def exp_fig11i(
    scale: float = SCALE / 2,
    cards: Sequence[int] = (6, 8, 10, 12, 14, 16, 18, 20),
    num_queries: int = 3,
    seed: int = 0,
) -> ExperimentResult:
    """Fig. 11(i): RPQ time vs card(F) (paper: 1.2M nodes / 4.8M edges)."""
    num_nodes = max(int(1_200_000 * scale), 500)
    num_edges = max(int(4_800_000 * scale), num_nodes)
    graph = synthetic_graph(num_nodes, num_edges, num_labels=8, seed=seed)
    queries = random_regular_queries(
        graph, num_queries, num_states=8, num_transitions=16, num_labels=8, seed=seed
    )
    result = ExperimentResult(
        "fig11i",
        "Regular reachability: varying fragment number (synthetic)",
        ["card", "disRPQ_ms", "disRPQn_ms", "disRPQd_ms"],
        notes=f"|V|={num_nodes}, |E|={num_edges} (paper: 1.2M/4.8M)",
    )
    for card in cards:
        cluster = _cluster(graph, card, seed=seed)
        row: Dict[str, object] = {"card": card}
        for algorithm in ["disRPQ", "disRPQn", "disRPQd"]:
            metrics = run_workload(cluster, queries, algorithm)
            row[f"{algorithm}_ms"] = metrics.mean_response_seconds * 1e3
        result.add_row(**row)
    return result


def exp_fig11j(
    scale: float = SCALE / 20,
    cards: Sequence[int] = (10, 12, 14, 16, 18, 20),
    num_queries: int = 2,
    seed: int = 0,
) -> ExperimentResult:
    """Fig. 11(j): RPQ on a large synthetic graph (paper: 36M/360M, |L|=50),
    disRPQ vs disRPQd."""
    num_nodes = max(int(36_000_000 * scale), 1000)
    num_edges = max(int(360_000_000 * scale), num_nodes)
    graph = synthetic_graph(num_nodes, num_edges, num_labels=50, seed=seed)
    queries = random_regular_queries(
        graph, num_queries, num_states=8, num_transitions=16, num_labels=8, seed=seed
    )
    result = ExperimentResult(
        "fig11j",
        "Regular reachability on a large synthetic graph (|L|=50)",
        ["card", "disRPQ_ms", "disRPQd_ms"],
        notes=f"|V|={num_nodes}, |E|={num_edges} (paper: 36M/360M)",
    )
    for card in cards:
        cluster = _cluster(graph, card, seed=seed)
        row: Dict[str, object] = {"card": card}
        for algorithm in ["disRPQ", "disRPQd"]:
            metrics = run_workload(cluster, queries, algorithm)
            row[f"{algorithm}_ms"] = metrics.mean_response_seconds * 1e3
        result.add_row(**row)
    return result


# ---------------------------------------------------------------------------
# Exp-4: MapReduce
# ---------------------------------------------------------------------------
def _mr_workload(
    graph: DiGraph, complexity: Tuple[int, int, int], num_queries: int, seed: int
) -> List[RegularReachQuery]:
    num_states, num_transitions, num_labels = complexity
    return random_regular_queries(
        graph, num_queries, num_states=num_states,
        num_transitions=num_transitions, num_labels=num_labels, seed=seed,
    )


def _mr_mean_ms(
    graph: DiGraph,
    queries: Sequence[RegularReachQuery],
    num_mappers: int,
) -> float:
    runtime = MapReduceRuntime()
    total = 0.0
    for query in queries:
        result = mrd_rpq(graph, query, num_mappers, runtime=runtime)
        total += result.stats.response_seconds
    return total / len(queries) * 1e3


def exp_fig11k(
    scale: float = SCALE,
    num_mappers: int = 10,
    size_ticks: Sequence[int] = tuple(SIZE_F_TICKS),
    num_queries: int = 2,
    seed: int = 0,
) -> ExperimentResult:
    """Fig. 11(k): MRdRPQ time vs size(F) for queries Q1..Q4, 10 mappers."""
    result = ExperimentResult(
        "fig11k",
        "MRdRPQ: varying fragment size (Youtube-shaped synthetic)",
        ["size_F"] + [f"{q}_ms" for q in MR_QUERIES],
        notes=f"scale={scale}, {num_mappers} mappers",
    )
    for size_f in size_ticks:
        graph = _sized_synthetic(size_f, num_mappers, scale, num_labels=12, seed=seed)
        row: Dict[str, object] = {"size_F": size_f}
        for qname, complexity in MR_QUERIES.items():
            queries = _mr_workload(graph, complexity, num_queries, seed)
            row[f"{qname}_ms"] = _mr_mean_ms(graph, queries, num_mappers)
        result.add_row(**row)
    return result


def exp_fig11l(
    scale: float = SCALE,
    mapper_counts: Sequence[int] = (5, 10, 15, 20, 25, 30),
    num_queries: int = 2,
    seed: int = 0,
) -> ExperimentResult:
    """Fig. 11(l): MRdRPQ time vs number of mappers for Q1..Q4 (Youtube)."""
    graph = load_dataset("youtube", scale=scale, seed=seed)
    result = ExperimentResult(
        "fig11l",
        "MRdRPQ: varying mapper number (Youtube analog)",
        ["mappers"] + [f"{q}_ms" for q in MR_QUERIES],
        notes=f"scale={scale}",
    )
    workloads = {
        qname: _mr_workload(graph, complexity, num_queries, seed)
        for qname, complexity in MR_QUERIES.items()
    }
    for mappers in mapper_counts:
        row: Dict[str, object] = {"mappers": mappers}
        for qname, queries in workloads.items():
            row[f"{qname}_ms"] = _mr_mean_ms(graph, queries, mappers)
        result.add_row(**row)
    return result


# ---------------------------------------------------------------------------
# Ablations (not in the paper; Section 3 "Remarks" design choices)
# ---------------------------------------------------------------------------
def exp_ablation_partitioner(
    scale: float = SCALE / 2,
    card: int = 8,
    num_queries: int = 5,
    seed: int = 0,
) -> ExperimentResult:
    """How partition quality (|Vf|) moves disReach's traffic and time —
    quantifying the constants that Theorem 1 leaves partition-dependent."""
    graph = load_dataset("amazon", scale=scale, seed=seed)
    queries = random_reach_queries(graph, num_queries, seed=seed)
    result = ExperimentResult(
        "ablation-partitioner",
        "Partitioner ablation for disReach (Amazon analog)",
        ["partitioner", "Vf", "cross_edges", "time_ms", "traffic_KB"],
        notes=f"scale={scale}, card(F)={card}",
    )
    for name in PARTITIONERS:
        cluster = SimulatedCluster.from_graph(graph, card, partitioner=name, seed=seed)
        metrics = run_workload(cluster, queries, "disReach")
        result.add_row(
            partitioner=name,
            Vf=cluster.fragmentation.num_boundary_nodes,
            cross_edges=cluster.fragmentation.num_cross_edges,
            time_ms=metrics.mean_response_seconds * 1e3,
            traffic_KB=metrics.mean_traffic_bytes / 1e3,
        )
    return result


# ---------------------------------------------------------------------------
# serving: the batch-engine workload driver (DESIGN.md §6)
# ---------------------------------------------------------------------------
def exp_workload(
    scale: float = SCALE,
    seed: int = 0,
    num_queries: int = 100,
    card: int = 4,
    distinct: Optional[int] = None,
    zipf_s: float = 1.2,
) -> ExperimentResult:
    """Zipf-skewed serving workload: batch engine vs one-by-one evaluation.

    Simulates ``num_queries`` requests from concurrent clients (a skewed mix
    of reach/bounded/regular queries over a shared pool) and serves them two
    ways: sequentially through :func:`~repro.core.engine.evaluate`, and as
    one batch through :class:`~repro.serving.BatchQueryEngine`.  Batch
    answers are asserted identical to sequential answers; the table reports
    the amortization (cache hit rate, modeled response/traffic/network cost,
    real wall time).  The deterministic columns of the ``batch`` row —
    ``traffic_KB``, ``network_ms``, ``visits`` — are what the CI
    benchmark-regression gate compares against ``benchmarks/baseline.json``.
    """
    from ..serving import BatchQueryEngine
    from ..workload.query_gen import zipf_workload

    num_nodes = max(int(40_000 * scale), 120)
    graph = synthetic_graph(num_nodes, 2 * num_nodes, num_labels=6, seed=seed)
    cluster = _cluster(graph, card, seed=seed)
    queries = zipf_workload(
        graph, num_queries, distinct=distinct, zipf_s=zipf_s, seed=seed
    )
    pool_size = len({str(q) for q in queries})

    with stopwatch() as seq_watch:
        sequential = [evaluate(cluster, query) for query in queries]
    seq_response = sum(r.stats.response_seconds for r in sequential)
    seq_network = sum(r.stats.network_seconds for r in sequential)
    seq_traffic = sum(r.stats.traffic_bytes for r in sequential)
    seq_visits = sum(r.stats.total_visits for r in sequential)

    engine = BatchQueryEngine(cluster)
    with stopwatch() as batch_watch:
        batch = engine.run_batch(queries)
    mismatches = sum(
        1 for mine, ref in zip(batch.results, sequential) if mine.answer != ref.answer
    )
    if mismatches:  # pragma: no cover - equivalence is tested, this is a guard
        raise AssertionError(f"batch diverged from sequential on {mismatches} queries")
    workload = batch.workload
    bstats = workload.batch

    result = ExperimentResult(
        experiment="workload",
        title=f"Serving workload, {num_queries} zipf queries ({pool_size} distinct)",
        columns=[
            "mode", "queries", "response_ms", "amortized_ms", "wall_ms",
            "traffic_KB", "network_ms", "visits", "hit_rate", "speedup",
        ],
        notes=(
            f"scale={scale}, card(F)={card}, zipf_s={zipf_s}; answers "
            "bit-identical; speedup = one-by-one modeled response / batch "
            "modeled response"
        ),
    )
    result.add_row(
        mode="one-by-one",
        queries=num_queries,
        response_ms=seq_response * 1e3,
        amortized_ms=seq_response / max(num_queries, 1) * 1e3,
        wall_ms=seq_watch[0] * 1e3,
        traffic_KB=seq_traffic / 1e3,
        network_ms=seq_network * 1e3,
        visits=seq_visits,
        hit_rate=None,
        speedup=None,
    )
    result.add_row(
        mode="batch",
        queries=num_queries,
        response_ms=bstats.response_seconds * 1e3,
        amortized_ms=(workload.amortized_response_seconds or 0.0) * 1e3,
        wall_ms=batch_watch[0] * 1e3,
        traffic_KB=bstats.traffic_bytes / 1e3,
        network_ms=bstats.network_seconds * 1e3,
        visits=bstats.total_visits,
        hit_rate=workload.hit_rate,
        speedup=seq_response / bstats.response_seconds if bstats.response_seconds else None,
    )
    return result


# ---------------------------------------------------------------------------
# partition: the partition-quality sweep (DESIGN.md §7)
# ---------------------------------------------------------------------------
#: Pinned sweep line-up: the streaming strategies vs the boundary-aware ones.
PARTITION_SWEEP = ("hash", "chunk", "greedy", "refined", "multilevel")
#: Pinned datasets: two unlabeled (reach/bounded) + one labeled (RPQ too).
PARTITION_DATASETS = ("amazon", "notredame", "youtube")


def exp_partition(
    scale: float = SCALE / 2,
    seed: int = 0,
    num_queries: int = 4,
    card: int = 8,
    datasets: Sequence[str] = PARTITION_DATASETS,
    partitioners: Sequence[str] = PARTITION_SWEEP,
) -> ExperimentResult:
    """Partition-quality sweep: boundary statistics vs realized cost.

    For every dataset x partitioner, measures the fragmentation statistics
    the paper's theorems depend on (``|Vf|``, summed in/out-node counts,
    edge cut, balance, the evaluated Theorem 1–3 traffic envelope) and runs
    the pinned per-class workload with each partial-evaluation algorithm,
    reporting the realized modeled traffic / network seconds / visits —
    the empirical check that lower boundary counts tighten the bounds.

    Answers are asserted identical across partitioners for each
    (dataset, algorithm) — the guarantees are partition-agnostic, so any
    divergence is a bug, not a finding.  The ``refined``/``multilevel``
    rows' ``Vf`` values are the deterministic ceilings
    ``benchmarks/check_regression.py`` enforces against
    ``benchmarks/baseline.json``.
    """
    from ..partition.quality import measure_quality
    from ..workload.query_gen import PER_CLASS_NUM_STATES, per_class_workload

    result = ExperimentResult(
        "partition",
        "Partition quality: boundary statistics vs realized modeled cost",
        [
            "dataset", "partitioner", "algorithm", "Vf", "in_out", "cut",
            "balance", "bound", "traffic_KB", "network_ms", "visits",
            "time_ms", "answers",
        ],
        notes=(
            f"scale={scale}, card(F)={card}, {num_queries} queries/class; "
            "bound = the Theorem 1-3 traffic envelope |Vq|^p * |Vf|^2; "
            "answers identical across partitioners by assertion"
        ),
    )
    for name in datasets:
        graph = load_dataset(name, scale=scale, seed=seed)
        workloads = per_class_workload(graph, num_queries, seed=seed)
        reference: Dict[str, str] = {}
        for pname in partitioners:
            cluster = SimulatedCluster.from_graph(
                graph, card, partitioner=pname, seed=seed
            )
            quality = measure_quality(cluster.fragmentation)
            for algorithm, queries in workloads.items():
                evaluations = [evaluate(cluster, q, algorithm) for q in queries]
                answers = "".join("T" if r.answer else "F" for r in evaluations)
                if algorithm not in reference:
                    reference[algorithm] = answers
                elif answers != reference[algorithm]:  # pragma: no cover - guard
                    raise AssertionError(
                        f"{name}/{algorithm}: answers under {pname} diverge "
                        f"from {partitioners[0]} ({answers} vs "
                        f"{reference[algorithm]}) — partition-agnosticism broken"
                    )
                query_states = (
                    PER_CLASS_NUM_STATES if algorithm == "disRPQ" else 1
                )
                n = len(evaluations)
                result.add_row(
                    dataset=name,
                    partitioner=pname,
                    algorithm=algorithm,
                    Vf=quality.num_boundary_nodes,
                    in_out=quality.total_in_out,
                    cut=quality.num_cross_edges,
                    balance=quality.balance,
                    bound=quality.traffic_bound(algorithm, query_states),
                    traffic_KB=sum(r.stats.traffic_bytes for r in evaluations) / n / 1e3,
                    network_ms=sum(r.stats.network_seconds for r in evaluations) / n * 1e3,
                    visits=sum(r.stats.total_visits for r in evaluations),
                    time_ms=sum(r.stats.response_seconds for r in evaluations) / n * 1e3,
                    answers=answers,
                )
    return result


# ---------------------------------------------------------------------------
# mutation: dynamic graphs — zipf serving stream interleaved with mutations
# ---------------------------------------------------------------------------
#: Pinned knobs of the ``mutation`` experiment (what the CI gate enforces).
MUTATION_DATASET = "amazon"
#: Starting partitioner: a decent streaming split (not the offline optimum)
#: — the operating point the streaming-refinement story is about.
MUTATION_PARTITIONER = "chunk"
MUTATION_DRIFT_THRESHOLD = 0.05
MUTATION_MOVE_BUDGET = 64
MUTATION_REGION_HOPS = 3
#: Declared tolerance: post-refinement |Vf| must stay within this factor of
#: an offline ``refined`` run on the final (post-mutation) graph.
MUTATION_VF_TOLERANCE = 1.3


def _split_rounds(items: List, rounds: int) -> List[List]:
    """Split ``items`` into ``rounds`` near-even contiguous chunks."""
    out, start = [], 0
    for index in range(rounds):
        end = start + (len(items) - start) // (rounds - index)
        out.append(items[start:end])
        start = end
    return out


def exp_mutation(
    scale: float = SCALE / 2,
    seed: int = 0,
    num_queries: int = 80,
    card: int = 8,
    num_mutations: int = 48,
    rounds: int = 8,
    drift_threshold: float = MUTATION_DRIFT_THRESHOLD,
    move_budget: int = MUTATION_MOVE_BUDGET,
    region_hops: int = MUTATION_REGION_HOPS,
    vf_tolerance: float = MUTATION_VF_TOLERANCE,
    dataset: str = MUTATION_DATASET,
    partitioner: str = MUTATION_PARTITIONER,
    sessions: int = 0,
) -> ExperimentResult:
    """Dynamic graphs: a zipf query stream interleaved with edge mutations.

    Serves the same pinned workload twice over the same mutation stream —
    once on a cluster that never repartitions (``static``) and once with a
    :class:`~repro.partition.monitor.MutationMonitor` attached
    (``drift-refine``): when ``|Vf|`` drifts past the threshold, a bounded
    refinement (move budget, mutation-touched region only) repartitions in
    place, *paying* the modeled fragment-shipping cost.  Batch answers are
    asserted identical between scenarios (repartition soundness), and the
    table answers the ROADMAP's question — after how many queries does the
    repartition pay for itself (``break_even_queries``, from the
    post-refinement per-query network-cost gap).  The ``Vf_final`` /
    ``vf_ratio`` columns compare against an offline ``refined`` run on the
    final graph; the CI gate holds the drift row to ``moves <= budget`` and
    ``vf_ratio <= vf_tol``.

    ``sessions > 0`` (CLI: ``--sessions S``) adds the standing-query
    sweep: for S in {1, S/2, S}, the same mutation stream runs with S open
    :class:`~repro.core.incremental.IncrementalReachSession` objects, and
    every drift-triggered repartition remaps them as one batched
    :func:`~repro.serving.engine.execute_plans` round.  The ``sessions-S``
    rows report the dedup saving (``remap_visits_saved`` — per-session
    remap visits minus batched), the map rounds and the distinct tasks:
    batched remap cost grows sublinearly in S, which the CI gate enforces
    as ``remap_visits_saved > 0`` at S >= 4.
    """
    from ..core.centralized import reachable
    from ..core.incremental import IncrementalReachSession
    from ..partition.monitor import MutationMonitor
    from ..partition.refine import boundary_count, refined_partition
    from ..serving import BatchQueryEngine
    from ..workload.query_gen import random_edge_mutations, zipf_workload

    graph0 = load_dataset(dataset, scale=scale, seed=seed)
    queries = zipf_workload(graph0, num_queries, seed=seed)
    mutations = random_edge_mutations(graph0, num_mutations, seed=seed)
    query_rounds = _split_rounds(queries, rounds)
    mutation_rounds = _split_rounds(mutations, rounds)

    def run_stream(monitored: bool) -> Dict[str, object]:
        graph = load_dataset(dataset, scale=scale, seed=seed)
        cluster = SimulatedCluster.from_graph(
            graph, card, partitioner=partitioner, seed=seed
        )
        monitor = (
            MutationMonitor(
                cluster,
                drift_threshold=drift_threshold,
                move_budget=move_budget,
                region_hops=region_hops,
            )
            if monitored
            else None
        )
        engine = BatchQueryEngine(cluster)
        vf_start = cluster.fragmentation.num_boundary_nodes
        answers: List[bool] = []
        totals = ExecutionStats(
            algorithm="mutation-stream", num_sites=cluster.num_sites
        )
        round_traffic: List[int] = []
        first_refinement_round: Optional[int] = None
        for index in range(rounds):
            batch = engine.run_batch(query_rounds[index])
            answers.extend(batch.answers)
            bstats = batch.workload.batch
            totals.accumulate(bstats)
            round_traffic.append(bstats.traffic_bytes)
            before = len(monitor.refinements) if monitor else 0
            for op, u, v in mutation_rounds[index]:
                cluster.apply_edge_mutation(u, v, op == "add")
            if (
                monitor
                and first_refinement_round is None
                and len(monitor.refinements) > before
            ):
                first_refinement_round = index
        ship_bytes = sum(r.shipping.traffic_bytes for r in monitor.refinements) if monitor else 0
        ship_seconds = (
            sum(r.shipping.network_seconds for r in monitor.refinements) if monitor else 0.0
        )
        return {
            "answers": answers,
            "cluster": cluster,
            "monitor": monitor,
            "traffic": totals.traffic_bytes,
            "network": totals.network_seconds,
            "visits": totals.total_visits,
            "round_traffic": round_traffic,
            "first_refinement_round": first_refinement_round,
            "ship_bytes": ship_bytes,
            "ship_seconds": ship_seconds,
            "vf_start": vf_start,
        }

    static = run_stream(monitored=False)
    drift = run_stream(monitored=True)
    if static["answers"] != drift["answers"]:  # pragma: no cover - guard
        raise AssertionError(
            "drift-refine answers diverged from the static cluster — "
            "repartition soundness broken"
        )

    final_graph = static["cluster"].fragmentation.restore_graph()
    vf_offline = boundary_count(
        final_graph, refined_partition(final_graph, card, seed=seed)
    )
    monitor = drift["monitor"]
    # Break-even: shipping bytes over the post-refinement per-query traffic
    # gap between the two scenarios (same warm caches, same mutations — the
    # difference isolates what the refinement bought).  Bytes, not seconds:
    # traffic is the quantity the theorems charge to |Vf|, and the latency
    # rounds cancel between the scenarios.
    break_even: Optional[float] = None
    first = drift["first_refinement_round"]
    if first is not None and first + 1 < rounds:
        post_queries = sum(len(chunk) for chunk in query_rounds[first + 1:])
        static_post = sum(static["round_traffic"][first + 1:])
        drift_post = sum(drift["round_traffic"][first + 1:])
        if post_queries and static_post > drift_post:
            per_query_gain = (static_post - drift_post) / post_queries
            break_even = drift["ship_bytes"] / per_query_gain

    result = ExperimentResult(
        "mutation",
        f"Dynamic graph: {num_queries} zipf queries + {num_mutations} "
        f"mutations ({dataset} analog)",
        [
            "scenario", "queries", "mutations", "refinements", "moves",
            "budget", "Vf_start", "Vf_final", "Vf_offline", "vf_ratio",
            "vf_tol", "ship_KB", "ship_ms", "traffic_KB", "network_ms",
            "visits", "break_even_queries", "sessions", "remap_visits",
            "remap_visits_saved", "remap_rounds", "remap_tasks",
        ],
        notes=(
            f"scale={scale}, card(F)={card}, start={partitioner}, {rounds} "
            f"rounds, drift threshold={drift_threshold}, region "
            f"hops={region_hops}; answers identical across scenarios by "
            "assertion; Vf_offline = offline refined on the final graph"
        ),
    )
    def add_full_row(**values: object) -> None:
        row = {column: None for column in result.columns}
        row.update(values)
        result.add_row(**row)

    for name, stream in (("static", static), ("drift-refine", drift)):
        vf_final = stream["cluster"].fragmentation.num_boundary_nodes
        stream_monitor = stream["monitor"]
        add_full_row(
            scenario=name,
            queries=num_queries,
            mutations=num_mutations,
            refinements=len(stream_monitor.refinements) if stream_monitor else 0,
            moves=stream_monitor.total_moves if stream_monitor else 0,
            budget=move_budget,
            Vf_start=stream["vf_start"],
            Vf_final=vf_final,
            Vf_offline=vf_offline,
            vf_ratio=vf_final / max(vf_offline, 1),
            vf_tol=vf_tolerance,
            ship_KB=stream["ship_bytes"] / 1e3,
            ship_ms=stream["ship_seconds"] * 1e3,
            traffic_KB=stream["traffic"] / 1e3,
            network_ms=stream["network"] * 1e3,
            visits=stream["visits"],
            break_even_queries=break_even if name == "drift-refine" else None,
        )

    if sessions > 0:
        # The standing-query sweep: same mutation stream, S open sessions.
        # Only the drift monitor runs (remap costs are repartition-time
        # costs; the serving stream above already measured query costs).
        # Standing queries must be non-trivial (s != t); top up from further
        # seeds if the filter ate too many, and fail loudly rather than run
        # a row labeled sessions=S with fewer than S sessions.
        session_queries: List = []
        for offset in range(1, 7):
            if len(session_queries) >= sessions:
                break
            session_queries.extend(
                query
                for query in random_reach_queries(
                    graph0, 4 * sessions, seed=seed + offset
                )
                if query.source != query.target
            )
        if len(session_queries) < sessions:
            raise ValueError(
                f"could not draw {sessions} non-trivial standing queries "
                f"from the {dataset} analog at scale={scale}"
            )
        for s in sorted({1, max(1, sessions // 2), sessions}):
            graph = load_dataset(dataset, scale=scale, seed=seed)
            cluster = SimulatedCluster.from_graph(
                graph, card, partitioner=partitioner, seed=seed
            )
            monitor = MutationMonitor(
                cluster,
                drift_threshold=drift_threshold,
                move_budget=move_budget,
                region_hops=region_hops,
            )
            open_sessions = [
                IncrementalReachSession(cluster, query)
                for query in session_queries[:s]
            ]
            for session in open_sessions:
                session.initialize()
            for op, u, v in mutations:
                fired = len(monitor.refinements)
                cluster.apply_edge_mutation(u, v, op == "add")
                if len(monitor.refinements) == fired:
                    continue
                # The sessions never resync, so only a refinement's remap
                # brings them up to date: it must, exactly.
                current = cluster.fragmentation.restore_graph()
                stale = [
                    session.query
                    for session in open_sessions
                    if session.answer
                    != reachable(current, session.query.source, session.query.target)
                ]
                if stale:  # pragma: no cover - guard
                    raise AssertionError(
                        f"sessions-{s}: remapped standing answers of {stale} "
                        "disagree with the graph after a refinement"
                    )
            reports = monitor.refinements
            saved = sum(r.remap_visits_saved for r in reports)
            remap_rounds = sum(r.remap_rounds for r in reports)
            remap_tasks = sum(r.remap_tasks for r in reports)
            # Per-session remap visits = num_sites each (the disReach
            # one-visit-per-site contract); batched = that total minus saved.
            per_session_total = sum(
                r.sessions_remapped * cluster.num_sites for r in reports
            )
            add_full_row(
                scenario=f"sessions-{s}",
                mutations=num_mutations,
                refinements=len(reports),
                budget=move_budget,
                sessions=s,
                remap_visits=per_session_total - saved,
                remap_visits_saved=saved,
                remap_rounds=remap_rounds,
                remap_tasks=remap_tasks,
            )
    return result


# ---------------------------------------------------------------------------
# baselines: cross-backend identity of the sharded Pregel baselines
# ---------------------------------------------------------------------------
def exp_baselines(
    scale: float = SCALE / 5,
    card: int = 4,
    num_queries: int = 3,
    seed: int = 0,
    dataset: str = "amazon",
) -> ExperimentResult:
    """Cross-backend identity of the message-passing (Pregel) baselines.

    Since the supersteps are sharded through the executor protocol
    (stateless vertex programs via ``ParallelPhase.map``), ``disReachm``
    and ``disDistm`` run on every backend; this experiment evaluates
    the pinned workload on each and reports the modeled stats side by
    side.  Answers, visits, traffic, message counts and supersteps are
    deterministic and must be identical across backends — asserted here
    and enforced exactly by ``benchmarks/check_regression.py``.
    """
    from ..distributed.executors import EXECUTORS

    graph = load_dataset(dataset, scale=scale, seed=seed)
    reach_queries = random_reach_queries(graph, num_queries, seed=seed)
    bounded_queries = random_bounded_queries(graph, num_queries, bound=8, seed=seed)
    workloads = {"disReachm": reach_queries, "disDistm": bounded_queries}
    result = ExperimentResult(
        "baselines",
        "Message-passing baselines: modeled stats across executor backends",
        [
            "algorithm", "backend", "answers", "total_visits", "traffic_KB",
            "messages", "supersteps", "time_ms", "status",
        ],
        notes=(
            f"scale={scale}, card(F)={card}, {num_queries} queries per "
            "algorithm; all columns except time_ms are deterministic and "
            "identical across backends by assertion; a backend that cannot "
            "run in this environment gets a loud skip row, never a silently "
            "missing cell (same policy as `bench snap`)"
        ),
    )
    reference: Dict[str, Tuple] = {}
    for algorithm, queries in workloads.items():
        for backend in sorted(EXECUTORS):
            try:
                cluster = SimulatedCluster.from_graph(
                    graph, card, partitioner="chunk", seed=seed, executor=backend
                )
                evaluations = [evaluate(cluster, q, algorithm) for q in queries]
            except Exception as exc:  # pragma: no cover - env-dependent
                result.add_row(
                    algorithm=algorithm, backend=backend,
                    status=f"skipped: backend unavailable ({exc})",
                )
                continue
            signature = (
                "".join("T" if r.answer else "F" for r in evaluations),
                sum(r.stats.total_visits for r in evaluations),
                sum(r.stats.traffic_bytes for r in evaluations),
                sum(r.stats.num_messages for r in evaluations),
                sum(r.stats.supersteps for r in evaluations),
            )
            if algorithm not in reference:
                reference[algorithm] = signature
            elif signature != reference[algorithm]:  # pragma: no cover - guard
                raise AssertionError(
                    f"{algorithm} diverged on the {backend} backend: "
                    f"{signature} vs {reference[algorithm]}"
                )
            answers, visits, traffic, messages, supersteps = signature
            result.add_row(
                algorithm=algorithm,
                backend=backend,
                answers=answers,
                total_visits=visits,
                traffic_KB=traffic / 1e3,
                messages=messages,
                supersteps=supersteps,
                time_ms=sum(r.stats.response_seconds for r in evaluations)
                / len(evaluations) * 1e3,
                status="ok",
            )
    return result


def exp_kernels(
    scale: float = SCALE,
    card: int = 4,
    num_queries: int = 3,
    seed: int = 0,
) -> ExperimentResult:
    """Local-eval kernel: bit-identity across executor backends.

    The pinned workloads served end-to-end through
    :class:`~repro.serving.engine.BatchQueryEngine` under the numpy kernel
    x every executor backend (``mode`` = ``evaluate``).  Answers and all
    modeled stats (visits, traffic, messages, supersteps) are
    backend-invariant — asserted here, then exactly enforced by
    ``benchmarks/check_regression.py`` against the committed baseline.
    The amazon analog is unlabeled, so it carries the reach + bounded mix;
    the RPQ leg runs on the labeled youtube analog.
    """
    from ..core.kernels import resolve_kernel
    from ..distributed.executors import EXECUTORS
    from ..serving.engine import BatchQueryEngine

    kernel = resolve_kernel()
    amazon = load_dataset("amazon", scale=scale, seed=seed)
    youtube = load_dataset("youtube", scale=scale, seed=seed)
    reach_queries = random_reach_queries(amazon, num_queries, seed=seed)
    bounded_queries = random_bounded_queries(amazon, num_queries, bound=6, seed=seed)
    rpq_queries = random_regular_queries(youtube, num_queries, num_states=8, seed=seed)
    workloads = [
        ("amazon", amazon, list(reach_queries) + list(bounded_queries)),
        ("youtube", youtube, list(rpq_queries)),
    ]

    result = ExperimentResult(
        "kernels",
        "Local-eval kernel: identity across backends",
        [
            "dataset", "mode", "kernel", "backend", "answers", "total_visits",
            "traffic_KB", "messages", "supersteps", "eval_ms", "status",
        ],
        notes=(
            f"scale={scale}, card(F)={card}, kernel={kernel}; evaluate rows: "
            "modeled stats are backend-invariant by assertion"
        ),
    )

    reference: Dict[str, Tuple] = {}
    for name, graph, queries in workloads:
        for backend in sorted(EXECUTORS):
            cluster = SimulatedCluster.from_graph(
                graph, card, partitioner="chunk", seed=seed, executor=backend
            )
            engine = BatchQueryEngine(cluster)
            start = time.perf_counter()
            batch = engine.run_batch(queries, kernel=kernel)
            elapsed = time.perf_counter() - start
            signature = (
                "".join("T" if a else "F" for a in batch.answers),
                sum(r.stats.total_visits for r in batch.results),
                sum(r.stats.traffic_bytes for r in batch.results),
                sum(r.stats.num_messages for r in batch.results),
                sum(r.stats.supersteps for r in batch.results),
            )
            if name not in reference:
                reference[name] = signature
            elif signature != reference[name]:  # pragma: no cover - guard
                raise AssertionError(
                    f"the {backend} backend diverged on {name}: "
                    f"{signature} vs {reference[name]}"
                )
            answers, visits, traffic, messages, supersteps = signature
            result.add_row(
                dataset=name,
                mode="evaluate",
                kernel=kernel,
                backend=backend,
                answers=answers,
                total_visits=visits,
                traffic_KB=traffic / 1e3,
                messages=messages,
                supersteps=supersteps,
                eval_ms=elapsed * 1e3,
            )
    return result


def exp_shortcuts(
    scale: float = SCALE,
    card: int = 4,
    seed: int = 0,
    datasets: Sequence[str] = ("path", "grid", "longcycle"),
) -> ExperimentResult:
    """Shortcut precompute: sub-diameter supersteps on high-diameter graphs.

    Sweeps the pinned high-diameter datasets (path/grid/longcycle,
    DESIGN.md §13) under both shortcut modes for the message-passing
    baseline disReachm.  Queries span the diameter.  Every cell is run on
    every executor backend and asserted bit-identical (answers,
    visits, traffic, messages, supersteps) to the sequential run; an
    unavailable backend gets a loud skip row.  ``reduction`` is the
    none-mode superstep count divided by the mode's — the number the CI
    gate keeps >= 4x on the path/grid rows.
    ``build_ms``/``shortcut_edges``/``shortcut_msgs`` expose the
    precompute cost and how much of the traffic rode shortcut edges;
    they and ``time_ms`` are read off the ``sequential`` run, so no
    broker spawn or wire time leaks into them.
    """
    from ..distributed.executors import EXECUTORS
    from ..core.queries import ReachQuery

    result = ExperimentResult(
        "shortcuts",
        "Shortcut precompute: superstep cuts on pinned high-diameter graphs",
        [
            "dataset", "mode", "algorithm", "backends", "answers",
            "supersteps", "reduction", "shortcut_edges", "shortcut_msgs",
            "build_ms", "time_ms", "status",
        ],
        notes=(
            f"scale={scale}, card(F)={card}; queries span the diameter; "
            "answers/visits/traffic/messages/supersteps asserted "
            "identical across all available executor backends per cell; "
            "reduction = supersteps(none) / supersteps(mode)"
        ),
    )
    algorithm = "disReachm"
    for name in datasets:
        graph = load_dataset(name, scale=scale, seed=seed)
        n = graph.num_nodes
        pairs = [(0, n - 1), (0, n // 2), (n // 4, 3 * n // 4), (n - 1, 0)]
        queries = [ReachQuery(s, t) for s, t in pairs]
        base_supersteps: Optional[int] = None
        for mode in ("none", "reach"):
            reference: Optional[Tuple] = None
            swept: List[str] = []
            reported: List = []
            elapsed = 0.0
            for backend in sorted(EXECUTORS):
                try:
                    cluster = SimulatedCluster.from_graph(
                        graph, card, partitioner="chunk", seed=seed,
                        executor=backend,
                    )
                    start = time.perf_counter()
                    evaluations = [
                        evaluate(cluster, q, algorithm, shortcuts=mode)
                        for q in queries
                    ]
                    if backend == "sequential":
                        reported = evaluations
                        elapsed = time.perf_counter() - start
                except Exception as exc:  # pragma: no cover - env-dependent
                    result.add_row(
                        dataset=name, mode=mode, algorithm=algorithm,
                        backends=backend,
                        status=f"skipped: backend unavailable ({exc})",
                    )
                    continue
                signature = (
                    "".join("T" if r.answer else "F" for r in evaluations),
                    sum(r.stats.total_visits for r in evaluations),
                    sum(r.stats.traffic_bytes for r in evaluations),
                    sum(r.stats.num_messages for r in evaluations),
                    sum(r.stats.supersteps for r in evaluations),
                )
                if reference is None:
                    reference = signature
                elif signature != reference:  # pragma: no cover - guard
                    raise AssertionError(
                        f"{algorithm}/{mode} diverged on the {backend} "
                        f"backend: {signature} vs {reference}"
                    )
                swept.append(backend)
            if reference is None:  # pragma: no cover - every backend down
                continue
            answers, _visits, _traffic, _messages, supersteps = reference
            if base_supersteps is None:
                base_supersteps = supersteps
            details = [r.details.get("shortcuts") for r in reported]
            built = [d for d in details if d]
            result.add_row(
                dataset=name, mode=mode, algorithm=algorithm,
                backends="/".join(swept),
                answers=answers,
                supersteps=supersteps,
                reduction=base_supersteps / supersteps,
                shortcut_edges=built[0]["edges"] if built else 0,
                shortcut_msgs=sum(d["messages"] for d in built),
                build_ms=built[0]["build_seconds"] * 1e3 if built else 0.0,
                time_ms=elapsed * 1e3,
                status="ok",
            )
    return result


def exp_serving(
    scale: float = SCALE,
    seed: int = 0,
    num_queries: int = 80,
    card: int = 4,
    clients: int = 4,
) -> ExperimentResult:
    """Networked serving: closed-loop load against the TCP front end.

    Boots a :class:`~repro.net.server.ServingServer` (the ``repro-serve``
    stack) over a pinned cluster on an ephemeral port, then drives it with
    ``clients`` closed-loop TCP clients — each issues its share of a
    zipf-skewed mixed workload one query at a time, waiting for every reply
    before sending the next.  Single-query requests ride the batcher, which
    runs whatever is queued as one engine batch, so queries that arrive
    while a batch runs are coalesced into the next one.

    Every remote answer is asserted bit-identical to direct sequential
    :func:`~repro.core.engine.evaluate` on the same cluster
    (``answers_match``).  The headline numbers — closed-loop ``qps`` and
    the server-measured ``p50_ms``/``p99_ms`` admission-to-reply latency —
    are what the CI serving gate checks against ``benchmarks/baseline.json``
    (exact answers, conservative QPS floor and p99 ceiling).
    """
    import threading

    from ..net.client import ServeClient
    from ..net.server import start_background_server
    from ..serving import BatchQueryEngine
    from ..workload.query_gen import zipf_workload

    num_nodes = max(int(40_000 * scale), 120)
    graph = synthetic_graph(num_nodes, 2 * num_nodes, num_labels=6, seed=seed)
    cluster = _cluster(graph, card, seed=seed)
    queries = zipf_workload(graph, num_queries, seed=seed)

    with stopwatch() as seq_watch:
        reference = [evaluate(cluster, query) for query in queries]

    engine = BatchQueryEngine(cluster)
    server = start_background_server(engine, max_batch=32)
    address = server.address
    try:
        answers: List[Optional[bool]] = [None] * len(queries)
        errors: List[BaseException] = []

        def drive(worker: int) -> None:
            try:
                with ServeClient(address) as client:
                    for i in range(worker, len(queries), clients):
                        answers[i] = client.query(queries[i]).answer
            except BaseException as exc:  # noqa: BLE001 - joined below
                errors.append(exc)

        threads = [
            threading.Thread(target=drive, args=(worker,))
            for worker in range(clients)
        ]
        with stopwatch() as serve_watch:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        if errors:  # pragma: no cover - transport failures surface here
            raise errors[0]
        stats = server.stats_snapshot()
    finally:
        server.shutdown()

    mismatches = sum(
        1 for mine, ref in zip(answers, reference) if mine != ref.answer
    )
    if mismatches:  # pragma: no cover - identity is tested, this is a guard
        raise AssertionError(f"served answers diverged on {mismatches} queries")

    result = ExperimentResult(
        experiment="serving",
        title=f"Networked serving, {num_queries} queries x {clients} closed-loop clients",
        columns=[
            "mode", "queries", "clients", "wall_ms", "qps",
            "p50_ms", "p99_ms", "batches", "answers_match",
        ],
        notes=(
            f"scale={scale}, card(F)={card}, max_batch=32; served answers "
            "bit-identical to direct sequential evaluation; p50/p99 are "
            "server-side admission-to-reply latency"
        ),
    )
    result.add_row(
        mode="direct",
        queries=len(queries),
        clients=1,
        wall_ms=seq_watch[0] * 1e3,
        qps=len(queries) / max(seq_watch[0], 1e-9),
        answers_match=1,
    )
    result.add_row(
        mode="serving",
        queries=len(queries),
        clients=clients,
        wall_ms=serve_watch[0] * 1e3,
        qps=len(queries) / max(serve_watch[0], 1e-9),
        p50_ms=stats["p50_ms"],
        p99_ms=stats["p99_ms"],
        batches=stats["batches"],
        answers_match=1,
    )
    return result


# ---------------------------------------------------------------------------
# snap: real-graph scale harness (SNAP datasets / committed fixtures)
# ---------------------------------------------------------------------------
#: Pinned knobs of the ``snap`` experiment's offline fixture mode (what the
#: CI gate enforces): small deterministic sweep on the committed fixtures.
SNAP_FIXTURE_PARTITIONERS = ("hash", "refined")
#: Real-dataset sweep partitioners (budget-capped, skip-with-reason).
SNAP_PARTITIONERS = ("hash", "chunk", "refined")
#: Theorem-envelope headroom: realized mean traffic bytes per query must
#: stay under ``SNAP_ENV_FACTOR`` x the evaluated |Vq|^p * |Vf|^2 bound.
#: The bound counts boundary-node terms; realized bytes carry per-term
#: serialization constants (ids + lengths), so the factor absorbs the
#: bytes-per-term constant — it is NOT a fudge on the |Vf|^2 shape.
SNAP_ENV_FACTOR = 64
#: Estimated resident bytes per inserted edge of the DiGraph adjacency
#: representation (two set entries + dict overhead, measured on CPython
#: 3.12) — the pre-load guard multiplies this by the published edge count.
SNAP_RSS_BYTES_PER_EDGE = 120
DEFAULT_SNAP_WALL_BUDGET_S = 300.0
DEFAULT_SNAP_RSS_BUDGET_MB = 6144.0
#: Edge-arrival records replayed per real-dataset replay cell (fixtures
#: replay their whole stream).
DEFAULT_SNAP_REPLAY_LIMIT = 4000


def _peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB (0.0 if unreadable)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0.0
    # ru_maxrss is KB on Linux, bytes on macOS.
    raw = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return raw / 1e6 if sys.platform == "darwin" else raw / 1e3


def _snap_queries(graph: DiGraph, count: int, seed: int, bound: int = 6):
    """Cheap deterministic reach + bounded workloads for large graphs.

    :func:`~repro.workload.query_gen.random_reach_queries` plants positives
    from the *full* descendant set — one unbounded BFS per attempt, which on
    a multi-million-edge SNAP graph is exactly the cost the harness budgets
    guard against.  Here positives come from a capped BFS (at most
    ``_SNAP_BFS_CAP`` visited nodes, sorted expansion for determinism) and
    negatives from uniform pairs, so query generation stays O(cap) per
    query regardless of graph size.  ~Half the queries are planted
    positive; answers are still computed exactly by the algorithms.
    """
    import random as _random

    from ..core.queries import BoundedReachQuery, ReachQuery

    rng = _random.Random(seed)
    nodes = sorted(graph.nodes())
    reach, bounded = [], []
    while len(reach) < count:
        source = rng.choice(nodes)
        if len(reach) % 2 == 0:
            pool = _capped_descendants(graph, source, _SNAP_BFS_CAP)
            target = rng.choice(pool) if pool else rng.choice(nodes)
        else:
            target = rng.choice(nodes)
        if target == source:
            continue
        reach.append(ReachQuery(source, target))
        bounded.append(BoundedReachQuery(source, target, bound))
    return reach, bounded


_SNAP_BFS_CAP = 2048


def _capped_descendants(graph: DiGraph, source, cap: int) -> List:
    """Proper descendants of ``source``, stopping after ``cap`` nodes."""
    seen = {source}
    frontier = [source]
    while frontier and len(seen) < cap:
        nxt = []
        for node in frontier:
            for succ in sorted(graph.successors(node)):
                if succ not in seen:
                    seen.add(succ)
                    nxt.append(succ)
                    if len(seen) >= cap:
                        break
            if len(seen) >= cap:
                break
        frontier = nxt
    seen.discard(source)
    return sorted(seen)


def exp_snap(
    seed: int = 0,
    card: int = 4,
    num_queries: int = 4,
    fixture: bool = False,
    snap_graphs: Sequence[str] = (),
    replay_limit: int = DEFAULT_SNAP_REPLAY_LIMIT,
    wall_budget_s: float = DEFAULT_SNAP_WALL_BUDGET_S,
    rss_budget_mb: float = DEFAULT_SNAP_RSS_BUDGET_MB,
    clock: Callable[[], float] = time.perf_counter,
) -> ExperimentResult:
    """Real-graph scale harness: SNAP datasets end-to-end (ROADMAP item 1).

    Three row families per dataset (the ``mode`` column):

    * ``load`` — the streaming parse (:mod:`repro.workload.snap`) timed and
      RSS-stamped: the measured nodes/edges/wall/RSS record README's
      largest-graph-served number.
    * ``static`` — the sweep of partitioners x algorithms on the
      ``sequential`` backend (modeled metrics are backend-independent; the
      ``backend`` column names it).  Each cell reports the fragmentation's
      ``|Vf|``, the evaluated Theorem 1–2 envelope (``bound = |Vf|^2``) and
      the realized mean modeled traffic next to it; ``env_ok`` holds
      realized bytes under ``SNAP_ENV_FACTOR x bound`` and answers are
      asserted identical across every cell of a (dataset, algorithm) pair.
    * ``replay`` / ``replay-monitor`` — the edge-arrival replay: a
      nodes-only cluster (assignment computed on the full graph) absorbs
      the dataset's stream through ``apply_edge_mutation``; the plain
      replay is then checked **bit-identical** (answers/visits/traffic) to
      a static load of the same prefix under the same assignment
      (``replay_match``), and the monitor run reports drift-triggered
      bounded refinements (``refines``/``moves``).

    ``fixture=True`` (CLI: ``--fixture``) pins the sweep to the two
    committed ``tests/data/`` fixtures with a fixed sub-grid — fully
    offline and deterministic, the shape ``benchmarks/check_regression.py``
    gates.  Otherwise the registered SNAP datasets run (cells are
    budget-capped by ``wall_budget_s`` per dataset and a pre-load RSS
    estimate against ``rss_budget_mb``; over-budget work is skipped with a
    reason row, never silently).  ``snap_graphs`` (CLI: ``--snap-graph
    PATH``, repeatable) sweeps arbitrary edge-list files instead — any
    graph in the SNAP dialect, e.g. a generated real-scale stand-in.
    ``clock`` is what the wall budget reads, and nothing else does.
    """
    from ..core.kernels import resolve_kernel
    from ..distributed.cluster import _resolve_assignment
    from ..partition.builder import build_fragmentation
    from ..partition.monitor import MutationMonitor
    from ..partition.quality import measure_quality
    from ..serving.engine import BatchQueryEngine
    from ..workload import snap as snap_mod

    if fixture:
        datasets = [(name, "fixture") for name in sorted(snap_mod.FIXTURES)]
        partitioners: Sequence[str] = SNAP_FIXTURE_PARTITIONERS
    elif snap_graphs:
        datasets = [(str(path), "path") for path in snap_graphs]
        partitioners = SNAP_PARTITIONERS
    else:
        datasets = [(name, "snap") for name in sorted(snap_mod.SNAP_SPECS)]
        partitioners = SNAP_PARTITIONERS
    kernel = resolve_kernel()

    result = ExperimentResult(
        "snap",
        "Real-graph scale harness: SNAP sweep + edge-arrival replay",
        [
            "dataset", "mode", "partitioner", "algorithm", "backend",
            "kernel", "nodes", "edges", "Vf", "bound", "traffic_KB",
            "network_ms", "visits", "answers", "env_ok", "wall_ms",
            "rss_MB", "status", "replayed", "refines", "moves",
            "replay_match",
        ],
        notes=(
            f"card(F)={card}, {num_queries} queries/class, env factor "
            f"{SNAP_ENV_FACTOR}; mode=fixture: {fixture}; bound = Theorem "
            "1-2 envelope |Vf|^2; replay rows feed the arrival stream "
            "through apply_edge_mutation (replay_match=1: bit-identical to "
            "the static prefix load); budget-skipped cells carry a reason "
            "in the status column"
        ),
    )

    for dataset, kind in datasets:
        started = clock()

        def over_budget() -> bool:
            return clock() - started > wall_budget_s

        # -- pre-load guards ------------------------------------------------
        if kind == "snap":
            spec = snap_mod.get_spec(dataset)
            inserted = spec.edges * (1 if spec.directed else 2)
            est_mb = inserted * SNAP_RSS_BYTES_PER_EDGE / 1e6
            if est_mb > rss_budget_mb:
                result.add_row(
                    dataset=dataset, mode="skip",
                    status=(
                        f"skipped: estimated RSS {est_mb:.0f}MB exceeds "
                        f"budget {rss_budget_mb:.0f}MB "
                        f"(--rss-budget-mb to raise)"
                    ),
                )
                continue
            if not snap_mod.dataset_path(dataset).exists():
                result.add_row(
                    dataset=dataset, mode="skip",
                    status=(
                        "skipped: not in cache — run `python -m "
                        f"repro.workload.snap download {dataset}`"
                    ),
                )
                continue

        # -- load (streaming parse, timed) ----------------------------------
        stats = snap_mod.EdgeListStats()
        with stopwatch() as load_watch:
            if kind == "fixture":
                graph = snap_mod.load_fixture(dataset, stats=stats)
            elif kind == "path":
                graph = snap_mod.load_edge_file(dataset, stats=stats)
            else:
                graph = snap_mod.load_snap(dataset, stats=stats)
        result.add_row(
            dataset=dataset, mode="load",
            nodes=graph.num_nodes, edges=graph.num_edges,
            wall_ms=load_watch[0] * 1e3, rss_MB=_peak_rss_mb(),
            status=stats.note(),
        )

        reach_queries, bounded_queries = _snap_queries(graph, num_queries, seed)
        workloads = [
            ("disReach", reach_queries), ("disDist", bounded_queries),
        ]

        # -- static sweep: partitioners x algorithms -----------------------
        # Modeled metrics (|Vf|, traffic, visits, answers) are
        # backend-independent, so the sweep runs on the sequential reference;
        # cross-backend identity is what the kernels and baselines benches gate.
        reference: Dict[str, str] = {}
        cut = False
        for pname in partitioners:
            assignment, _ = _resolve_assignment(graph, card, pname, seed)
            fragmentation = build_fragmentation(graph, assignment, card)
            quality = measure_quality(fragmentation)
            engine = BatchQueryEngine(
                SimulatedCluster(fragmentation, executor="sequential")
            )
            for algorithm, queries in workloads:
                cut = over_budget()
                if cut:
                    break
                with stopwatch() as watch:
                    batch = engine.run_batch(queries, algorithm=algorithm)
                answers = "".join("T" if a else "F" for a in batch.answers)
                if reference.setdefault(algorithm, answers) != answers:  # pragma: no cover - guard
                    raise AssertionError(
                        f"{dataset}/{algorithm}: answers under {pname} "
                        f"diverge ({answers} vs {reference[algorithm]})"
                    )
                n = len(queries)
                traffic = sum(r.stats.traffic_bytes for r in batch.results)
                bound = quality.traffic_bound(algorithm)
                result.add_row(
                    dataset=dataset, mode="static",
                    partitioner=pname, algorithm=algorithm,
                    backend="sequential", kernel=kernel,
                    nodes=graph.num_nodes, edges=graph.num_edges,
                    Vf=quality.num_boundary_nodes, bound=bound,
                    traffic_KB=traffic / n / 1e3,
                    network_ms=sum(
                        r.stats.network_seconds for r in batch.results
                    ) / n * 1e3,
                    visits=sum(r.stats.total_visits for r in batch.results),
                    answers=answers,
                    env_ok=int(traffic / n <= SNAP_ENV_FACTOR * bound),
                    wall_ms=watch[0] * 1e3,
                    rss_MB=_peak_rss_mb(),
                    status="ok",
                )
            if cut:
                break
        if cut:
            result.add_row(
                dataset=dataset, mode="skip",
                status=(
                    f"skipped remaining cells: wall budget {wall_budget_s:.0f}s "
                    "exceeded (--wall-budget-s to raise)"
                ),
            )
            continue

        # -- edge-arrival replay (equivalence + monitor) --------------------
        limit = None if kind == "fixture" else replay_limit

        def edge_stream():
            if kind == "path":
                fh = snap_mod.open_edge_file(dataset)
                try:
                    yield from snap_mod.iter_edge_list(fh)
                finally:
                    fh.close()
            else:
                yield from snap_mod.iter_dataset_edges(dataset)

        for pname in partitioners:
            if over_budget():
                result.add_row(
                    dataset=dataset, mode="skip",
                    status=f"skipped replay: wall budget {wall_budget_s:.0f}s exceeded",
                )
                break
            replayed, assignment = snap_mod.nodes_only_cluster(
                graph, card, partitioner=pname, seed=seed
            )
            with stopwatch() as watch:
                report = snap_mod.replay_edges(
                    replayed, edge_stream(), limit=limit
                )
            # Static twin: same assignment over the same prefix.
            records = report.applied + report.duplicates
            prefix = DiGraph()
            for node in graph.nodes():
                prefix.add_node(node)
            prefix.add_edges_from(_prefix_records(edge_stream(), records))
            static = SimulatedCluster(
                build_fragmentation(prefix, assignment, card)
            )
            match = int(
                _query_signature(replayed, reach_queries)
                == _query_signature(static, reach_queries)
            )
            result.add_row(
                dataset=dataset, mode="replay", partitioner=pname,
                nodes=prefix.num_nodes, edges=prefix.num_edges,
                Vf=replayed.fragmentation.num_boundary_nodes,
                wall_ms=watch[0] * 1e3, rss_MB=_peak_rss_mb(),
                status="ok", replayed=report.applied,
                replay_match=match,
            )
            if not match:  # pragma: no cover - guard
                raise AssertionError(
                    f"{dataset}/{pname}: replayed cluster diverged from the "
                    "static prefix load"
                )

        if over_budget():
            result.add_row(
                dataset=dataset, mode="skip",
                status=(
                    f"skipped replay-monitor: wall budget "
                    f"{wall_budget_s:.0f}s exceeded"
                ),
            )
        else:
            monitored, _ = snap_mod.nodes_only_cluster(
                graph, card, partitioner="hash", seed=seed
            )
            monitor = MutationMonitor(
                monitored, drift_threshold=0.1, move_budget=64, region_hops=1
            )
            with stopwatch() as watch:
                report = snap_mod.replay_edges(
                    monitored, edge_stream(), limit=limit
                )
            result.add_row(
                dataset=dataset, mode="replay-monitor", partitioner="hash",
                Vf=monitored.fragmentation.num_boundary_nodes,
                wall_ms=watch[0] * 1e3, rss_MB=_peak_rss_mb(),
                status="ok", replayed=report.applied,
                refines=len(monitor.refinements),
                moves=sum(r.moved_nodes for r in monitor.refinements),
            )
    return result


def _prefix_records(edges, limit: int):
    """First ``limit`` records of an edge stream (0 yields nothing)."""
    for count, edge in enumerate(edges, start=1):
        if count > limit:
            return
        yield edge


def _query_signature(cluster: SimulatedCluster, queries) -> Tuple:
    """(answers, visits, traffic) of sequentially evaluating ``queries``."""
    evaluations = [evaluate(cluster, q, "disReach") for q in queries]
    return (
        tuple(r.answer for r in evaluations),
        sum(r.stats.total_visits for r in evaluations),
        sum(r.stats.traffic_bytes for r in evaluations),
    )


#: CLI registry: experiment id -> callable.
EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "table2": exp_table2,
    "fig11a": exp_fig11a,
    "fig11b": exp_fig11b,
    "fig11c": exp_fig11c,
    "fig11d": exp_fig11d,
    "fig11e": exp_fig11e,
    "fig11f": exp_fig11f,
    "fig11g": exp_fig11g,
    "fig11h": exp_fig11h,
    "fig11i": exp_fig11i,
    "fig11j": exp_fig11j,
    "fig11k": exp_fig11k,
    "fig11l": exp_fig11l,
    "ablation-partitioner": exp_ablation_partitioner,
    "workload": exp_workload,
    "partition": exp_partition,
    "mutation": exp_mutation,
    "baselines": exp_baselines,
    "shortcuts": exp_shortcuts,
    "kernels": exp_kernels,
    "serving": exp_serving,
    "snap": exp_snap,
}
