"""Command-line query runner: evaluate queries on a graph file.

Lets a user exercise the whole system from a shell, no Python required::

    # reachability on an edge-list file, 4 simulated sites
    python -m repro --graph g.txt --fragments 4 reach a b

    # bounded reachability
    python -m repro --graph g.json --fragments 8 dist a b 5

    # regular reachability, choosing the algorithm and partitioner
    python -m repro --graph g.txt --partitioner bfs --algorithm disRPQd \\
        regular Ann Mark "DB* | HR*"

    # boundary-aware partitioning: minimize |Vf|, the paper's traffic term
    python -m repro --graph g.txt --partitioner refined reach a b
    python -m repro --graph g.txt --partitioner multilevel reach a b

    # run the site-local work on TCP broker processes
    python -m repro --graph g.txt --executor socket reach a b

    # built-in dataset stand-ins work too
    python -m repro --dataset amazon --scale 0.002 reach 0 100

    # real SNAP graphs: download once, then query the actual edge list
    # (scale is ignored for these — see `python -m repro.workload.snap list`)
    python -m repro.workload.snap download wiki-Vote
    python -m repro --dataset wiki-Vote --fragments 8 reach 3 25

    # serve a 100-query zipf workload as one batch (cross-query reuse)
    python -m repro --graph g.txt --workload 100 --executor socket

    # dynamic graph: interleave 20 edge mutations with the workload; a
    # drift monitor triggers bounded repartitioning when |Vf| degrades
    python -m repro --graph g.txt --workload 100 --mutations 20

The run's performance evidence (visits, traffic, response time) is printed
with the answer — the same three quantities the paper's guarantees bound.
With ``--workload`` the batch engine's amortization evidence (cache hit
rate, deduplicated tasks, batched vs one-by-one modeled cost) is printed
instead.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core.engine import algorithms_for, evaluate
from .core.options import OPTIONS, add_strategy_arguments, set_strategy_defaults
from .core.queries import BoundedReachQuery, ReachQuery, RegularReachQuery
from .distributed.cluster import SimulatedCluster
from .errors import ReproError
from .graph import graph_io
from .partition.partitioners import PARTITIONERS
from .workload.datasets import DATASETS, load_dataset


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Distributed (bounded/regular) reachability queries "
        "via partial evaluation (Fan et al., VLDB 2012).",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", type=Path, help="edge-list or .json graph file")
    source.add_argument(
        "--dataset", choices=sorted(DATASETS), help="built-in dataset stand-in"
    )
    parser.add_argument("--scale", type=float, default=0.002,
                        help="dataset scale (with --dataset)")
    parser.add_argument("--fragments", "-k", type=int, default=4,
                        help="number of fragments/sites")
    parser.add_argument("--partitioner", choices=sorted(PARTITIONERS),
                        default="chunk",
                        help="node placement strategy; 'refined' and "
                        "'multilevel' optimize the boundary-node count "
                        "|Vf| the paper's traffic bounds depend on "
                        "(DESIGN.md §7; default: chunk)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--algorithm", default=None,
                        help="algorithm name (default: the paper's partial-"
                        "evaluation algorithm for the query class)")
    add_strategy_arguments(parser)
    parser.add_argument("--verbose", "-v", action="store_true",
                        help="also print per-site visit counts")

    workload = parser.add_argument_group("batch workloads (instead of a query)")
    workload.add_argument("--workload", type=int, metavar="N", default=None,
                          help="serve an N-query zipf-skewed workload through "
                          "the batch engine instead of one query")
    workload.add_argument("--distinct", type=int, default=None,
                          help="distinct queries in the workload pool "
                          "(default: N // 5)")
    workload.add_argument("--zipf", type=float, default=1.2,
                          help="zipf skew of query popularity (default: 1.2)")
    workload.add_argument("--workload-bound", type=int, default=6, metavar="L",
                          help="bound l of the workload's bounded queries "
                          "(default: 6; distinct dest from the dist "
                          "subcommand's positional bound)")
    workload.add_argument("--mutations", type=int, metavar="M", default=None,
                          help="interleave M edge mutations with the "
                          "workload, with a drift-triggered bounded "
                          "refinement monitor attached (DESIGN.md §8; "
                          "requires --workload)")

    sub = parser.add_subparsers(dest="query", required=False)
    reach = sub.add_parser("reach", help="qr(s, t): does s reach t?")
    reach.add_argument("source")
    reach.add_argument("target")
    dist = sub.add_parser("dist", help="qbr(s, t, l): is dist(s, t) <= l?")
    dist.add_argument("source")
    dist.add_argument("target")
    dist.add_argument("bound", type=int)
    regular = sub.add_parser("regular", help="qrr(s, t, R): a path matching R?")
    regular.add_argument("source")
    regular.add_argument("target")
    regular.add_argument("regex")
    return parser


def _resolve_node(graph, raw: str):
    """Node ids in files may be strings or ints; accept either spelling."""
    if graph.has_node(raw):
        return raw
    try:
        as_int = int(raw)
    except ValueError:
        return raw
    return as_int if graph.has_node(as_int) else raw


def _run_workload(args, graph, cluster) -> int:
    """``--workload N``: serve a generated batch, print amortization stats."""
    from .core.engine import REGISTRY
    from .core.queries import BoundedReachQuery, ReachQuery
    from .serving import BatchQueryEngine
    from .workload.query_gen import zipf_workload

    mix = None
    if args.algorithm is not None:
        # A single algorithm evaluates a single query class, so restrict
        # the generated mix to it (baselines run un-batched, one by one).
        try:
            query_type, _ = REGISTRY[args.algorithm]
        except KeyError:
            known = ", ".join(sorted(REGISTRY))
            raise ReproError(
                f"unknown algorithm {args.algorithm!r}; known: {known}"
            ) from None
        kind = (
            "reach"
            if query_type is ReachQuery
            else "bounded" if query_type is BoundedReachQuery else "regular"
        )
        mix = [(kind, 1.0)]
    queries = zipf_workload(
        graph,
        args.workload,
        mix=mix,
        distinct=args.distinct,
        zipf_s=args.zipf,
        bound=args.workload_bound,
        seed=args.seed,
    )
    engine = BatchQueryEngine(cluster)
    if args.mutations:
        return _run_dynamic_workload(args, graph, cluster, engine, queries)
    batch = engine.run_batch(queries, algorithm=args.algorithm)
    workload = batch.workload
    positives = sum(1 for answer in batch.answers if answer)
    pool = len({str(q) for q in queries})
    via = f" via {args.algorithm}" if args.algorithm else ""
    print(
        f"workload: {len(queries)} queries ({pool} distinct, zipf "
        f"s={args.zipf}) on {cluster.num_sites} sites{via}  ->  "
        f"{positives} true / {len(queries) - positives} false"
    )
    print(workload.summary())
    if args.verbose:
        for query, result in zip(queries, batch.results):
            print(f"  {query}  ->  {result.answer}")
    return 0


def _run_dynamic_workload(args, graph, cluster, engine, queries) -> int:
    """``--workload N --mutations M``: serve rounds with mutations between.

    A :class:`~repro.partition.monitor.MutationMonitor` (default knobs)
    watches ``|Vf|`` drift; when its threshold trips, a bounded refinement
    repartitions in place — open sessions remap, caches invalidate, and the
    modeled fragment-shipping cost is charged and reported.
    """
    from .distributed.stats import ExecutionStats
    from .partition.monitor import MutationMonitor
    from .workload.query_gen import random_edge_mutations

    plan = random_edge_mutations(graph, args.mutations, seed=args.seed)
    rounds = max(1, min(8, len(plan)))
    monitor = MutationMonitor(cluster)
    vf_start = cluster.fragmentation.num_boundary_nodes
    answers = []
    totals = ExecutionStats(algorithm="workload", num_sites=cluster.num_sites)
    for index in range(rounds):
        lo = index * len(queries) // rounds
        hi = (index + 1) * len(queries) // rounds
        batch = engine.run_batch(queries[lo:hi], algorithm=args.algorithm)
        answers.extend(batch.answers)
        if batch.workload.batch is not None:
            totals.accumulate(batch.workload.batch)
        mlo = index * len(plan) // rounds
        mhi = (index + 1) * len(plan) // rounds
        for op, u, v in plan[mlo:mhi]:
            cluster.apply_edge_mutation(u, v, op == "add")
    positives = sum(1 for answer in answers if answer)
    ship_bytes = sum(r.shipping.traffic_bytes for r in monitor.refinements)
    ship_ms = sum(r.shipping.network_seconds for r in monitor.refinements) * 1e3
    print(
        f"workload: {len(queries)} queries + {len(plan)} mutations "
        f"({rounds} rounds) on {cluster.num_sites} sites  ->  "
        f"{positives} true / {len(answers) - positives} false"
    )
    print(
        f"[batch] hit-rate={engine.cache.hit_rate * 100:.1f}% "
        f"response={totals.response_seconds * 1e3:.2f}ms "
        f"traffic={totals.traffic_bytes}B"
    )
    print(
        f"[dynamic] |Vf| {vf_start} -> "
        f"{cluster.fragmentation.num_boundary_nodes} "
        f"(drift {monitor.drift():+.1%} of baseline) "
        f"refinements={len(monitor.refinements)} moves={monitor.total_moves} "
        f"shipped={ship_bytes}B ({ship_ms:.2f}ms) "
        f"epoch={cluster.partition_epoch}"
    )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.query is None and args.workload is None:
        parser.error("a query subcommand (reach/dist/regular) or --workload is required")
    if args.query is not None and args.workload is not None:
        parser.error("--workload replaces the query subcommand; give one or the other")
    if args.mutations is not None and args.workload is None:
        parser.error("--mutations only makes sense with --workload")
    if args.mutations is not None and args.mutations < 0:
        parser.error("--mutations must be non-negative")
    try:
        # Process-wide defaults: every plan and baseline run this invocation
        # builds (single query, workload batches, session remaps) uses them
        # where its algorithm takes them (soft; DESIGN.md §14).
        set_strategy_defaults(args, OPTIONS)
        if args.graph:
            graph = graph_io.load(args.graph)
        else:
            graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
        cluster = SimulatedCluster.from_graph(
            graph, args.fragments, partitioner=args.partitioner, seed=args.seed,
            executor=args.executor,
        )
        if args.workload is not None:
            return _run_workload(args, graph, cluster)
        source = _resolve_node(graph, args.source)
        target = _resolve_node(graph, args.target)
        if args.query == "reach":
            query = ReachQuery(source, target)
        elif args.query == "dist":
            query = BoundedReachQuery(source, target, args.bound)
        else:
            query = RegularReachQuery(source, target, args.regex)
        result = evaluate(cluster, query, args.algorithm)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    stats = result.stats
    print(f"{query}  ->  {result.answer}")
    if result.distance is not None:
        print(f"distance: {result.distance:g}")
    print(
        f"[{stats.algorithm}] sites={cluster.num_sites} "
        f"max-visits/site={stats.max_visits_per_site} "
        f"traffic={stats.traffic_bytes}B "
        f"response={stats.response_seconds * 1e3:.2f}ms "
        f"executor={stats.executor}"
    )
    if args.verbose:
        print(f"visits per site: {stats.visits_per_site()}")
        if stats.parallel_speedup is not None:
            print(f"parallel speedup: {stats.parallel_speedup:.2f}x "
                  f"(site compute {stats.site_compute_seconds * 1e3:.2f}ms / "
                  f"phase wall {stats.phase_wall_seconds * 1e3:.2f}ms)")
        print(f"applicable algorithms: {', '.join(algorithms_for(query))}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
