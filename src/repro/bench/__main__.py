"""CLI: reproduce the paper's tables and figures.

Usage::

    python -m repro.bench                 # list experiments
    python -m repro.bench table2          # one experiment
    python -m repro.bench all             # every experiment
    python -m repro.bench fig11a --scale 0.005 --csv out.csv
    python -m repro.bench table2 --executor socket    # sites on broker processes
    python -m repro.bench workload --json BENCH_pr.json   # CI regression gate
    python -m repro.bench partition --json BENCH_partition.json  # quality sweep
    python -m repro.bench mutation --json BENCH_mutation.json  # dynamic graphs

Several experiments can be named at once; ``--json`` then writes one file
keyed by experiment id (what ``benchmarks/check_regression.py`` consumes).
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from pathlib import Path

from ..core.options import STRATEGIES, add_strategy_arguments, set_strategy_defaults
from .experiments import EXPERIMENTS


#: CLI flag (argparse dest) -> the experiment parameter it feeds.  A flag
#: that was given is forwarded iff the experiment's signature takes that
#: parameter; otherwise it is ignored (not every experiment has a scale, a
#: query count or a fixture mode).
_FORWARDED = {
    "seed": "seed",
    "scale": "scale",
    "queries": "num_queries",
    "sessions": "sessions",
    "fixture": "fixture",
    "snap_graph": "snap_graphs",
    "wall_budget_s": "wall_budget_s",
    "rss_budget_mb": "rss_budget_mb",
}


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (an empty workload has no means)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproduce the evaluation tables/figures of Fan et al., VLDB 2012.",
    )
    parser.add_argument(
        "experiment",
        nargs="*",
        help="experiment id(s) (see list below), or 'all'",
    )
    parser.add_argument("--scale", type=float, default=None, help="graph scale override")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--queries", type=_positive_int, default=None, help="queries per point (>= 1)"
    )
    parser.add_argument(
        "--sessions",
        type=_positive_int,
        default=None,
        metavar="S",
        help="standing-session sweep size for experiments that accept it "
        "(mutation: opens S incremental sessions and reports the batched "
        "repartition-remap savings at S in {1, S/2, S})",
    )
    parser.add_argument(
        "--fixture",
        action="store_true",
        default=None,
        help="snap experiment: sweep the committed tests/data/ fixtures "
        "instead of downloaded datasets (fully offline — the CI smoke)",
    )
    parser.add_argument(
        "--snap-graph",
        type=Path,
        action="append",
        default=None,
        metavar="PATH",
        help="snap experiment: sweep this edge-list file (plain or gzip, "
        "SNAP dialect) instead of the registered datasets; repeatable",
    )
    parser.add_argument(
        "--wall-budget-s",
        type=float,
        default=None,
        metavar="SECONDS",
        help="snap experiment: per-dataset wall budget before the remaining "
        "cells are skipped (with the reason in the row)",
    )
    parser.add_argument(
        "--rss-budget-mb",
        type=float,
        default=None,
        metavar="MB",
        help="snap experiment: refuse datasets whose estimated resident size "
        "exceeds this (skip row carries the estimate)",
    )
    parser.add_argument("--csv", type=Path, default=None, help="also write CSV here")
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        help="also write results as JSON here (what benchmarks/check_regression.py "
        "compares against benchmarks/baseline.json)",
    )
    add_strategy_arguments(parser)
    args = parser.parse_args(argv)
    # Experiments construct their own clusters and plans internally; the
    # process-wide defaults are how one flag reaches all of them (the
    # 'shortcuts' experiment sweeps none and reach).
    set_strategy_defaults(args, STRATEGIES)

    if not args.experiment:
        print("available experiments:")
        for name, fn in EXPERIMENTS.items():
            doc = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"  {name:22s} {doc}")
        return 0

    names = list(EXPERIMENTS) if "all" in args.experiment else list(args.experiment)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        return 2

    csv_chunks = []
    json_payload = {}
    for name in names:
        accepted = inspect.signature(EXPERIMENTS[name]).parameters
        kwargs = {
            param: getattr(args, flag)
            for flag, param in _FORWARDED.items()
            if param in accepted and getattr(args, flag) is not None
        }
        start = time.perf_counter()
        result = EXPERIMENTS[name](**kwargs)
        elapsed = time.perf_counter() - start
        print(result.format_table())
        print(f"(ran in {elapsed:.1f}s)\n")
        csv_chunks.append(f"# {name}\n" + result.to_csv())
        json_payload[name] = {
            "title": result.title,
            "columns": result.columns,
            "rows": result.rows,
            "notes": result.notes,
            "elapsed_seconds": elapsed,
        }
    if args.csv:
        args.csv.write_text("\n".join(csv_chunks), encoding="utf-8")
        print(f"wrote {args.csv}")
    if args.json:
        args.json.write_text(
            json.dumps(json_payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
