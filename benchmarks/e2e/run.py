"""End-to-end and per-layer benchmark of the distributed reachability system.

One run is one process and one workload::

    python3 benchmarks/e2e/run.py --workload serve-zipf --seed 3 --seconds 12 --trace 0

It makes the op stream from the seed, sets the system up, replays the stream
in passes, checks every answer against the centralized ground truth, prints
every metric by name with its unit and, as the last line of stdout, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` wraps the
public calls into each layer and reports the per-layer metrics.  README.md
defines every name and explains the timing protocol.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

#: Times the system is set up per run; ``setup_s`` is the best of them.
SETUP_REPEATS = 3
#: Calibration slices timed before and after each set-up.
SETUP_SLICES = 10
#: Share of ``--seconds`` a traced run spends on its untraced passes.
UNTRACED_SHARE = 0.4


def _import_system() -> None:
    """Make ``repro`` (the system under test) and the sibling modules importable."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"run.py: no system to measure: {src / 'repro'} is missing")
    for path in (str(src), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from repro.core.kernels import kernel_available

    if not kernel_available("numpy"):
        sys.exit("run.py: the benchmark runs on kernel='numpy' and numpy is not importable")


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the metric names, units, directions and bounds."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _warm_up(workload: Any) -> List[str]:
    """Answer the first ops of the stream, dealt to every caller; return failures."""
    from workloads import WARMUP_OPS

    failures = []
    for index, op in enumerate(workload.ops[:WARMUP_OPS]):
        caller = workload.callers[index % len(workload.callers)]
        try:
            result = caller(op)
        except Exception as exc:  # noqa: BLE001 - reported as a failed op
            result = exc
        reason = workload.check(op, result)
        if reason:
            failures.append(f"warm-up: {reason}")
    return failures


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool = False
) -> Dict[str, Any]:
    """Run one workload once and return the result object (see module doc)."""
    import fixture
    import timing
    from workloads import BY_NAME

    sizes = fixture.SMOKE if smoke else fixture.FULL
    graph = fixture.build_graph(sizes)
    workload = BY_NAME[name](graph, seed, sizes)
    tracer = None
    if trace:
        import layers

        tracer = layers.build_tracer()
        tracer.install()

    failures: List[str] = []
    setup_seconds: List[float] = []
    repeats = 1 if (trace or smoke) else SETUP_REPEATS
    try:
        for repeat in range(repeats):
            slices = [timing.calibrate() for _ in range(SETUP_SLICES)]
            began = time.perf_counter()
            workload.setup()
            failures += _warm_up(workload)
            elapsed = time.perf_counter() - began
            slices += [timing.calibrate() for _ in range(SETUP_SLICES)]
            setup_seconds.append(elapsed / timing.host_slowdown([min(slices)]))
            if repeat + 1 < repeats:
                workload.close()

        def one_pass(index: int, traced: bool = False) -> Any:
            workload.reset()
            if not traced:
                return timing.run_pass(workload.callers, workload.ops)
            callers = [tracer.wrap_callable(call, layers.OP_SPAN) for call in workload.callers]
            return timing.run_pass(
                callers, workload.ops, tracer.set_op, index * len(workload.ops)
            )

        budget = 0.0 if smoke else seconds
        if tracer is None:
            passes = timing.run_passes(one_pass, budget)
            traced_passes: List[Any] = []
        else:
            tracer.uninstall()
            passes = timing.run_passes(one_pass, budget * UNTRACED_SHARE)
            tracer.install()
            traced_passes = timing.run_passes(
                lambda index: one_pass(index, traced=True), budget * (1 - UNTRACED_SHARE)
            )
            tracer.uninstall()

        attempted = 0
        for item in list(passes) + traced_passes:
            for op, result in zip(workload.ops, item.results):
                attempted += 1
                reason = workload.check(op, result)
                if reason:
                    failures.append(reason)
        reason = workload.cross_check()
        if reason:
            failures.append(reason)

        reads = [
            result
            for op, result in zip(workload.ops, passes[0].results)
            if op.kind not in ("add", "remove") and not isinstance(result, Exception)
        ]
        if tracer is None:
            metrics = timing.best_of(passes, len(workload.callers))
            print(f"# host_slowdown {metrics.pop('host_slowdown'):.4f} (divided out of every time)")
            metrics["setup_s"] = min(setup_seconds)
            metrics["peak_rss_mb"] = timing.peak_rss_mb()
            metrics["traffic_bytes_per_query"] = statistics.fmean(
                result.stats.traffic_bytes for result in reads
            )
            metrics["max_visits_per_site"] = max(
                result.stats.max_visits_per_site for result in reads
            )
        else:
            metrics, trace_failures = layers.per_layer_metrics(
                tracer, workload, passes, traced_passes, reads
            )
            failures += trace_failures
            OUT.mkdir(exist_ok=True)
            tracer.dump(OUT / f"trace-{name}.jsonl")
    finally:
        workload.close()
    leftover = timing.child_pids()
    if leftover:
        failures.append(f"child processes still alive at end of run: {leftover}")

    for reason in failures[:10]:
        print(f"FAILED: {reason}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": metrics,
    }


def emit(result: Dict[str, Any], spec: Dict[str, Any], trace: bool) -> None:
    """Print every metric by name with its unit, then the JSON result line."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for entry in declared:
        value = result["metrics"].get(entry["name"], 0.0)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']:44s} {value:16.6f} {entry['unit']}")
    undeclared = sorted(set(result["metrics"]) - set(metrics))
    if undeclared:
        sys.exit(f"run.py: metrics missing from BENCHMARK.json: {undeclared}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse the command line and run (see the module docstring)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of the workloads of BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=0, help="seed of the op stream")
    parser.add_argument("--seconds", type=float, help="how long to replay passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_const", const=1, dest="trace")
    parser.add_argument(
        "--smoke", action="store_true", help="tiny graph, one pass: exercises the code paths"
    )
    parser.add_argument(
        "--selfcheck",
        action="store_true",
        help="run two sets of runs per workload and compare their medians to the bounds",
    )
    parser.add_argument("--runs", type=int, default=5, help="runs per set of --selfcheck")
    args = parser.parse_args(argv)

    _import_system()
    spec = load_spec()
    names = [entry["name"] for entry in spec["workloads"]]
    if args.selfcheck:
        import selfcheck

        return selfcheck.main(spec, args.runs)
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    result = run_workload(args.workload, args.seed, seconds, bool(args.trace), args.smoke)
    emit(result, spec, bool(args.trace))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
