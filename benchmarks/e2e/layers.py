"""Which public calls are traced as which layer, and the per-layer metrics.

A layer is a module of ``repro``; its span name is the module's name plus the
step.  ``build_tracer`` declares the wrappers; ``per_layer_metrics`` turns the
spans of a traced run into the ``per_layer`` metrics of ``BENCHMARK.json`` and
runs the trace's self-test.  README.md says which end-to-end metric each
layer metric should move on which workload.
"""

from __future__ import annotations

import statistics
from bisect import bisect_right
from typing import Any, Dict, List, Sequence, Tuple

import timing
from tracing import END, NAME, OP, PARENT, START, THREAD, VALUE, Tracer, self_times

#: Span of one whole client op; its self time is what no layer accounts for.
OP_SPAN = "op"
#: That unaccounted time may be at most this share of mean latency.
RESIDUAL_LIMIT = 0.15

_IN_PROCESS = (
    "partition.build",
    "core.local_eval",
    "core.csr_lower",
    "core.assemble",
    "core.plan",
    "distributed.accounting",
    "distributed.run_tasks",
    "serving.cache.get",
    "serving.cache.put",
    "serving.engine",
)
_FRAMES = ("net.frame_encode", "net.frame_decode", "net.send")

#: Spans that must fire at least once on each workload; a ``from ... import``
#: rebinding that escaped its wrapper shows up here as a name that never did.
EXPECTED: Dict[str, Tuple[str, ...]] = {
    "oneshot-cold": _IN_PROCESS,
    "socket-cold": tuple(
        name for name in _IN_PROCESS if name not in ("core.local_eval", "core.csr_lower")
    )
    + _FRAMES
    + ("net.socket_round",),
    "serve-zipf": _IN_PROCESS + _FRAMES,
    "mutate-mix": _IN_PROCESS + ("core.session_update", "serving.cache.invalidate"),
}


def _run_tasks_probe(args: tuple, _kwargs: dict, results: Any) -> Tuple[int, float, float]:
    """(fragment jobs, total task seconds, slowest worker's seconds) of a round.

    The socket coordinator deals tasks round-robin to its two brokers, so the
    tasks at even and odd positions are what each broker computed.
    """
    tasks = args[1]
    jobs = sum(len(task.args[0]) for task in tasks)
    seconds = [result.seconds for result in results]
    slowest = max(sum(seconds[0::2]), sum(seconds[1::2])) if seconds else 0.0
    return jobs, sum(seconds), slowest


def _shipped_probe(args: tuple, _kwargs: dict, _result: Any) -> int:
    """Fragments installed on a broker by one coordinator frame."""
    frame = args[1]
    return len(frame.get("ship", ())) if isinstance(frame, dict) else 0


def build_tracer() -> Tracer:
    """Declare every wrapped public callable (nothing is patched yet)."""
    import repro.core.engine as core_engine
    import repro.core.incremental as incremental
    import repro.core.reachability as reachability
    import repro.core.regular as regular
    import repro.distributed.messages as messages
    import repro.net.client  # noqa: F401 - holds a rebinding of send_frame
    import repro.net.coordinator as coordinator
    import repro.net.framing as framing
    import repro.net.server  # noqa: F401 - imported so rebindings are found
    import repro.serving.engine as serving_engine
    from repro.core.bounded import BoundedReachPlan
    from repro.core.csr import CSRCondensation, FragmentCSR
    from repro.distributed.cluster import SimulatedCluster
    from repro.distributed.executors import SequentialExecutor, SocketExecutor
    from repro.serving.cache import SiteResultCache

    tracer = Tracer()
    tracer.wrap_method(SimulatedCluster, "from_graph", "partition.build")
    tracer.wrap_function(serving_engine, "eval_fragment_jobs", "core.local_eval")
    for cls in (FragmentCSR, CSRCondensation):
        tracer.wrap_method(cls, "__init__", "core.csr_lower")
    for cls in (reachability.ReachPlan, BoundedReachPlan, regular.RegularReachPlan):
        tracer.wrap_method(cls, "assemble", "core.assemble")
        tracer.wrap_method(cls, "__init__", "core.plan")
        tracer.wrap_method(cls, "validate", "core.plan")
    tracer.wrap_function(core_engine, "plan_for", "core.plan")
    # The sessions assemble through these two, not through a plan.
    tracer.wrap_function(reachability, "assemble_reach", "core.assemble")
    tracer.wrap_function(regular, "assemble_regular", "core.assemble")
    for attr in ("add_edge", "remove_edge", "resync"):
        tracer.wrap_method(incremental.IncrementalReachSession, attr, "core.session_update")
    # payload_size recurses and is called once per boundary node from inside
    # equation_set_size: wrap it only where the accounting code calls it.
    tracer.wrap_function(
        messages,
        "payload_size",
        "distributed.accounting",
        only=("repro.distributed.cluster", "repro.serving.engine", "repro.core.incremental"),
    )
    tracer.wrap_function(messages, "equation_set_size", "distributed.accounting")
    for cls in (SequentialExecutor, SocketExecutor):
        tracer.wrap_method(cls, "run_tasks", "distributed.run_tasks", _run_tasks_probe)
    tracer.wrap_method(
        SiteResultCache, "get", "serving.cache.get", lambda _a, _k, entry: entry is not None
    )
    tracer.wrap_method(SiteResultCache, "put", "serving.cache.put")
    tracer.wrap_method(
        SiteResultCache, "invalidate_fragment", "serving.cache.invalidate", lambda _a, _k, n: n
    )
    tracer.wrap_function(serving_engine, "execute_plans", "serving.engine")
    tracer.wrap_method(serving_engine.BatchQueryEngine, "run_batch", "serving.engine")
    tracer.wrap_function(
        framing, "encode_frame", "net.frame_encode", lambda _a, _k, frame: len(frame)
    )
    tracer.wrap_function(
        framing, "decode_payload", "net.frame_decode", lambda args, _k, _r: len(args[0])
    )
    tracer.wrap_function(framing, "send_frame", "net.send", _shipped_probe)
    tracer.wrap_function(coordinator, "run_socket_tasks", "net.socket_round")
    return tracer


def _p50_ms(values: Sequence[float]) -> float:
    return timing.nearest_rank(values, 0.5) * 1e3 if values else 0.0


def _own_batches(spans: Sequence[list], ops: Sequence[int]) -> Dict[int, int]:
    """For each client op, the server-side engine span that answered it.

    The engine runs on one thread, so its root spans do not overlap; an op's
    own batch is the last of them that lies inside the op.
    """
    op_threads = {spans[index][THREAD] for index in ops}
    batches = sorted(
        (
            index
            for index, span in enumerate(spans)
            if span[NAME] == "serving.engine"
            and span[PARENT] < 0
            and span[THREAD] not in op_threads
        ),
        key=lambda index: spans[index][END],
    )
    ends = [spans[index][END] for index in batches]
    own = {}
    for index in ops:
        found = bisect_right(ends, spans[index][END]) - 1
        if found >= 0 and spans[batches[found]][START] >= spans[index][START]:
            own[index] = batches[found]
    return own


def per_layer_metrics(
    tracer: Tracer,
    workload: Any,
    untraced: Sequence[timing.PassResult],
    traced: Sequence[timing.PassResult],
    reads: Sequence[Any],
) -> Tuple[Dict[str, float], List[str]]:
    """The per-layer metrics of one traced run, and the self-test's failures."""
    from repro.partition.quality import measure_quality

    spans = tracer.spans()
    own = self_times(spans)
    windows = [(item.start, item.end) for item in traced]
    in_pass = [
        index
        for index, span in enumerate(spans)
        if any(start <= span[START] <= end for start, end in windows)
    ]
    ops_count = len(workload.ops) * len(traced)
    writes = sum(1 for op in workload.ops if op.kind in ("add", "remove")) * len(traced)

    calls: Dict[str, int] = {}
    total: Dict[str, float] = {}
    self_total: Dict[str, float] = {}
    for index in in_pass:
        name = spans[index][NAME]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + spans[index][END] - spans[index][START]
        self_total[name] = self_total.get(name, 0.0) + own[index]

    def per_op_ms(seconds: float) -> float:
        return seconds / ops_count * 1e3

    def values(name: str, scope: Sequence[int] = in_pass) -> List[Any]:
        return [spans[i][VALUE] for i in scope if spans[i][NAME] == name]

    metrics: Dict[str, float] = {}
    failures: List[str] = []

    # -- partition ---------------------------------------------------------
    builds = [s[END] - s[START] for s in spans if s[NAME] == "partition.build"]
    quality = measure_quality(workload.cluster.fragmentation)
    metrics["partition.build_s"] = min(builds) if builds else 0.0
    metrics["partition.boundary_nodes"] = quality.num_boundary_nodes
    metrics["partition.largest_fragment_size"] = quality.max_fragment_size

    # -- core --------------------------------------------------------------
    rounds = values("distributed.run_tasks")
    task_seconds = sum(item[1] for item in rounds)
    metrics["core.local_eval_ms_per_op"] = per_op_ms(
        total.get("core.local_eval", task_seconds)
    )
    metrics["core.local_eval_calls_per_op"] = sum(item[0] for item in rounds) / ops_count
    best_latencies = timing.best_latencies(untraced)
    for kind in ("reach", "bounded", "regular"):
        metrics[f"core.latency_p50_ms.{kind}"] = _p50_ms(
            [lat for op, lat in zip(workload.ops, best_latencies) if op.kind == kind]
        )
    metrics["core.csr_lower_ms_per_op"] = per_op_ms(self_total.get("core.csr_lower", 0.0))
    metrics["core.csr_lower_calls_per_pass"] = calls.get("core.csr_lower", 0) / len(traced)
    metrics["core.assemble_ms_per_op"] = per_op_ms(self_total.get("core.assemble", 0.0))
    metrics["core.plan_ms_per_op"] = per_op_ms(self_total.get("core.plan", 0.0))
    metrics["core.session_update_ms_p50"] = _p50_ms(
        [
            spans[i][END] - spans[i][START]
            for i in in_pass
            if spans[i][NAME] == "core.session_update"
        ]
    )

    # -- distributed ---------------------------------------------------------
    metrics["distributed.accounting_ms_per_op"] = per_op_ms(
        self_total.get("distributed.accounting", 0.0)
    )
    run_tasks = total.get("distributed.run_tasks", 0.0)
    metrics["distributed.run_tasks_ms_per_op"] = per_op_ms(run_tasks)
    metrics["distributed.executor_overhead_ms_per_op"] = per_op_ms(run_tasks - task_seconds)
    read_latencies = [
        lat for op, lat in zip(workload.ops, best_latencies) if op.kind not in ("add", "remove")
    ]
    modeled = statistics.fmean(result.stats.response_seconds for result in reads)
    traffic = statistics.fmean(result.stats.traffic_bytes for result in reads)
    metrics["distributed.messages_per_op"] = statistics.fmean(
        result.stats.num_messages for result in reads
    )
    metrics["distributed.modeled_response_ms"] = modeled * 1e3
    metrics["distributed.modeled_over_measured"] = modeled / statistics.fmean(read_latencies)

    # -- serving -------------------------------------------------------------
    lookups = values("serving.cache.get")
    metrics["serving.cache_hit_rate"] = sum(lookups) / len(lookups) if lookups else 0.0
    metrics["serving.cache_lookup_ms_per_op"] = per_op_ms(
        self_total.get("serving.cache.get", 0.0) + self_total.get("serving.cache.put", 0.0)
    )
    metrics["serving.engine_self_ms_per_op"] = per_op_ms(self_total.get("serving.engine", 0.0))
    metrics["serving.invalidated_entries_per_write"] = (
        sum(values("serving.cache.invalidate")) / writes if writes else 0.0
    )

    # -- net -----------------------------------------------------------------
    frame_bytes = sum(values("net.frame_encode")) + sum(values("net.frame_decode"))
    metrics["net.frame_encode_ms_per_op"] = per_op_ms(self_total.get("net.frame_encode", 0.0))
    metrics["net.frame_decode_ms_per_op"] = per_op_ms(self_total.get("net.frame_decode", 0.0))
    metrics["net.frame_bytes_per_op"] = frame_bytes / ops_count
    socket_rounds = total.get("net.socket_round", 0.0)
    metrics["net.socket_round_ms_per_op"] = per_op_ms(socket_rounds)
    metrics["net.wire_wait_ms_per_op"] = (
        per_op_ms(socket_rounds - sum(item[2] for item in rounds)) if socket_rounds else 0.0
    )
    metrics["net.wire_over_modeled_bytes"] = (
        frame_bytes / ops_count / traffic if socket_rounds else 0.0
    )
    metrics["net.broker_cpu_ms_per_op"] = (
        min(item.children_cpu for item in untraced) / len(workload.ops) * 1e3
    )
    metrics["net.fragments_shipped"] = sum(values("net.send", range(len(spans))))

    # -- reconciliation: what of an op's latency no layer accounts for -----------
    ops = [i for i in in_pass if spans[i][NAME] == OP_SPAN]
    batches = _own_batches(spans, ops)
    children: Dict[int, List[int]] = {}
    for i in in_pass:
        if spans[i][PARENT] in batches:
            children.setdefault(spans[i][PARENT], []).append(i)
    waits = []
    unaccounted = sum(own[index] for index in ops)
    for index, batch in batches.items():
        # The request was on the wire once the op's last span before the
        # batch (the client-side frame encode) had closed.
        sent = max(
            (
                spans[i][END]
                for i in children.get(index, ())
                if spans[i][END] <= spans[batch][START]
            ),
            default=spans[index][START],
        )
        waits.append(spans[batch][START] - sent)
        unaccounted -= waits[-1] + spans[batch][END] - spans[batch][START]
    mean_latency = total.get(OP_SPAN, 0.0) / ops_count
    metrics["net.admission_wait_ms_p50"] = _p50_ms(waits)
    metrics["bench.residual_ms_per_op"] = per_op_ms(unaccounted)
    metrics["bench.residual_pct"] = unaccounted / ops_count / mean_latency * 100.0
    if unaccounted / ops_count > RESIDUAL_LIMIT * mean_latency:
        failures.append(
            f"trace: {metrics['bench.residual_pct']:.1f}% of mean latency is in no layer "
            f"(limit {RESIDUAL_LIMIT:.0%})"
        )

    # -- validity of the run ---------------------------------------------------
    throughputs = [item.throughput for item in untraced]
    callers = len(workload.callers)
    end_to_end = timing.best_of(untraced, callers)
    best_untraced = end_to_end["throughput_ops_s"]
    best_traced = timing.best_of(traced, callers)["throughput_ops_s"]
    metrics["bench.host_slowdown"] = end_to_end["host_slowdown"]
    everything = list(untraced) + list(traced)
    metrics["bench.tracing_overhead_pct"] = (best_untraced - best_traced) / best_untraced * 100.0
    metrics["bench.steal_share"] = statistics.fmean(item.steal_share for item in everything)
    metrics["bench.quiet_passes"] = sum(1 for item in everything if item.quiet)
    metrics["bench.pass_spread_pct"] = (
        (max(throughputs) - statistics.median(throughputs)) / max(throughputs) * 100.0
    )
    metrics.update(workload.counters())

    # -- self-test -------------------------------------------------------------
    fired = {span[NAME] for span in spans}
    for name in EXPECTED[workload.name]:
        if name not in fired:
            failures.append(f"trace: span {name} never fired on {workload.name}")
    strays = sum(
        1 for i in in_pass if spans[i][PARENT] >= 0 and spans[i][OP] != spans[spans[i][PARENT]][OP]
    )
    if strays:
        failures.append(f"trace: {strays} spans carry another op_id than their parent")
    if len(ops) != ops_count:
        failures.append(f"trace: {len(ops)} op spans for {ops_count} ops")
    return metrics, failures
