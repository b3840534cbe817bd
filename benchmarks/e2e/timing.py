"""Clocks of the benchmark: passes, percentiles, process-tree CPU, host steal.

Noise on a shared vCPU only ever adds time, and passes replay the same ops
from the same state, so a run keeps, for every op, the fastest time any pass
saw (:func:`best_of`); the ``steal`` column of ``/proc/stat`` tells a reader
when the host, not the code, moved a number.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy

_TICK = os.sysconf("SC_CLK_TCK")
NPROC = os.cpu_count() or 1

#: Ops each caller answers between two calibration stops, and slices per stop.
BLOCK_OPS = 20
SLICES_PER_BLOCK = 2
#: Seconds a calibration slice takes on the reference host: timing metrics are
#: reported as this host would have measured them (it is the 2-vCPU guest the
#: baseline was taken on, in a quiet minute).
CALIBRATION_REFERENCE = 1.0e-3
_CALIBRATION_BITS = numpy.arange(2048, dtype=numpy.uint64)
_CALIBRATION_ROWS = numpy.arange(0, 2048, 37)

#: A pass whose steal exceeds this share of ``wall x nproc`` is not quiet.
QUIET_STEAL_SHARE = 0.03
#: Passes a run wants quiet before it stops adding passes.
QUIET_PASSES_WANTED = 3
#: Passes added beyond the time budget while too few were quiet.
MAX_EXTRA_PASSES = 3


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``values`` by nearest rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q - 1e-9))
    return ordered[rank - 1]


def steal_ticks() -> int:
    """Host-stolen CPU ticks since boot, summed over CPUs (0 if unreadable)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0
    return int(fields[8]) if len(fields) > 8 else 0


def child_pids(pid: Optional[int] = None) -> List[int]:
    """Live descendants of ``pid`` (default: this process)."""
    pid = os.getpid() if pid is None else pid
    found: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                children = [int(token) for token in handle.read().split()]
        except OSError:
            continue
        for child in children:
            found.append(child)
            found.extend(child_pids(child))
    return found


def _proc_cpu_seconds(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            tail = handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return 0.0
    return (int(tail[11]) + int(tail[12])) / _TICK  # utime + stime


def children_cpu_seconds() -> float:
    """CPU seconds (user + system) of the live child processes so far."""
    return sum(_proc_cpu_seconds(pid) for pid in child_pids())


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live children, in MB."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in child_pids():
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


@dataclass
class PassResult:
    """What one replay of the op sequence measured."""

    wall: float
    cpu: float
    children_cpu: float
    steal_share: float
    start: float
    end: float
    latencies: List[float]
    results: List[Any]
    calibration: List[float]

    @property
    def quiet(self) -> bool:
        """Whether the host left this pass alone."""
        return self.steal_share <= QUIET_STEAL_SHARE

    @property
    def throughput(self) -> float:
        """Ops per second of wall time of this pass alone."""
        return len(self.latencies) / self.wall


def calibrate() -> float:
    """Seconds this host needs now for one fixed slice of work (about 1 ms).

    Dictionary and packed-bitset work like the system's own, on a working set
    that fits the first-level cache, so that the time says how fast the host
    runs and not what the measured code left in the caches (between the
    driver of ``oneshot-cold`` and that of ``socket-cold`` it differs by 3 %).
    """
    start = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(6000):
        table[i & 255] = (i * 7) ^ table.get((i * 3) & 255, 0)
    bits = _CALIBRATION_BITS
    for _ in range(60):
        bits = (bits * 3 + 1) | (bits >> 1)
        numpy.bitwise_or.reduceat(bits, _CALIBRATION_ROWS)
    return time.perf_counter() - start


def host_slowdown(quiet_slices: Sequence[float]) -> float:
    """How much slower than the reference host these undisturbed slices ran."""
    return statistics.fmean(quiet_slices) / CALIBRATION_REFERENCE


def _call_loop(
    execute: Callable[[Any], Any],
    ops: Sequence[Any],
    indices: Sequence[int],
    latencies: List[float],
    results: List[Any],
    set_op: Optional[Callable[[int], None]],
    op_base: int,
) -> None:
    """One closed-loop caller: next op only after the previous one answered."""
    clock = time.perf_counter
    for index in indices:
        if set_op is not None:
            set_op(op_base + index)
        start = clock()
        try:
            result = execute(ops[index])
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            result = exc
        latencies[index] = clock() - start
        results[index] = result


def run_pass(
    callers: Sequence[Callable[[Any], Any]],
    ops: Sequence[Any],
    set_op: Optional[Callable[[int], None]] = None,
    op_base: int = 0,
) -> PassResult:
    """Replay ``ops`` once through the closed-loop ``callers``.

    The ops are cut into blocks of ``BLOCK_OPS`` per caller; inside a block
    they are dealt round-robin, one caller on this thread or several on a
    thread each.  Between blocks, with every caller idle, this thread times
    calibration slices — the host's speed sampled through the pass.  With a
    tracer, ``set_op`` receives each op's id (``op_base`` + position) on the
    calling thread just before the op's clock starts.
    """
    count = len(callers)
    latencies = [0.0] * len(ops)
    results: List[Any] = [None] * len(ops)
    calibration: List[float] = []
    gc.collect()
    steal_before = steal_ticks()
    children_before = children_cpu_seconds()
    cpu_before = time.process_time()
    start = time.perf_counter()
    for block in range(0, len(ops), BLOCK_OPS * count):
        block_end = min(len(ops), block + BLOCK_OPS * count)
        arguments = [
            (callers[i], ops, range(block + i, block_end, count), latencies, results)
            + (set_op, op_base)
            for i in range(count)
        ]
        if count == 1:
            _call_loop(*arguments[0])
        else:
            threads = [threading.Thread(target=_call_loop, args=args) for args in arguments]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        calibrate()  # untimed: this thread may just have woken from a join
        calibration.extend(calibrate() for _ in range(SLICES_PER_BLOCK))
    end = time.perf_counter()
    own_cpu = time.process_time() - cpu_before
    children_cpu = children_cpu_seconds() - children_before
    stolen = (steal_ticks() - steal_before) / _TICK
    return PassResult(
        wall=end - start,
        cpu=own_cpu + children_cpu,
        children_cpu=children_cpu,
        steal_share=stolen / ((end - start) * NPROC),
        start=start,
        end=end,
        latencies=latencies,
        results=results,
        calibration=calibration,
    )


def run_passes(run_one: Callable[[int], PassResult], seconds: float) -> List[PassResult]:
    """Replay passes for about ``seconds``; add some while the host is noisy.

    ``run_one(index)`` runs one pass.  Passes repeat while the budget has room
    for at least half of another; after that, up to ``MAX_EXTRA_PASSES`` more
    run while fewer than ``QUIET_PASSES_WANTED`` were quiet, never past twice
    the budget.
    """
    passes: List[PassResult] = []
    extra = 0
    began = time.perf_counter()
    while True:
        passes.append(run_one(len(passes)))
        elapsed = time.perf_counter() - began
        if elapsed + 0.5 * elapsed / len(passes) <= seconds:
            continue
        quiet = sum(1 for item in passes if item.quiet)
        if quiet >= QUIET_PASSES_WANTED or extra == MAX_EXTRA_PASSES or elapsed >= 2 * seconds:
            return passes
        extra += 1


def best_latencies(passes: Sequence[PassResult]) -> List[float]:
    """Per op, the fastest latency any pass measured for it."""
    return [min(times) for times in zip(*(item.latencies for item in passes))]


def best_of(passes: Sequence[PassResult], callers: int) -> Dict[str, float]:
    """The run's timing metrics: per-op best latencies at reference host speed.

    A burst of host noise slows the ops it lands on, not a whole pass, so the
    minimum is taken op by op.  Throughput is what the closed loop would then
    reach: each caller needs the sum of its ops' times, and the slowest caller
    ends the pass.  A slow minute of the host slows every pass of a run alike;
    the calibration slices, reduced the same way (per position, the fastest
    over the passes), measure by how much, and every time is divided by it.
    CPU cannot be read per op (the brokers' counters tick at 10 ms); it is
    taken per pass as a share of the pass's wall time — a slow host inflates
    both alike — and the median share is scaled by the time per op.
    """
    best = best_latencies(passes)
    slowdown = host_slowdown(
        [min(times) for times in zip(*(item.calibration for item in passes))]
    )
    slowest_caller = max(sum(best[index::callers]) for index in range(callers))
    throughput = len(best) / slowest_caller * slowdown
    busy_cores = statistics.median(
        (item.cpu - sum(item.calibration)) / (item.wall - sum(item.calibration))
        for item in passes
    )
    return {
        "throughput_ops_s": throughput,
        "latency_p50_ms": nearest_rank(best, 0.50) * 1e3 / slowdown,
        "latency_p95_ms": nearest_rank(best, 0.95) * 1e3 / slowdown,
        "cpu_ms_per_op": busy_cores / throughput * 1e3,
        "host_slowdown": slowdown,
    }
