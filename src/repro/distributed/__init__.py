"""Simulated distributed runtime: sites, coordinator, traffic/visit accounting.

Parallel phases execute on a pluggable backend (:mod:`.executors`):
``sequential`` (default, deterministic) or ``socket`` (separate OS
processes over TCP; :mod:`repro.net`).
"""

from .cluster import ParallelPhase, Run, SimulatedCluster
from .executors import (
    EXECUTORS,
    ExecutorBackend,
    SequentialExecutor,
    SiteTask,
    SocketExecutor,
    TaskResult,
    default_executor_name,
    get_executor,
    resolve_executor,
    set_default_executor,
)
from .messages import COORDINATOR, Message, MessageKind, payload_size
from .site import Site
from .stats import ExecutionStats, PhaseTimer, WorkloadStats, stopwatch

__all__ = [
    "COORDINATOR",
    "EXECUTORS",
    "ExecutionStats",
    "ExecutorBackend",
    "Message",
    "MessageKind",
    "ParallelPhase",
    "PhaseTimer",
    "Run",
    "SequentialExecutor",
    "SimulatedCluster",
    "Site",
    "SiteTask",
    "SocketExecutor",
    "TaskResult",
    "WorkloadStats",
    "default_executor_name",
    "get_executor",
    "payload_size",
    "resolve_executor",
    "set_default_executor",
    "stopwatch",
]
