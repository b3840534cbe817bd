"""Experiment harness: run a workload, aggregate the paper's three metrics.

Every experiment in :mod:`repro.bench.experiments` produces an
:class:`ExperimentResult` — a titled table whose rows mirror what the paper
prints (Table 2 rows, figure series points).  The same helpers back the
``python -m repro.bench`` CLI (whose JSON ``benchmarks/check_regression.py``
gates), the shape tests and the tables EXPERIMENTS.md records.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..core.engine import evaluate
from ..core.queries import Query
from ..distributed.cluster import SimulatedCluster


@dataclass
class AggregateMetrics:
    """Means over a query workload for one (algorithm, configuration) cell."""

    algorithm: str
    num_queries: int
    mean_response_seconds: float
    mean_wall_seconds: float
    mean_traffic_bytes: float
    max_visits_per_site: int
    total_visits: int
    positive_fraction: float
    #: Mean modeled communication share of response time (deterministic —
    #: what the partition bench's regression gate compares).
    mean_network_seconds: float = 0.0

    @property
    def mean_traffic_mb(self) -> float:
        """Mean traffic in megabytes (the unit of the paper's Fig. 11(f))."""
        return self.mean_traffic_bytes / 1e6


def run_workload(
    cluster: SimulatedCluster,
    queries: Sequence[Query],
    algorithm: str,
) -> AggregateMetrics:
    """Evaluate every query with ``algorithm`` and average the metrics."""
    if not queries:
        raise ValueError("run_workload needs at least one query")
    responses: List[float] = []
    walls: List[float] = []
    traffic: List[float] = []
    network: List[float] = []
    max_visits = 0
    total_visits = 0
    positives = 0
    for query in queries:
        result = evaluate(cluster, query, algorithm)
        responses.append(result.stats.response_seconds)
        walls.append(result.stats.wall_seconds)
        traffic.append(result.stats.traffic_bytes)
        network.append(result.stats.network_seconds)
        max_visits = max(max_visits, result.stats.max_visits_per_site)
        total_visits += result.stats.total_visits
        positives += int(result.answer)
    return AggregateMetrics(
        algorithm=algorithm,
        num_queries=len(queries),
        mean_response_seconds=statistics.fmean(responses),
        mean_wall_seconds=statistics.fmean(walls),
        mean_traffic_bytes=statistics.fmean(traffic),
        max_visits_per_site=max_visits,
        total_visits=total_visits,
        positive_fraction=positives / len(queries),
        mean_network_seconds=statistics.fmean(network),
    )


@dataclass
class ExperimentResult:
    """One reproduced table or figure."""

    experiment: str  # e.g. "table2", "fig11a"
    title: str
    columns: List[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: str = ""

    def add_row(self, **values: object) -> None:
        self.rows.append(values)

    def column(self, name: str) -> List[object]:
        return [row.get(name) for row in self.rows]

    def format_table(self) -> str:
        """Fixed-width text table (what the CLI prints)."""
        header = [str(c) for c in self.columns]
        body = [
            [_fmt(row.get(c)) for c in self.columns]
            for row in self.rows
        ]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [f"== {self.experiment}: {self.title} =="]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for r in body:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        out = [",".join(str(c) for c in self.columns)]
        for row in self.rows:
            out.append(",".join(_fmt(row.get(c)) for c in self.columns))
        return "\n".join(out) + "\n"


def _fmt(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.4g}"
    return str(value)
