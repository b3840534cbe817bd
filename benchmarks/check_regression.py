#!/usr/bin/env python3
"""CI benchmark-regression gate: compare bench runs against the baseline.

Usage::

    python -m repro.bench workload --queries 100 --seed 0 --json BENCH_pr.json
    python -m repro.bench partition --seed 0 --json BENCH_partition.json
    python benchmarks/check_regression.py BENCH_pr.json BENCH_partition.json \
        benchmarks/baseline.json --only workload --only partition

The last path is the committed baseline; the others are bench JSONs of the
current run, merged by experiment id.  EXPERIMENTS.md lists the bench
command CI runs for every gated experiment.

An experiment is gated iff the baseline carries it and ``--only``
(repeatable; default: all) admits it; a gated experiment missing from
every current file is bad input.  All checks live in one table,
:data:`GATES`: per experiment, its row-key columns and a list of
:class:`Check`, each with a ``where`` row filter, a ``why`` phrase that
goes verbatim into its failure message, and one of seven kinds.  Against
the committed baseline (selected baseline rows vs the current rows with
the same key; a missing one is the ``present`` check's to report):

* ``exact`` — equal values; ``ceiling`` — ``current <= baseline``;
* ``scaled`` — ``current <= / >= baseline x factor``.  A ``<=`` factor in
  [1, 2) is a symmetric band (:data:`TOLERANCE` on the modeled costs): a
  run better than its lower edge passes but suggests a baseline refresh.

Within the current run:

* ``bound`` — a column against a constant or a function of its row;
* ``same`` — each selected row equals its group's reference row;
* ``wins`` — per group, each selected row beats the reference row, in
  every group or in ``at_least`` of them;
* ``present`` — every selected baseline row, or every ``require``-d value
  combination, exists (a dropped cell must not pass vacuously).

Modeled quantities (traffic, visits, |Vf|, supersteps, answers) are
bit-reproducible, so most checks are exact; measured wall-clock columns
are gated only as the loose ratios the table names.  Exit status 0 =
pass, 1 = regression, 2 = bad input (an unreadable JSON, a missing
experiment, a malformed row).  The Markdown report is printed and
appended to ``$GITHUB_STEP_SUMMARY`` when set.
"""

import argparse
import itertools
import json
import operator
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, NoReturn, Optional, Sequence, Tuple

Row = Dict[str, object]
Key = Tuple[str, ...]

#: Allowed relative growth of a modeled cost column (the ``scaled`` band).
TOLERANCE = 0.25
#: Deterministic modeled costs (lower is better), tolerance-compared.
COST_METRICS = ("traffic_KB", "network_ms", "visits")
#: Deterministic columns that must not depend on backend or kernel.
IDENTITY_METRICS = ("answers", "total_visits", "traffic_KB", "messages", "supersteps")

#: Comparison operators ``bound``/``scaled``/``wins`` checks may name.
OPS: Dict[str, Callable[[object, object], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">=": operator.ge,
    "==": operator.eq,
    "startswith": lambda value, prefix: str(value).startswith(str(prefix)),
    # "a/b" sweeps cover "a" but not "a/c": every required name must appear
    "covers": lambda value, names: set(str(names).split("/")) <= set(str(value).split("/")),
}


def rows_with(**columns: object) -> Callable[[Row], bool]:
    """Row filter: each named column holds the value (or one of a tuple's)."""
    wanted = {
        name: {str(v) for v in (values if isinstance(values, tuple) else (values,))}
        for name, values in columns.items()
    }
    return lambda row: all(str(row.get(name)) in allowed for name, allowed in wanted.items())


def col(name: str, factor: float = 1.0) -> Callable[[Row], float]:
    """A limit or factor read from another column of the same row."""

    def value(row: Row) -> float:
        return factor * _num(row, name)

    value.__name__ = name if factor == 1.0 else f"{factor:g}x {name}"
    return value


@dataclass(frozen=True)
class Check:
    """One row of the gate table; the module docstring defines the kinds."""

    kind: str
    metrics: Tuple[str, ...]
    why: str
    where: Callable[[Row], bool] = rows_with()
    op: str = "<="
    #: bound: a constant, or a function of the row (:func:`col`).
    limit: object = None
    #: scaled: multiplier on the baseline; wins: on the reference (or :func:`col`).
    factor: object = 1.0
    #: same/wins/present: the columns one group of rows shares.
    group: Tuple[str, ...] = ()
    #: same/wins: the group's reference row (same: the group's first if None).
    ref: Optional[Dict[str, str]] = None
    #: present: required value combinations, per group (None: baseline rows).
    require: Optional[Dict[str, Tuple[str, ...]]] = None
    #: wins: groups that must win (None: every group).
    at_least: Optional[int] = None


class Gate(NamedTuple):
    """One experiment's row-key columns and its checks."""

    key: Tuple[str, ...]
    checks: List[Check]


def refinements_x_budget(row: Row) -> float:
    """Move ceiling of the drift-triggered refinement: budget per refinement."""
    return _num(row, "refinements") * _num(row, "budget")


def _at_least_4_sessions(row: Row) -> bool:
    """sessions-S sweep rows with S >= 4 (where batching must pay)."""
    return isinstance(row.get("sessions"), int) and row["sessions"] >= 4


COST_WHY = "modeled cost regressed past the tolerance band (deterministic quantities)"
DRIFT_WHY = "the drift-triggered refinement broke its declared envelope (deterministic)"
REMAP_WHY = "the batched session remap did not dedupe shared per-fragment work (deterministic)"
STALE_WHY = (
    "drifted from the committed baseline (deterministic quantities — regenerate "
    "benchmarks/baseline.json only for an intentional cost-model change)"
)
STATIC = rows_with(mode="static")

GATES: Dict[str, Gate] = {
    # The pinned 100-query zipf serving workload: the modeled costs of both
    # modes, plus the serving layer's acceptance bar on the batch row.
    "workload": Gate(("mode",), [
        Check("present", (), "a workload mode dropped out of the run"),
        Check("scaled", COST_METRICS, COST_WHY, factor=1 + TOLERANCE),
        Check("bound", ("hit_rate",), "the batch engine's site-result cache stopped "
              "hitting", where=rows_with(mode="batch"), op=">=", limit=0.5),
        Check("bound", ("speedup",), "batching lost its modeled amortized speedup",
              where=rows_with(mode="batch"), op=">=", limit=1.5),
    ]),
    # Partition quality (DESIGN.md §7): |Vf| is fully deterministic, so the
    # boundary-aware partitioners get exact ceilings, and refined must beat
    # hash on both |Vf| and modeled disReach traffic on >= 2 pinned datasets.
    "partition": Gate(("dataset", "partitioner", "algorithm"), [
        Check("present", (), "a partition sweep cell dropped out of the run"),
        Check("ceiling", ("Vf",), "exceeds the committed ceiling (boundary counts are "
              "deterministic — a genuine refinement regression)",
              where=rows_with(partitioner=("refined", "multilevel"))),
        Check("wins", ("Vf", "traffic_KB"), "refined beats hash on too few datasets "
              "(the bar: strictly lower Vf AND modeled traffic)",
              where=rows_with(partitioner="refined", algorithm="disReach"), op="<",
              group=("dataset",), ref={"partitioner": "hash", "algorithm": "disReach"},
              at_least=2),
    ]),
    # Dynamic graphs (DESIGN.md §8): the drift-refine scenario fired, kept its
    # move budget and landed within vf_tol of an offline refined run; the
    # scenarios' modeled costs are tolerance-compared like the workload's.
    "mutation": Gate(("scenario",), [
        Check("present", (), "a scenario dropped out of the run; the sessions-S rows "
              "come from `python -m repro.bench mutation --sessions 8 --json <file>`"),
        Check("scaled", COST_METRICS, COST_WHY,
              where=rows_with(scenario=("static", "drift-refine")), factor=1 + TOLERANCE),
        Check("bound", ("refinements",), DRIFT_WHY, where=rows_with(scenario="drift-refine"),
              op=">=", limit=1),
        Check("bound", ("moves",), DRIFT_WHY, where=rows_with(scenario="drift-refine"),
              limit=refinements_x_budget),
        Check("bound", ("vf_ratio",), DRIFT_WHY, where=rows_with(scenario="drift-refine"),
              limit=col("vf_tol")),
        # Session-remap batching: at S >= 4 the batched remap must have
        # deduplicated measurably.  The sessions-1 row anchors the "strictly
        # below S x" comparison: its remap_visits are what one standing
        # query's remaps cost, so a batched row must land under S times it.
        Check("bound", ("refinements", "remap_visits_saved"), REMAP_WHY,
              where=_at_least_4_sessions, op=">=", limit=1),
        Check("wins", ("remap_visits",), "remap_visits < S x per-session broken — "
              + REMAP_WHY, where=_at_least_4_sessions, op="<", factor=col("sessions"),
              ref={"scenario": "sessions-1"}),
    ]),
    # The sharded Pregel baselines (DESIGN.md §5): everything but wall time
    # is deterministic, so both identities are exact.
    "baselines": Gate(("algorithm", "backend"), [
        Check("present", (), "a backend dropped out of the run"),
        Check("same", IDENTITY_METRICS, "cross-backend identity broken",
              group=("algorithm",), ref={"backend": "sequential"}),
        Check("exact", IDENTITY_METRICS, "sequential modeled stats " + STALE_WHY,
              where=rows_with(backend="sequential")),
    ]),
    # The local-evaluation kernel (DESIGN.md §9): the numpy kernel is
    # required on every backend, and the sweep may change how a fragment
    # is evaluated, never what the cost model observes; rows of any other
    # kernel are compared when present, never required.
    "kernels": Gate(("dataset", "mode", "kernel", "backend"), [
        Check("present", (), "a kernel leg dropped out of the run",
              where=rows_with(mode="evaluate"), group=("dataset", "mode"),
              require={"kernel": ("numpy",),
                       "backend": ("sequential", "socket")}),
        Check("exact", IDENTITY_METRICS, "numpy/sequential modeled stats " + STALE_WHY,
              where=rows_with(mode="evaluate", kernel="numpy", backend="sequential")),
        Check("same", IDENTITY_METRICS, "kernel identity broken",
              where=rows_with(mode="evaluate"), group=("dataset",),
              ref={"kernel": "numpy", "backend": "sequential", "mode": "evaluate"}),
    ]),
    # Networked serving (DESIGN.md §10).  answers_match is deterministic
    # (every TCP-served answer vs direct sequential evaluation).  QPS and p99
    # are measured (wall clock across TCP + thread scheduling), so the floor
    # and ceiling are deliberately loose: they catch a serving path falling
    # off a cliff (serialization in the batcher, queued queries no longer
    # batched), not machine-to-machine jitter.
    "serving": Gate(("mode",), [
        Check("present", (), "run `python -m repro.bench serving --json <file>`"),
        Check("bound", ("answers_match",), "TCP-served answers diverged from direct "
              "sequential evaluation", op="==", limit=1),
        Check("scaled", ("qps",), "the serving path lost its throughput",
              where=rows_with(mode="serving"), op=">=", factor=0.15),
        Check("scaled", ("p99_ms",), "admission-to-reply latency blew up",
              where=rows_with(mode="serving"), factor=8.0),
    ]),
    # Shortcut precompute (DESIGN.md §13).  The bench asserts bit-identity
    # across every backend before emitting a row; build_ms/time_ms are
    # measured and never compared.
    "shortcuts": Gate(("dataset", "mode", "algorithm"), [
        Check("present", (), "a sweep cell was dropped or silently skipped"),
        Check("bound", ("status",), "a shortcut sweep cell degraded to a skip "
              "(backends must never drop silently)", op="==", limit="ok"),
        Check("bound", ("backends",), "a backend is missing from the identity sweep",
              op="covers", limit="sequential/socket"),
        # All superstep counts are deterministic; the tightest pinned cell
        # (reach on the tall grid) sits at 17x, the path row at ~128x.
        # longcycle rows are identity-checked but not floored — they exist
        # to pin the cyclic-graph behavior.
        Check("bound", ("reduction",), "the precompute stopped paying on a pinned "
              "high-diameter dataset", where=rows_with(
                  status="ok", dataset=("path", "grid"), mode="reach"),
              op=">=", limit=4.0),
        Check("exact", ("answers", "supersteps", "shortcut_edges", "shortcut_msgs"),
              STALE_WHY.replace("cost-model", "shortcut-construction")),
    ]),
    # The offline real-graph harness (DESIGN.md §11, `bench snap --fixture`).
    "snap": Gate(("dataset", "mode", "partitioner", "algorithm", "backend", "kernel"), [
        Check("present", (), "a sweep cell was dropped or silently skipped"),
        Check("bound", ("env_ok",), "realized modeled traffic escaped the Theorem 1-2 "
              "envelope", where=STATIC, op="==", limit=1),
        Check("same", ("answers",), "partition/backend/kernel agnosticism broken",
              where=STATIC, group=("dataset", "algorithm")),
        Check("wins", ("Vf", "traffic_KB"), "refined does not beat-or-tie hash — the "
              "paper's partition-quality ordering broke on a real edge list",
              where=rows_with(mode="static", partitioner="refined", algorithm="disReach"),
              group=("dataset", "backend", "kernel"),
              ref={"mode": "static", "partitioner": "hash", "algorithm": "disReach"}),
        Check("bound", ("replay_match",), "the edge-arrival replay diverged from the "
              "static prefix load", where=rows_with(mode="replay"), op="==", limit=1),
        Check("bound", ("refines",), "no drift-triggered refinement fired during the "
              "replay", where=rows_with(mode="replay-monitor"), op=">=", limit=1),
        Check("ceiling", ("Vf",), "exceeds the committed ceiling (deterministic)",
              where=STATIC),
        Check("exact", ("answers",), "answers differ from the baseline's (deterministic "
              "workload)", where=STATIC),
        Check("scaled", COST_METRICS, COST_WHY, where=STATIC, factor=1 + TOLERANCE),
    ]),
}


def bad_input(message: str) -> NoReturn:
    """Print ``message`` to stderr and exit 2 (``str()`` of the exit is the message)."""
    print(f"error: {message}", file=sys.stderr)
    exit_ = SystemExit(message)
    exit_.code = 2
    raise exit_


def load_payload(path: Path) -> Dict[str, dict]:
    """Read one bench JSON (experiment id -> {columns, rows, ...})."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        bad_input(f"cannot read {path}: {exc}")


def rows_by_key(payload: Dict[str, dict], experiment: str) -> Optional[Dict[Key, Row]]:
    """An experiment's rows keyed by its :data:`GATES` key columns, if present."""
    block = payload.get(experiment)
    if not isinstance(block, dict) or "rows" not in block:
        return None
    return {_values(row, GATES[experiment].key): row for row in block["rows"]}


def _values(row: Row, columns: Sequence[str]) -> Key:
    """A row's values of ``columns`` as strings (its key, or its group)."""
    return tuple(str(row.get(name)) for name in columns)


def _num(row: Row, metric: str) -> float:
    """A numeric cell (KeyError/TypeError mark the row malformed)."""
    value = row[metric]
    if not isinstance(value, (int, float)):
        raise TypeError(f"{metric!r} is {value!r}, not a number")
    return value


def _fmt(value: object) -> str:
    """A report cell: floats as ``%g``, everything else as text."""
    if callable(value):
        return value.__name__
    return f"{value:g}" if isinstance(value, float) else str(value)


def _describe(ref: Dict[str, str]) -> str:
    """``{kernel: numpy, backend: sequential, mode: evaluate}`` ->
    ``numpy/sequential evaluate`` (``mode`` names the row type)."""
    names = "/".join(v for k, v in ref.items() if k != "mode")
    return f"{names} {ref['mode']}" if "mode" in ref else names


class Report:
    """The Markdown report rows, failures and refresh suggestions of a run."""

    def __init__(self) -> None:
        self.rows = [
            "| row | check | baseline | current | limit | status |",
            "| --- | --- | ---: | ---: | ---: | --- |",
        ]
        self.failures: List[str] = []
        self.improvements: List[str] = []

    def add(self, label: str, what: str, base: object, cur: object, limit: object,
            ok: Optional[bool], failure: Optional[str] = None) -> None:
        """One report row; ``ok=None`` is informational (never a failure)."""
        status = {True: "ok", False: "FAIL", None: "info"}[ok]
        self.rows.append(
            f"| {label} | {what} | {_fmt(base)} | {_fmt(cur)} | {_fmt(limit)} | {status} |"
        )
        if ok is False and failure:
            self.failures.append(failure)


@dataclass
class Run:
    """One gated experiment: both sides' rows and the shared report."""

    experiment: str
    key: Tuple[str, ...]
    current: Dict[Key, Row]
    baseline: Dict[Key, Row]
    origins: str
    report: Report

    def label(self, key: Key) -> str:
        """``experiment/key/parts`` with absent (``None``) parts dropped."""
        return "/".join([self.experiment] + [part for part in key if part != "None"])

    @contextmanager
    def malformed(self, label: str) -> Iterator[None]:
        """Turn a missing or non-numeric cell into bad input naming the row."""
        try:
            yield
        except (KeyError, TypeError) as exc:
            bad_input(f"row {label} is malformed ({exc}); inputs: {self.origins}")

    def groups(self, check: Check, sides: Sequence[Dict[Key, Row]]) -> Dict[Key, List[Row]]:
        """Selected rows by group, over ``sides``; lists hold current rows."""
        groups: Dict[Key, List[Row]] = {}
        for side in sides:
            for row in side.values():
                if check.where(row):
                    members = groups.setdefault(_values(row, check.group), [])
                    if side is self.current:
                        members.append(row)
        return groups


def _against_baseline(run: Run, check: Check) -> None:
    """exact / ceiling / scaled: each selected baseline row vs its twin."""
    for key, base_row in run.baseline.items():
        cur_row = run.current.get(key)
        if cur_row is None or not check.where(base_row):
            continue
        label = run.label(key)
        for metric in check.metrics:
            path = f"{label}/{metric}"
            if check.kind == "exact":
                base, cur = base_row.get(metric), cur_row.get(metric)
                run.report.add(label, f"{metric} (exact)", base, cur, "-", cur == base,
                               f"{path}: {cur!r} != baseline {base!r} — {check.why}")
                continue
            with run.malformed(label):
                base, cur = _num(base_row, metric), _num(cur_row, metric)
            # A ceiling is the zero-width band: <= 1x baseline, any drop a refresh.
            op, factor = ("<=", 1.0) if check.kind == "ceiling" else (check.op, check.factor)
            limit = base * factor
            ok = OPS[op](cur, limit)
            what = f"({op} {factor:g}x)" if check.kind == "scaled" else "(ceiling)"
            run.report.add(label, f"{metric} {what}", base, cur, limit, ok,
                           f"{path}: {cur:g} fails {op} {factor:g}x baseline {base:g} "
                           f"(limit {limit:g}) — {check.why}")
            if ok and op == "<=" and 1 <= factor < 2 and cur < base * (2 - factor):
                run.report.improvements.append(
                    f"{path}: {cur:g} is below {2 - factor:g}x baseline {base:g}")


def _bound(run: Run, check: Check) -> None:
    """bound: a column of each selected current row vs its limit."""
    for key, row in run.current.items():
        if not check.where(row):
            continue
        label = run.label(key)
        for metric in check.metrics:
            with run.malformed(label):
                limit = check.limit(row) if callable(check.limit) else check.limit
                value = row.get(metric)
                ok = OPS[check.op](value, limit)
            run.report.add(label, f"{metric} {check.op} {_fmt(check.limit)}", "-", value,
                           limit, ok, f"{label}/{metric}: {_fmt(value)} fails {check.op} "
                           f"{_fmt(limit)} — {check.why}")


def _same(run: Run, check: Check) -> None:
    """same: every selected row of a group equals the group's reference."""
    for group, rows in run.groups(check, (run.baseline, run.current)).items():
        references = [row for row in rows if rows_with(**(check.ref or {}))(row)]
        if not references:
            if check.ref is not None:
                glabel = "/".join((run.experiment,) + group)
                run.report.add(glabel, f"{'/'.join(check.metrics)} (same)",
                               _describe(check.ref), "MISSING", "-", False,
                               f"{glabel}: no {_describe(check.ref)} row in "
                               f"{run.origins} — {check.why}")
            continue
        reference = references[0]
        ref_label = run.label(_values(reference, run.key))
        for row in rows:
            if row is reference:
                continue
            label = run.label(_values(row, run.key))
            differ = [m for m in check.metrics if row.get(m) != reference.get(m)]
            run.report.add(label, f"{'/'.join(check.metrics)} (same)", ref_label,
                           "MISMATCH" if differ else "match", "-", not differ,
                           f"{label}: {', '.join(differ)} diverge from {ref_label} "
                           f"— {check.why}")


def _wins(run: Run, check: Check) -> None:
    """wins: selected rows beat their group's reference row."""
    won = 0
    for group, rows in run.groups(check, (run.current,)).items():
        other = next((row for row in run.current.values()
                      if _values(row, check.group) == group and rows_with(**check.ref)(row)),
                     None)
        if other is None:
            continue  # the entry's `present` check reports a dropped row
        other_label = run.label(_values(other, run.key))
        group_won = True
        for row in rows:
            label = run.label(_values(row, run.key))
            with run.malformed(label):
                factor = check.factor(row) if callable(check.factor) else check.factor
                ok = all(OPS[check.op](_num(row, m), factor * _num(other, m))
                         for m in check.metrics)
            group_won = group_won and ok
            what = f"{'/'.join(check.metrics)} {check.op} {_fmt(check.factor)}x"
            run.report.add(label, what, other_label, "win" if ok else "loss", "-",
                           ok if check.at_least is None else (ok or None),
                           f"{label}: loses to {other_label} on {'/'.join(check.metrics)} "
                           f"— {check.why}")
        won += group_won
    if check.at_least is not None:
        run.report.add(run.experiment, "groups won", "-", won, f">= {check.at_least}",
                       won >= check.at_least, f"{run.experiment}: {won} group(s) won of "
                       f"the required {check.at_least} — {check.why}")


def _present(run: Run, check: Check) -> None:
    """present: every required row exists in the current run."""
    if check.require is None:
        required = [key for key, row in run.baseline.items() if check.where(row)]
    else:
        groups = list(run.groups(check, (run.baseline, run.current))) if check.group else [()]
        required = [
            _values({**dict(zip(check.group, group)), **dict(zip(check.require, combo))},
                    run.key)
            for group in groups
            for combo in itertools.product(*check.require.values())
        ]
    missing = [key for key in required if key not in run.current]
    for key in missing:
        label = run.label(key)
        run.report.add(label, "row present", "yes", "MISSING", "-", False,
                       f"{label}: row missing from {run.origins} — {check.why}")
    what = "rows present" + (f" ({' x '.join(check.require)})" if check.require else "")
    run.report.add(run.experiment, what, len(required), len(required) - len(missing), "-",
                   not missing)


KINDS: Dict[str, Callable[[Run, Check], None]] = {
    "exact": _against_baseline,
    "ceiling": _against_baseline,
    "scaled": _against_baseline,
    "bound": _bound,
    "same": _same,
    "wins": _wins,
    "present": _present,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the gate; see the module docstring for semantics."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths",
        type=Path,
        nargs="+",
        metavar="JSON",
        help="bench JSON(s) of this run followed by the committed baseline "
        "(last path); current files are merged by experiment id",
    )
    parser.add_argument(
        "--only",
        action="append",
        choices=list(GATES),
        metavar="EXPERIMENT",
        help="gate only the named experiment(s) (repeatable; default: every experiment "
        "the baseline carries — for a CI job that runs a subset, e.g. `--only serving`)",
    )
    args = parser.parse_args(argv)
    if len(args.paths) < 2:
        parser.error("need at least one current JSON and the baseline JSON")
    *current_paths, baseline_path = args.paths

    current_payload: Dict[str, dict] = {}
    for path in current_paths:
        payload = load_payload(path)
        duplicated = sorted(set(payload) & set(current_payload))
        if duplicated:
            bad_input(f"experiment(s) {', '.join(duplicated)} appear in more than one current "
                      f"file — ambiguous which run to gate on; pass each experiment's JSON once")
        current_payload.update(payload)
    baseline_payload = load_payload(baseline_path)
    current_origin = ", ".join(str(p) for p in current_paths)

    report = Report()
    gated = []
    for experiment, gate in GATES.items():
        baseline = rows_by_key(baseline_payload, experiment)
        if baseline is None or (args.only and experiment not in args.only):
            continue
        current = rows_by_key(current_payload, experiment)
        if current is None:
            bad_input(f"{baseline_path} carries a {experiment!r} experiment but none of "
                      f"{current_origin} does; run `python -m repro.bench {experiment} "
                      f"--json <file>` (EXPERIMENTS.md lists CI's exact arguments)")
        gated.append(experiment)
        run = Run(experiment, gate.key, current, baseline,
                  f"{current_origin} vs {baseline_path}", report)
        for check in gate.checks:
            KINDS[check.kind](run, check)
    if not gated:
        bad_input(f"nothing to gate: {baseline_path} carries none of "
                  f"{', '.join(args.only or GATES)}")

    print("benchmark regression check:", current_origin, "vs", baseline_path)
    print("\n".join(report.rows))
    if report.improvements:
        print("improvement beyond tolerance — consider refreshing benchmarks/baseline.json:")
        for line in report.improvements:
            print(f"  {line}")
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        verdict = "regression detected" if report.failures else "no regression"
        with open(summary_path, "a", encoding="utf-8") as fh:
            fh.write(f"### Benchmark regression gate — {verdict}\n\n")
            fh.write("\n".join(report.rows) + "\n")
    if report.failures:
        print("REGRESSION:", file=sys.stderr)
        for line in report.failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"ok: {len(report.rows) - 2} checked rows hold for {', '.join(gated)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
