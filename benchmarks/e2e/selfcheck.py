"""``run.py --selfcheck``: does the benchmark agree with itself?

Runs two sets of runs of the current checkout, alternating workloads so that
a slow minute of the host spreads over all of them, and compares the sets the
way a later change will be compared with its parent: per end-to-end metric,
the median of each set and the relative gap between them, beside the bound of
``BENCHMARK.json``.  It also prints each set's spread over seeds (distance
between the quartiles as a share of the median) and checks that the modeled
metrics repeat bit for bit on the same seed, and that ``socket-cold`` and
``oneshot-cold`` model the same traffic.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent

#: Metrics computed from modeled counts: the same seed must give the same value.
EXACT = ("traffic_bytes_per_query", "max_visits_per_site")
SETS = 2


def _one_run(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        "0",
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        sys.exit(f"selfcheck: {' '.join(command)} exited {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _spread(values: List[float]) -> float:
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / median if median else 0.0


def main(spec: Dict[str, Any], runs: int) -> int:
    """Run the two sets, print the table, write ``out/selfcheck.json``."""
    workloads = [entry["name"] for entry in spec["workloads"]]
    seconds = spec["run_seconds"]
    began = time.perf_counter()
    # values[set][workload][metric] -> one value per seed
    values: List[Dict[str, Dict[str, List[float]]]] = []
    for set_index in range(SETS):
        values.append({name: {} for name in workloads})
        for seed in range(1, runs + 1):
            for name in workloads:
                result = _one_run(name, seed, seconds)
                for metric, entry in result["metrics"].items():
                    values[set_index][name].setdefault(metric, []).append(entry["value"])
                print(
                    f"set {set_index + 1} seed {seed} {name}: "
                    f"{time.perf_counter() - began:.0f} s elapsed",
                    file=sys.stderr,
                )

    rows = []
    problems = []
    print(
        f"{'workload':13s} {'metric':24s} {'median 1':>12s} {'median 2':>12s} "
        f"{'gap':>7s} {'spread 1':>9s} {'spread 2':>9s} {'bound':>6s}"
    )
    for name in workloads:
        for entry in spec["end_to_end"]:
            metric, bound = entry["name"], entry["bound"]
            first, second = (values[i][name][metric] for i in range(SETS))
            medians = [statistics.median(first), statistics.median(second)]
            sign = 1 if entry["better"] == "lower" else -1
            gap = sign * (medians[1] - medians[0]) / medians[0]
            spreads = [_spread(first), _spread(second)]
            rows.append(
                {
                    "workload": name,
                    "metric": metric,
                    "medians": medians,
                    "gap": gap,
                    "spreads": spreads,
                    "bound": bound,
                    "values": [first, second],
                }
            )
            print(
                f"{name:13s} {metric:24s} {medians[0]:12.4f} {medians[1]:12.4f} "
                f"{gap:+7.1%} {spreads[0]:9.1%} {spreads[1]:9.1%} {bound:6.2f}"
            )
            if gap > bound:
                problems.append(f"{name} {metric}: second set worse by {gap:.1%} > {bound}")
            if metric != "setup_s" and max(spreads) > bound:
                problems.append(f"{name} {metric}: spread {max(spreads):.1%} > {bound}")
            if metric in EXACT and first != second:
                problems.append(f"{name} {metric}: not repeatable on equal seeds")
    for metric in EXACT:
        if values[0]["oneshot-cold"][metric] != values[0]["socket-cold"][metric]:
            problems.append(f"{metric} differs between oneshot-cold and socket-cold")

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with open(out / "selfcheck.json", "w") as handle:
        json.dump({"runs_per_set": runs, "rows": rows, "problems": problems}, handle, indent=1)
    for problem in problems:
        print(f"SELFCHECK FAILED: {problem}")
    print(f"selfcheck: {len(problems)} problems, {time.perf_counter() - began:.0f} s")
    return 1 if problems else 0
