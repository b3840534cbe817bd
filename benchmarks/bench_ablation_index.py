"""Ablation (Section 3 remark): the local reachability engine of localEval.

Compares the default shared bitmask sweep (``none``) against every
registered reachability oracle on the Amazon analog.  Indexes are built
once per fragment by the per-fragment store (the first round pays it) —
the point of the paper's remark is that the framework is agnostic to this
choice.
"""

import pytest

from conftest import cluster_for, dataset_key, reach_queries
from repro.core.reachability import dis_reach
from repro.index import ORACLE_NAMES


@pytest.mark.parametrize("engine", ORACLE_NAMES)
def test_ablation_index(benchmark, engine):
    key = dataset_key("amazon", 0.005)
    cluster = cluster_for(key, 4)
    queries = reach_queries(key, count=3, seed=0)

    def run():
        return [dis_reach(cluster, q, oracle=engine).answer for q in queries]

    benchmark.group = "ablation:index"
    answers = benchmark.pedantic(run, rounds=2, iterations=1, warmup_rounds=0)
    benchmark.extra_info["engine"] = engine
    benchmark.extra_info["answers"] = "".join("T" if a else "F" for a in answers)
