"""Reference reachability rows: an independent check on ``localEval``.

Section 3 lets a site answer ``des(v, Fi)`` with "any indexing
techniques"; :func:`oracle_rows` rebuilds one fragment's disReach
equations from one of the static :mod:`repro.index` oracles, pair by
pair, so tests can compare every registered index against
:func:`repro.core.reachability.local_eval_reach`.
"""

from __future__ import annotations

from typing import List, Tuple

from kernel_reference import BooleanRows
from repro.core.bes import TRUE
from repro.core.queries import ReachQuery
from repro.graph.digraph import Node
from repro.index import ReachabilityOracle
from repro.partition.fragment import Fragment


def _boundary(fragment: Fragment, source: Node, target: Node) -> Tuple[List[Node], List[Node]]:
    """The rows and columns of ``fragment``'s equations, sorted by ``repr``.

    Rows are ``Fi.I`` plus ``source`` when it is stored here; columns are
    ``Fi.O`` plus ``target`` when it is stored here.
    """
    iset = set(fragment.in_nodes)
    oset = set(fragment.virtual_nodes)
    if source in fragment.nodes:
        iset.add(source)
    if target in fragment.nodes:
        oset.add(target)
    return sorted(iset, key=repr), sorted(oset, key=repr)


def oracle_rows(fragment: Fragment, query: ReachQuery, oracle: ReachabilityOracle) -> BooleanRows:
    """``fragment``'s equations for ``query``, each pair asked of ``oracle``."""
    roots, seeds = _boundary(fragment, query.source, query.target)
    columns = [TRUE if seed == query.target else seed for seed in seeds]
    masks = [
        sum(1 << j for j, seed in enumerate(seeds) if oracle.reaches(v, seed))
        for v in roots
    ]
    return BooleanRows(roots, columns, masks)
