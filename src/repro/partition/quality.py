"""Partition-quality measurement: the statistics the paper's theorems bound.

Every guarantee in the paper is stated in terms of the fragmentation's
*boundary* structure, not `|G|`:

* Theorem 1 (``disReach``): one visit per site, total traffic ``O(|Vf|^2)``,
  partial answers of at most ``|Fi.I|`` Boolean equations over ``|Fi.O|``
  variables each;
* Theorem 2 (``disDist``): the same shape with min-plus equations;
* Theorem 3 (``disRPQ``): traffic ``O(|R|^2 |Vf|^2)`` — the product automaton
  multiplies every boundary term by ``|Vq|``.

So two fragmentations of the *same* graph with the same ``card(F)`` can
differ by orders of magnitude in traffic purely through ``|Vf|``.
:func:`measure_quality` reduces a :class:`~repro.partition.fragment.Fragmentation`
to exactly the statistics those bounds depend on (DESIGN.md §7 maps each
theorem to its statistic), and :meth:`PartitionQuality.traffic_bound`
evaluates the theorem envelopes so partitioners can be ranked *before*
running a single query.  The ``partition`` bench
(``python -m repro.bench partition``) then verifies empirically that lower
boundary counts tighten the realized traffic/response numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..errors import FragmentationError
from .fragment import Fragmentation

if TYPE_CHECKING:  # pragma: no cover - annotation only (avoids an import cycle)
    from ..distributed.stats import ExecutionStats

#: Algorithms whose Theorem 1–3 traffic envelopes :meth:`PartitionQuality.
#: traffic_bound` can evaluate, with the power of ``|Vq|`` each applies.
BOUNDED_ALGORITHMS: Dict[str, int] = {
    "disReach": 0,  # Theorem 1: O(|Vf|^2)
    "disDist": 0,  # Theorem 2: O(|Vf|^2)
    "disRPQ": 2,  # Theorem 3: O(|Vq|^2 |Vf|^2)
}


@dataclass(frozen=True)
class FragmentQuality:
    """Boundary statistics of one fragment ``Fi``."""

    fid: int
    #: ``|Vi|`` — nodes the fragment owns.
    num_nodes: int
    #: ``|Fi.I|`` — in-nodes (targets of incoming cross edges).
    num_in_nodes: int
    #: ``|Fi.O|`` — virtual nodes (targets of outgoing cross edges).
    num_out_nodes: int
    #: ``|Fi.I ∪ Fi.O|`` — the fragment's boundary-node count, the quantity
    #: the per-fragment partial-answer bounds of Theorems 1–3 depend on.
    num_boundary: int
    #: ``|cEi|`` — outgoing cross edges.
    num_cross_edges: int


@dataclass(frozen=True)
class PartitionQuality:
    """The fragmentation statistics the paper's guarantees depend on.

    ``num_boundary_nodes`` is ``|Vf|`` (distinct cross-edge endpoints — the
    node set of the fragment graph ``Gf``), the exact quantity in the
    traffic bounds of Theorems 1–3.  ``total_in_out`` sums the per-fragment
    ``|Fi.I ∪ Fi.O|`` counts, which bound each site's shipped partial
    answer.  ``balance`` is the classic load factor ``max|Vi| / (|V|/k)``
    (1.0 = perfectly even).
    """

    num_fragments: int
    num_nodes: int
    num_edges: int
    #: ``|Vf|`` — distinct cross-edge endpoints (Theorems 1–3).
    num_boundary_nodes: int
    #: ``Σᵢ |Fi.I ∪ Fi.O|`` — summed per-fragment boundary counts.
    total_in_out: int
    #: ``|Ef|`` — total cross edges (the edge cut).
    num_cross_edges: int
    #: ``|Ef| / |E|`` — fraction of edges cut (0.0 when the graph is empty).
    cut_fraction: float
    #: ``max |Vi|`` — owned-node count of the heaviest fragment.
    max_fragment_nodes: int
    #: ``max |Vi| / (|V| / card(F))`` — load factor; 1.0 is perfect balance.
    balance: float
    #: ``|Fm|`` — size (nodes+edges, incl. virtual/cross) of the largest
    #: stored fragment, the response-time factor of Theorems 1–3.
    max_fragment_size: int
    #: Per-fragment breakdowns, in fragment-id order.
    fragments: Tuple[FragmentQuality, ...]

    def traffic_bound(self, algorithm: str = "disReach", query_states: int = 1) -> int:
        """Evaluate ``algorithm``'s theorem traffic envelope for this partition.

        Args:
            algorithm: one of :data:`BOUNDED_ALGORITHMS` — the partial-
                evaluation algorithms whose traffic Theorems 1–3 bound.
            query_states: ``|Vq|`` of the query automaton (``disRPQ`` only;
                the Boolean/min-plus bounds ignore it).

        Returns:
            The bound evaluated without hidden constants — ``|Vf|^2`` terms
            for ``disReach``/``disDist``, ``|Vq|^2 |Vf|^2`` for ``disRPQ``.
            Useful for *ranking* partitions (the realized byte counts carry
            per-term serialization constants on top).
        """
        try:
            vq_power = BOUNDED_ALGORITHMS[algorithm]
        except KeyError:
            known = ", ".join(sorted(BOUNDED_ALGORITHMS))
            raise FragmentationError(
                f"no theorem traffic bound for {algorithm!r}; known: {known}"
            ) from None
        if query_states < 1:
            raise FragmentationError(
                f"query_states must be >= 1, got {query_states}"
            )
        return (query_states**vq_power) * self.num_boundary_nodes**2

    def summary(self) -> str:
        """One-line human summary (what ``repartition`` reports)."""
        return (
            f"card={self.num_fragments} |Vf|={self.num_boundary_nodes} "
            f"in/out={self.total_in_out} cut={self.num_cross_edges} "
            f"({self.cut_fraction * 100:.1f}% of edges) "
            f"balance={self.balance:.2f} |Fm|={self.max_fragment_size}"
        )


@dataclass(frozen=True)
class RepartitionReport:
    """Before/after quality of one :meth:`SimulatedCluster.repartition` call.

    ``boundary_delta`` / ``traffic_bound_ratio`` quantify what the move
    bought in the theorem quantities: a negative delta means fewer boundary
    nodes, a ratio below 1.0 means a tighter ``O(|Vf|^2)`` traffic envelope.

    Repartitioning is not free: ``moved_nodes`` counts the nodes whose
    hosting site changed, and ``shipping`` carries the modeled cost of
    moving their fragment data (``O(moved |Fi|)`` bytes charged under the
    cluster's network model — DESIGN.md §8).  ``epoch`` is the cluster's
    :attr:`~repro.distributed.cluster.SimulatedCluster.partition_epoch`
    after the move, and ``sessions_remapped`` counts the open incremental
    sessions that were remapped onto the new fragmentation.

    Session remaps run as one batch of the sessions' own plans through the
    serving engine (``execute_plans``): identical per-fragment tasks of
    different sessions are evaluated once.  ``remap_visits_saved`` is
    the per-session visit total minus what the batched round actually
    charged (the measurable dedup saving, 0 when at most one session was
    open), ``remap_rounds`` the parallel map rounds the batch ran, and
    ``remap_tasks`` the distinct per-fragment evaluations it executed.
    """

    #: Partitioner name (or ``"<callable>"``/``"<assignment>"``) applied.
    partitioner: str
    before: PartitionQuality
    after: PartitionQuality
    #: Nodes whose hosting site changed (what the shipping model charges).
    moved_nodes: int = 0
    #: Modeled cost of shipping the moved fragment data (``None`` when the
    #: report was built outside a cluster, e.g. in offline comparisons).
    shipping: Optional["ExecutionStats"] = None
    #: The cluster's partition epoch after this repartition.
    epoch: int = 0
    #: Open incremental sessions remapped onto the new fragmentation.
    sessions_remapped: int = 0
    #: Site visits a per-session remap sweep would have cost minus what the
    #: batched remap actually charged.
    remap_visits_saved: int = 0
    #: Parallel map rounds of the batched remap (0 when nothing remapped).
    remap_rounds: int = 0
    #: Distinct per-fragment local-eval tasks the batched remap executed.
    remap_tasks: int = 0

    @property
    def boundary_delta(self) -> int:
        """``|Vf|_after - |Vf|_before`` (negative = improvement)."""
        return self.after.num_boundary_nodes - self.before.num_boundary_nodes

    @property
    def traffic_bound_ratio(self) -> float:
        """``|Vf|²_after / |Vf|²_before`` — the Theorem 1/2 envelope ratio."""
        before = self.before.traffic_bound()
        if before == 0:
            return 1.0 if self.after.traffic_bound() == 0 else float("inf")
        return self.after.traffic_bound() / before

    def summary(self) -> str:
        """Two-line human summary (what callers of ``repartition`` print)."""
        tail = ""
        if self.shipping is not None:
            tail = (
                f" shipped {self.moved_nodes} nodes "
                f"({self.shipping.traffic_bytes}B, "
                f"{self.shipping.network_seconds * 1e3:.2f}ms)"
            )
        if self.sessions_remapped:
            tail += (
                f" remapped {self.sessions_remapped} session(s) in "
                f"{self.remap_rounds} round(s), {self.remap_tasks} tasks, "
                f"saved {self.remap_visits_saved} visits"
            )
        return (
            f"before: {self.before.summary()}\n"
            f"after ({self.partitioner}): {self.after.summary()} "
            f"[Δ|Vf|={self.boundary_delta:+d}, "
            f"bound x{self.traffic_bound_ratio:.2f}]{tail}"
        )


def measure_quality(fragmentation: Fragmentation) -> PartitionQuality:
    """Reduce ``fragmentation`` to the statistics the theorems depend on.

    Args:
        fragmentation: any valid fragmentation (see
            :func:`~repro.partition.validation.check_fragmentation`).

    Returns:
        A :class:`PartitionQuality` with global and per-fragment counts.
    """
    per_fragment = tuple(
        FragmentQuality(
            fid=frag.fid,
            num_nodes=len(frag.nodes),
            num_in_nodes=len(frag.in_nodes),
            num_out_nodes=len(frag.virtual_nodes),
            num_boundary=len(frag.in_nodes | frag.virtual_nodes),
            num_cross_edges=len(frag.cross_edges),
        )
        for frag in fragmentation
    )
    num_nodes = fragmentation.num_nodes
    num_edges = sum(f.num_internal_edges for f in fragmentation) + sum(
        fq.num_cross_edges for fq in per_fragment
    )
    card = len(fragmentation)
    max_nodes = max((fq.num_nodes for fq in per_fragment), default=0)
    ideal = num_nodes / card if card else 0.0
    return PartitionQuality(
        num_fragments=card,
        num_nodes=num_nodes,
        num_edges=num_edges,
        num_boundary_nodes=fragmentation.num_boundary_nodes,
        total_in_out=sum(fq.num_boundary for fq in per_fragment),
        num_cross_edges=fragmentation.num_cross_edges,
        cut_fraction=(
            fragmentation.num_cross_edges / num_edges if num_edges else 0.0
        ),
        max_fragment_nodes=max_nodes,
        balance=(max_nodes / ideal) if ideal > 0 else 1.0,
        max_fragment_size=fragmentation.max_fragment_size,
        fragments=per_fragment,
    )
