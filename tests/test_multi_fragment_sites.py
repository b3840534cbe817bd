"""Tests for multiple fragments per site (Section 2.1's remark).

"Observe that multiple fragments may reside in a single site, and our
algorithms can be easily adapted to accommodate this."  A site holding
several fragments evaluates all of them during its single visit and ships
one combined partial answer.
"""

import pytest

from repro.core import (
    bounded_reachable,
    dis_dist,
    dis_reach,
    dis_rpq,
    reachable,
    regular_reachable,
)
from repro.baselines import dis_reach_m, dis_reach_n, dis_rpq_d
from repro.distributed import SimulatedCluster
from repro.errors import DistributedError
from repro.graph import erdos_renyi
from repro.partition import build_fragmentation, random_partition


@pytest.fixture
def packed():
    """5 fragments packed onto 2 sites (0,1,2 -> site 0; 3,4 -> site 1)."""
    g = erdos_renyi(40, 120, seed=4, num_labels=3)
    frag = build_fragmentation(g, random_partition(g, 5, seed=4), 5)
    assignment = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1}
    return g, SimulatedCluster(frag, fragment_assignment=assignment)


class TestConstruction:
    def test_sites_hold_fragments(self, packed):
        _, cluster = packed
        assert cluster.num_sites == 2
        assert [f.fid for f in cluster.site(0).fragments] == [0, 1, 2]
        assert [f.fid for f in cluster.site(1).fragments] == [3, 4]

    def test_site_of_follows_assignment(self, packed):
        g, cluster = packed
        for node in g.nodes():
            fid = cluster.fragmentation.fragment_of(node).fid
            expected = 0 if fid <= 2 else 1
            assert cluster.site_of(node).site_id == expected

    def test_fragment_property_rejects_multi(self, packed):
        _, cluster = packed
        with pytest.raises(DistributedError, match="holds 3 fragments"):
            cluster.site(0).fragment

    def test_rejects_partial_assignment(self):
        g = erdos_renyi(10, 20, seed=0)
        frag = build_fragmentation(g, random_partition(g, 2, seed=0), 2)
        with pytest.raises(DistributedError, match="misses"):
            SimulatedCluster(frag, fragment_assignment={0: 0})

    def test_rejects_non_contiguous_site_ids(self):
        g = erdos_renyi(10, 20, seed=0)
        frag = build_fragmentation(g, random_partition(g, 2, seed=0), 2)
        with pytest.raises(DistributedError, match="contiguous"):
            SimulatedCluster(frag, fragment_assignment={0: 0, 1: 5})


class TestCorrectness:
    def test_all_algorithms_agree_with_centralized(self, packed):
        g, cluster = packed
        nodes = sorted(g.nodes())
        for s in nodes[::7]:
            for t in nodes[::6]:
                assert dis_reach(cluster, (s, t)).answer == reachable(g, s, t)
                assert dis_reach_n(cluster, (s, t)).answer == reachable(g, s, t)
                assert dis_reach_m(cluster, (s, t)).answer == reachable(g, s, t)
                assert (
                    dis_dist(cluster, (s, t, 4)).answer
                    == bounded_reachable(g, s, t, 4)
                )
                expected = regular_reachable(g, s, t, "L0* | L1*")
                assert dis_rpq(cluster, (s, t, "L0* | L1*")).answer == expected
                assert dis_rpq_d(cluster, (s, t, "L0* | L1*")).answer == expected


class TestGuaranteesStillHold:
    def test_one_visit_per_site(self, packed):
        g, cluster = packed
        nodes = sorted(g.nodes())
        result = dis_reach(cluster, (nodes[0], nodes[-1]))
        assert result.stats.visits_per_site() == {0: 1, 1: 1}

    def test_one_partial_message_per_site(self, packed):
        g, cluster = packed
        nodes = sorted(g.nodes())
        result = dis_reach(cluster, (nodes[0], nodes[-1]))
        partials = [m for m in result.stats.messages if m.kind.value == "partial"]
        assert len(partials) == 2

    def test_fewer_sites_than_one_per_fragment(self, packed):
        g, cluster = packed
        solo = SimulatedCluster(cluster.fragmentation)
        nodes = sorted(g.nodes())
        packed_result = dis_reach(cluster, (nodes[0], nodes[-1]))
        solo_result = dis_reach(solo, (nodes[0], nodes[-1]))
        assert packed_result.answer == solo_result.answer
        assert packed_result.stats.total_visits == 2
        assert solo_result.stats.total_visits == 5


@pytest.fixture
def shared():
    """4 fragments on 3 sites (0,1 -> site 0; 2 -> site 1; 3 -> site 2)."""
    g = erdos_renyi(40, 120, seed=4, num_labels=3)
    frag = build_fragmentation(g, random_partition(g, 4, seed=4), 4)
    assignment = {0: 0, 1: 0, 2: 1, 3: 2}
    return g, SimulatedCluster(frag, fragment_assignment=assignment)


class TestRepartitionKeepsSites:
    def test_same_placement_keeps_sites_and_ships_nothing(self, shared):
        _, cluster = shared
        report = cluster.repartition(
            dict(cluster.fragmentation.placement), num_fragments=4
        )
        assert cluster.num_sites == 3
        assert [
            [f.fid for f in cluster.site(sid).fragments] for sid in range(3)
        ] == [[0, 1], [2], [3]]
        assert report.moved_nodes == 0
        assert report.shipping.traffic_bytes == 0

    def test_answers_after_repartition_match_centralized(self, shared):
        g, cluster = shared
        cluster.repartition("refined", seed=4)
        assert cluster.num_sites == 3
        nodes = sorted(g.nodes())
        for s in nodes[::7]:
            for t in nodes[::6]:
                assert dis_reach(cluster, (s, t)).answer == reachable(g, s, t)
                assert (
                    dis_dist(cluster, (s, t, 4)).answer
                    == bounded_reachable(g, s, t, 4)
                )
                assert dis_rpq(cluster, (s, t, "L0* | L1*")).answer == (
                    regular_reachable(g, s, t, "L0* | L1*")
                )

    def test_new_card_refused_before_any_change(self, shared):
        _, cluster = shared
        fragmentation = cluster.fragmentation
        epoch = cluster.partition_epoch
        with pytest.raises(DistributedError, match="shared-site"):
            cluster.repartition("refined", num_fragments=3)
        assert cluster.num_sites == 3
        assert cluster.partition_epoch == epoch
        assert cluster.fragmentation is fragmentation
