"""Tests for in-place repartitioning and its serving-layer soundness.

The contract under test (DESIGN.md §7): ``SimulatedCluster.repartition``
rebuilds the fragments without changing any query's answer, bumps every
fragment version past anything its fragment id ever carried (so warm
``SiteResultCache`` entries can never be served across a repartition), and
reports before/after quality.  The cross-executor classes assert the
partition bench's acceptance criterion — answers identical across
partitioners on every executor backend — on the bench's own pinned
workload generator.
"""

import pytest

from repro.core.engine import evaluate
from repro.distributed import SimulatedCluster
from repro.distributed.executors import EXECUTORS
from repro.errors import DistributedError, FragmentationError
from repro.graph import erdos_renyi
from repro.partition import (
    PartitionQuality,
    check_fragmentation,
    chunk_partition,
    measure_quality,
)
from repro.serving import BatchQueryEngine
from repro.workload import per_class_workload
from repro.workload.paper_example import figure1_graph


@pytest.fixture
def graph():
    return erdos_renyi(60, 180, seed=5, num_labels=3)


@pytest.fixture
def cluster(graph):
    return SimulatedCluster.from_graph(graph, 4, partitioner="hash", seed=0)


class TestRepartition:
    def test_answers_unchanged(self, graph, cluster):
        workloads = per_class_workload(graph, 4, seed=0)
        before = {
            algo: [evaluate(cluster, q, algo).answer for q in queries]
            for algo, queries in workloads.items()
        }
        cluster.repartition("refined", seed=0)
        after = {
            algo: [evaluate(cluster, q, algo).answer for q in queries]
            for algo, queries in workloads.items()
        }
        assert before == after

    def test_report_shows_improvement(self, cluster):
        report = cluster.repartition("refined", seed=0)
        assert isinstance(report.before, PartitionQuality)
        assert isinstance(report.after, PartitionQuality)
        assert report.partitioner == "refined"
        assert report.after.num_boundary_nodes <= report.before.num_boundary_nodes
        assert report.boundary_delta <= 0
        assert report.traffic_bound_ratio <= 1.0
        assert "after (refined)" in report.summary()

    def test_new_fragmentation_is_valid(self, cluster):
        graph = cluster.fragmentation.restore_graph()
        cluster.repartition("multilevel", seed=1)
        check_fragmentation(graph, cluster.fragmentation)
        assert measure_quality(cluster.fragmentation).num_nodes == graph.num_nodes

    @staticmethod
    def _record(cluster, history):
        for frag in cluster.fragmentation:
            history.setdefault(frag.fid, set()).add(
                cluster.fragment_version(frag.fid)
            )

    def test_versions_bumped_past_history(self, cluster):
        history = {}
        self._record(cluster, history)
        cluster.bump_fragment_version(0)  # simulate an in-place mutation
        self._record(cluster, history)
        cluster.repartition("refined", seed=0)
        # Every fragment, fragment 0 included, now carries a version strictly
        # greater than every version its fid ever carried.
        for frag in cluster.fragmentation:
            assert cluster.fragment_version(frag.fid) > max(history[frag.fid])

    def test_shrinking_then_growing_never_reuses_versions(self, cluster):
        history = {}
        self._record(cluster, history)
        cluster.repartition("refined", num_fragments=2, seed=0)
        self._record(cluster, history)
        cluster.repartition("refined", num_fragments=4, seed=0)
        # fids 2 and 3 disappeared and came back: their versions lie past
        # every version they carried before the shrink, never restarting
        # (which would resurrect stale cache keys).
        for frag in cluster.fragmentation:
            assert cluster.fragment_version(frag.fid) > max(history[frag.fid])

    def test_fragment_count_change_rebuilds_sites(self, cluster):
        assert cluster.num_sites == 4
        cluster.repartition("refined", num_fragments=2, seed=0)
        assert cluster.num_sites == 2
        assert len(cluster.fragmentation) == 2

    def test_explicit_assignment_and_callable(self, graph, cluster):
        report = cluster.repartition(chunk_partition)
        assert report.partitioner == "chunk_partition"
        placement = {node: 0 for node in graph.nodes()}
        report = cluster.repartition(placement, num_fragments=1)
        assert report.partitioner == "<assignment>"
        assert cluster.num_sites == 1

    def test_rejects_garbage_partitioner(self, cluster):
        with pytest.raises(DistributedError, match="partitioner"):
            cluster.repartition(42)
        with pytest.raises(FragmentationError, match="unknown partitioner"):
            cluster.repartition("nope")


class TestServingCacheSoundness:
    """A warm BatchQueryEngine must never serve pre-repartition partials."""

    def test_warm_cache_across_repartition(self, graph, cluster):
        queries = per_class_workload(graph, 5, seed=1)["disReach"]
        engine = BatchQueryEngine(cluster)
        first = engine.run_batch(queries)
        assert engine.cache.hits + engine.cache.misses > 0
        cluster.repartition("refined", seed=0)
        second = engine.run_batch(queries)
        fresh = [evaluate(cluster, q).answer for q in queries]
        assert first.answers == second.answers == fresh
        # The second batch re-executed site work (new versions miss the cache)
        assert second.workload.tasks_executed > 0

    def test_repeated_repartitions_stay_sound(self, graph, cluster):
        queries = per_class_workload(graph, 4, seed=2)["disDist"]
        engine = BatchQueryEngine(cluster)
        reference = engine.run_batch(queries).answers
        for partitioner in ("refined", "multilevel", "chunk", "refined"):
            cluster.repartition(partitioner, seed=0)
            assert engine.run_batch(queries).answers == reference


class TestCrossPartitionerCrossExecutor:
    """The bench acceptance: identical answers on every backend x partitioner."""

    @pytest.mark.parametrize("executor", sorted(EXECUTORS))
    def test_paper_example_all_partitioners(self, executor):
        graph = figure1_graph()
        workloads = per_class_workload(graph, 3, seed=0)
        reference = None
        for partitioner in ("hash", "chunk", "greedy", "refined", "multilevel"):
            cluster = SimulatedCluster.from_graph(
                graph, 3, partitioner=partitioner, seed=0, executor=executor
            )
            answers = {
                algo: [evaluate(cluster, q, algo).answer for q in queries]
                for algo, queries in workloads.items()
            }
            if reference is None:
                reference = answers
            else:
                assert answers == reference, (executor, partitioner)

    @pytest.mark.parametrize("executor", sorted(EXECUTORS))
    def test_random_labeled_graph(self, executor, graph):
        workloads = per_class_workload(graph, 2, seed=3)
        reference = None
        for partitioner in ("hash", "refined", "multilevel"):
            cluster = SimulatedCluster.from_graph(
                graph, 4, partitioner=partitioner, seed=0, executor=executor
            )
            answers = {
                algo: [evaluate(cluster, q, algo).answer for q in queries]
                for algo, queries in workloads.items()
            }
            if reference is None:
                reference = answers
            else:
                assert answers == reference, (executor, partitioner)


class TestShippingCostModel:
    """repartition() is no longer free: moved fragment data is charged."""

    def test_real_move_charges_bytes_and_seconds(self, cluster):
        report = cluster.repartition("refined", seed=0)
        assert report.moved_nodes > 0
        assert report.shipping is not None
        assert report.shipping.algorithm == "repartition"
        assert report.shipping.traffic_bytes > 0
        assert report.shipping.network_seconds > 0.0
        assert report.shipping.num_messages > 0
        assert "shipped" in report.summary()

    def test_identity_assignment_ships_nothing(self, cluster):
        placement = dict(cluster.fragmentation.placement)
        report = cluster.repartition(placement)
        assert report.moved_nodes == 0
        assert report.shipping.traffic_bytes == 0
        assert report.shipping.network_seconds == 0.0
        # still a new generation: versions and epoch must advance
        assert report.epoch == cluster.partition_epoch == 1

    def test_more_movement_ships_more(self, graph, cluster):
        placement = dict(cluster.fragmentation.placement)
        one_moved = dict(placement)
        node = sorted(graph.nodes())[0]
        one_moved[node] = (placement[node] + 1) % 4
        small = cluster.repartition(one_moved).shipping.traffic_bytes
        flipped = {n: (f + 1) % 4 for n, f in one_moved.items()}
        large = cluster.repartition(flipped).shipping.traffic_bytes
        assert 0 < small < large

    def test_epoch_increments_per_repartition(self, cluster):
        assert cluster.partition_epoch == 0
        cluster.repartition("refined", seed=0)
        cluster.repartition("chunk", seed=0)
        report = cluster.repartition("hash", seed=0)
        assert cluster.partition_epoch == 3
        assert report.epoch == 3


class TestEagerCacheInvalidation:
    def test_registered_engine_cache_reclaimed(self, graph, cluster):
        queries = per_class_workload(graph, 4, seed=3)["disReach"]
        engine = BatchQueryEngine(cluster)
        engine.run_batch(queries)
        assert len(engine.cache) > 0
        invalidations_before = engine.cache.invalidations
        cluster.repartition("refined", seed=0)
        # version keying already made them unreachable; registration means
        # the dead entries were also physically dropped
        assert len(engine.cache) == 0
        assert engine.cache.invalidations > invalidations_before
        engine.cache.check_index()

    def test_dropped_cache_deregisters(self, graph, cluster):
        engine = BatchQueryEngine(cluster)
        engine.run_batch(per_class_workload(graph, 2, seed=4)["disReach"])
        del engine
        cluster.repartition("refined", seed=0)  # must not blow up
