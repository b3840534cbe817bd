"""Unit tests for execution statistics."""

import pickle

import pytest

from repro.distributed import COORDINATOR, ExecutionStats, MessageKind, PhaseTimer
from repro.distributed.stats import stopwatch


@pytest.fixture
def stats():
    return ExecutionStats(algorithm="test", num_sites=3)


class TestRecording:
    def test_message_to_site_counts_visit(self, stats):
        stats.record_message(COORDINATOR, 1, MessageKind.QUERY, 10)
        assert stats.visits[1] == 1
        assert stats.traffic_bytes == 10
        assert stats.num_messages == 1

    def test_message_to_coordinator_is_not_a_visit(self, stats):
        stats.record_message(2, COORDINATOR, MessageKind.PARTIAL, 10)
        assert stats.total_visits == 0
        assert stats.traffic_bytes == 10

    def test_parallel_phase_charges_max(self, stats):
        stats.add_parallel_phase({0: 0.1, 1: 0.5, 2: 0.2})
        assert stats.response_seconds == pytest.approx(0.5)

    def test_empty_phase_charges_nothing(self, stats):
        stats.add_parallel_phase({})
        assert stats.response_seconds == 0.0

    def test_coordinator_time_accumulates(self, stats):
        stats.add_coordinator_time(0.2)
        stats.add_coordinator_time(0.3)
        assert stats.coordinator_seconds == pytest.approx(0.5)
        assert stats.response_seconds == pytest.approx(0.5)


class TestViews:
    def test_visits_per_site_includes_unvisited(self, stats):
        stats.record_message(COORDINATOR, 0, MessageKind.QUERY, 1)
        assert stats.visits_per_site() == {0: 1, 1: 0, 2: 0}

    def test_max_visits(self, stats):
        for _ in range(3):
            stats.record_message(COORDINATOR, 2, MessageKind.TOKEN, 1)
        assert stats.max_visits_per_site == 3
        assert stats.total_visits == 3

    def test_traffic_by_kind(self, stats):
        stats.record_message(COORDINATOR, 0, MessageKind.QUERY, 5)
        stats.record_message(0, COORDINATOR, MessageKind.PARTIAL, 7)
        by_kind = stats.traffic_by_kind()
        assert by_kind[MessageKind.QUERY] == 5
        assert by_kind[MessageKind.PARTIAL] == 7

    def test_summary_mentions_key_numbers(self, stats):
        stats.record_message(COORDINATOR, 0, MessageKind.QUERY, 5)
        text = stats.summary()
        assert "test" in text and "traffic=5B" in text


class TestTimers:
    def test_phase_timer_records_per_site(self):
        timer = PhaseTimer()
        with timer.at(0):
            pass
        with timer.at(1):
            sum(range(1000))
        assert set(timer.site_seconds) == {0, 1}
        assert all(v >= 0 for v in timer.site_seconds.values())

    def test_phase_timer_accumulates_same_site(self):
        timer = PhaseTimer()
        with timer.at(0):
            pass
        first = timer.site_seconds[0]
        with timer.at(0):
            pass
        assert timer.site_seconds[0] >= first

    def test_stopwatch(self):
        with stopwatch() as sw:
            sum(range(1000))
        assert sw[0] > 0


class TestNetworkSeconds:
    def test_network_share_is_deterministic_and_separable(self):
        from repro.core import ReachQuery, evaluate
        from repro.distributed import SimulatedCluster
        from repro.workload.paper_example import figure1_fragmentation

        cluster = SimulatedCluster(figure1_fragmentation())
        first = evaluate(cluster, ReachQuery("Ann", "Mark")).stats
        second = evaluate(cluster, ReachQuery("Ann", "Mark")).stats
        assert first.network_seconds > 0
        # the communication share is model-derived: identical across runs,
        # unlike the measured compute share of response_seconds
        assert first.network_seconds == second.network_seconds
        assert first.network_seconds <= first.response_seconds

    def test_phase_timer_credit(self):
        timer = PhaseTimer()
        timer.credit(0, 0.25)
        timer.credit(0, 0.25)
        timer.credit(1, 0.1)
        assert timer.site_seconds == {0: 0.5, 1: 0.1}


class TestWorkloadStats:
    def _workload(self):
        from repro.distributed import WorkloadStats

        batch = ExecutionStats(algorithm="batch", num_sites=3)
        batch.response_seconds = 0.5
        batch.traffic_bytes = 100
        return WorkloadStats(
            num_queries=10,
            cache_hits=30,
            cache_misses=10,
            tasks_executed=10,
            batch=batch,
            total_response_seconds=2.0,
            total_traffic_bytes=1000,
        )

    def test_derived_ratios(self):
        workload = self._workload()
        assert workload.lookups == 40
        assert workload.hit_rate == pytest.approx(0.75)
        assert workload.amortized_response_seconds == pytest.approx(0.05)
        assert workload.modeled_speedup == pytest.approx(4.0)
        assert workload.traffic_ratio == pytest.approx(0.1)

    def test_summary_mentions_key_numbers(self):
        text = self._workload().summary()
        assert "hit-rate=75.0%" in text and "speedup=4.00x" in text

    def test_empty_workload_guards(self):
        from repro.distributed import WorkloadStats

        empty = WorkloadStats()
        assert empty.hit_rate == 0.0
        assert empty.amortized_response_seconds is None
        assert empty.modeled_speedup is None
        assert empty.traffic_ratio is None
        assert "queries=0" in empty.summary()


class TestAccumulate:
    def test_folds_counters_and_times(self):
        a = ExecutionStats(algorithm="x", num_sites=3)
        a.record_message(COORDINATOR, 0, MessageKind.QUERY, 10)
        a.add_parallel_phase({0: 1.0, 1: 2.0}, wall_seconds=0.5)
        a.network_seconds = 0.25
        b = ExecutionStats(algorithm="y", num_sites=3)
        b.record_message(COORDINATOR, 1, MessageKind.QUERY, 30)
        b.record_message(1, COORDINATOR, MessageKind.PARTIAL, 5)
        b.add_parallel_phase({1: 4.0}, wall_seconds=0.25)
        b.add_coordinator_time(1.0)
        b.network_seconds = 0.5
        b.supersteps = 2
        a.accumulate(b)
        assert a.traffic_bytes == 45
        assert a.num_messages == 3
        assert a.visits == {0: 1, 1: 1}
        assert a.response_seconds == pytest.approx(2.0 + 4.0 + 1.0)
        assert a.network_seconds == pytest.approx(0.75)
        assert a.supersteps == 2
        assert a.site_compute_seconds == pytest.approx(7.0)
        assert a.phase_wall_seconds == pytest.approx(0.75)
        assert a.coordinator_seconds == pytest.approx(1.0)


class TestPackedLog:
    """The message log is packed ints; ``messages`` and ``visits`` read it."""

    SENDS = [
        (COORDINATOR, 0, MessageKind.QUERY, 12),
        (COORDINATOR, 2, MessageKind.QUERY, 12),
        (0, COORDINATOR, MessageKind.PARTIAL, 40),
        (2, 1, MessageKind.TOKEN, 9),
        (1, 2, MessageKind.TOKEN, 9),
        (COORDINATOR, 2, MessageKind.REQUEST, 3),
        (2, COORDINATOR, MessageKind.DATA, 5_000_000_000),
        (1, COORDINATOR, MessageKind.CONTROL, 1),
    ]

    def _logged(self):
        stats = ExecutionStats(algorithm="x", num_sites=3)
        for send in self.SENDS:
            stats.record_message(*send)
        return stats

    def test_messages_decode_the_log_in_order(self):
        from repro.distributed import Message

        stats = self._logged()
        assert stats.messages == [Message(*send) for send in self.SENDS]
        for message, send in zip(stats.messages, self.SENDS):
            assert message.kind is send[2]
        assert stats.num_messages == len(self.SENDS)
        assert stats.traffic_bytes == sum(send[3] for send in self.SENDS)

    def test_visits_are_counted_from_the_log(self):
        stats = self._logged()
        by_hand = {}
        for _src, dst, _kind, _size in self.SENDS:
            if dst != COORDINATOR:
                by_hand[dst] = by_hand.get(dst, 0) + 1
        assert dict(stats.visits) == by_hand == {0: 1, 1: 1, 2: 3}
        assert stats.total_visits == 5
        assert stats.max_visits_per_site == 3
        assert stats.visits_per_site() == {0: 1, 1: 1, 2: 3}

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_the_log_round_trips_through_pickle(self, protocol):
        stats = self._logged()
        copy = pickle.loads(pickle.dumps(stats, protocol))
        assert copy == stats
        assert copy.messages == stats.messages
        assert copy.messages[0].kind is MessageKind.QUERY
        assert copy.visits == stats.visits

    def test_copy_shares_no_log(self):
        stats = self._logged()
        stats.extras["note"] = 1
        clone = stats.copy()
        assert clone == stats
        clone.record_message(COORDINATOR, 0, MessageKind.QUERY, 1)
        clone.accumulate(self._logged())
        clone.extras["note"] = 2
        expected = self._logged()
        expected.extras["note"] = 1
        assert stats == expected
