"""Tests for the driver: mix, scheduler, runner, on-time rule."""

import pytest

from repro.datagen.update_streams import build_update_streams
from repro.driver.mix import (
    FREQUENCIES,
    frequencies_for_scale_factor,
)
from repro.driver.runner import Driver, DriverReport, ResultsLogEntry
from repro.driver.scheduler import ScheduledOperation, Scheduler
from repro.graph.store import SocialGraph
from repro.params.curation import ParameterGenerator


@pytest.fixture(scope="module")
def driver_setup(small_net):
    graph = SocialGraph.from_data(small_net, until=small_net.cutoff)
    params = ParameterGenerator(graph, small_net.config)
    updates = build_update_streams(small_net)
    frequencies = frequencies_for_scale_factor(1.0)
    parameters = {n: params.interactive(n, count=5) for n in range(1, 15)}
    return graph, updates, frequencies, parameters


@pytest.fixture
def fresh_graph(small_net):
    """Factory for a new bulk graph sharing nothing with the fixture
    graph (updates mutate it)."""
    return lambda: SocialGraph.from_data(small_net, until=small_net.cutoff)


class TestMix:
    def test_sf1_column_matches_table_3_1(self):
        assert FREQUENCIES[1.0] == {
            1: 26, 2: 37, 3: 69, 4: 36, 5: 57, 6: 129, 7: 87,
            8: 45, 9: 157, 10: 30, 11: 16, 12: 44, 13: 19, 14: 49,
        }

    def test_constant_frequencies_across_sfs(self):
        # Spec Table B.1: queries 1, 2, 4, 12, 13, 14 are SF-independent.
        for query in (1, 2, 4, 12, 13, 14):
            values = {FREQUENCIES[sf][query] for sf in FREQUENCIES}
            assert len(values) == 1

    def test_query8_decreases_with_sf(self):
        values = [FREQUENCIES[sf][8] for sf in sorted(FREQUENCIES)]
        assert values == sorted(values, reverse=True)

    def test_nearest_sf_fallback(self):
        assert frequencies_for_scale_factor(0.01) == FREQUENCIES[1.0]
        assert frequencies_for_scale_factor(2.0) == FREQUENCIES[1.0]
        assert frequencies_for_scale_factor(700.0) == FREQUENCIES[1000.0]

    def test_rejects_bad_sf(self):
        with pytest.raises(ValueError):
            frequencies_for_scale_factor(0)


class TestScheduler:
    def test_updates_keep_their_timestamps(self, driver_setup):
        graph, updates, frequencies, parameters = driver_setup
        schedule = Scheduler(updates, frequencies, parameters).build()
        scheduled_updates = [op for op in schedule if op.kind == "update"]
        assert len(scheduled_updates) == len(updates)
        assert [op.due for op in scheduled_updates] == [
            u.timestamp for u in updates
        ]

    def test_complex_read_counts_follow_frequencies(self, driver_setup):
        graph, updates, frequencies, parameters = driver_setup
        scheduler = Scheduler(updates, frequencies, parameters)
        schedule = scheduler.build()
        from collections import Counter

        issued = Counter(
            op.number for op in schedule if op.kind == "complex"
        )
        for query, frequency in frequencies.items():
            assert issued[query] == len(updates) // frequency

    def test_schedule_sorted_by_due_time(self, driver_setup):
        graph, updates, frequencies, parameters = driver_setup
        schedule = Scheduler(updates, frequencies, parameters).build()
        dues = [op.due for op in schedule]
        assert dues == sorted(dues)

    def test_parameters_cycle(self, driver_setup):
        graph, updates, frequencies, parameters = driver_setup
        schedule = Scheduler(updates, frequencies, parameters).build()
        ops = [op for op in schedule if op.kind == "complex" and op.number == 9]
        bindings = parameters[9]
        for index, op in enumerate(ops):
            assert op.params == bindings[index % len(bindings)]

    def test_missing_parameters_skip_query(self, driver_setup):
        graph, updates, frequencies, _ = driver_setup
        schedule = Scheduler(updates, frequencies, {1: []}).build()
        assert all(op.kind == "update" for op in schedule)


class TestRunner:
    def test_run_executes_everything(self, driver_setup, fresh_graph):
        graph, updates, frequencies, parameters = driver_setup
        # A fresh graph per run: updates mutate it.
        schedule = Scheduler(updates[:200], frequencies, parameters).build()
        report = Driver(fresh_graph(), seed=7).run(schedule)
        names = {e.operation for e in report.log}
        assert any(name.startswith("IU") for name in names)
        assert any(name.startswith("IC") for name in names)
        assert any(name.startswith("IS") for name in names)

    def test_short_sequences_follow_complex_reads(
        self, driver_setup, fresh_graph
    ):
        graph, updates, frequencies, parameters = driver_setup
        schedule = Scheduler(updates[:300], frequencies, parameters).build()
        report = Driver(fresh_graph(), seed=7).run(schedule)
        log = report.log
        for index, entry in enumerate(log):
            if entry.operation.startswith("IS"):
                # Walk back: short reads only appear after a complex read.
                previous = [
                    e.operation
                    for e in log[:index]
                    if e.operation.startswith("IC")
                ]
                assert previous
                break
        else:
            pytest.fail("no short reads issued")

    def test_deterministic_operation_sequence(self, driver_setup, fresh_graph):
        graph, updates, frequencies, parameters = driver_setup
        schedule = Scheduler(updates[:200], frequencies, parameters).build()
        ops1 = [
            e.operation
            for e in Driver(fresh_graph(), seed=7).run(schedule).log
        ]
        ops2 = [
            e.operation
            for e in Driver(fresh_graph(), seed=7).run(schedule).log
        ]
        assert ops1 == ops2

    def test_tcr_paces_execution(self, driver_setup, fresh_graph):
        graph, updates, frequencies, parameters = driver_setup
        subset = updates[:20]
        span_sim_seconds = (subset[-1].timestamp - subset[0].timestamp) / 1000
        tcr = 0.05 / max(span_sim_seconds, 1e-9)  # ~50 ms of wall time
        schedule = Scheduler(subset, frequencies, parameters).build()
        report = Driver(fresh_graph(), time_compression_ratio=tcr).run(
            schedule
        )
        assert report.wall_seconds >= 0.04
        assert report.is_valid_run  # everything started on schedule


class TestReport:
    def _entry(self, name, delay, duration=0.001):
        return ResultsLogEntry(name, 100.0, 100.0 + delay, duration, 1)

    def test_on_time_fraction(self):
        report = DriverReport(
            log=[self._entry("IC 1", 0.1), self._entry("IC 2", 2.0)],
            wall_seconds=1.0,
        )
        assert report.on_time_fraction() == 0.5
        assert not report.is_valid_run

    def test_valid_run_at_95_percent(self):
        entries = [self._entry("IC 1", 0.0)] * 19 + [self._entry("IC 1", 5.0)]
        report = DriverReport(log=entries, wall_seconds=1.0)
        assert report.on_time_fraction() == 0.95
        assert report.is_valid_run

    def test_throughput(self):
        report = DriverReport(
            log=[self._entry("IU 2", 0.0)] * 50, wall_seconds=2.0
        )
        assert report.throughput == 25.0

    def test_per_operation_stats(self):
        report = DriverReport(
            log=[
                self._entry("IC 1", 0, duration=0.002),
                self._entry("IC 1", 0, duration=0.004),
                self._entry("IU 2", 0, duration=0.001),
            ],
            wall_seconds=1.0,
        )
        stats = report.per_operation_stats()
        assert stats["IC 1"]["count"] == 2
        assert stats["IC 1"]["mean_ms"] == pytest.approx(3.0)
        assert "IU 2" in stats

    def test_format_table_mentions_everything(self):
        report = DriverReport(
            log=[self._entry("IC 1", 0.0)], wall_seconds=1.0
        )
        text = report.format_table()
        assert "IC 1" in text and "ops/s" in text

    def test_empty_log(self):
        report = DriverReport(log=[], wall_seconds=0.5)
        assert report.on_time_fraction() == 1.0
        assert report.total_operations == 0
