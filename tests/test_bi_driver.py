"""Unit tests for the BI power/throughput driver (repro.driver.bi_driver)."""

import pytest

from repro.datagen.scale import approximate_scale_factor
from repro.driver.bi_driver import (
    Microbatch,
    PowerTestResult,
    build_microbatches,
    power_test,
    throughput_test,
)
from repro.graph.store import SocialGraph
from repro.util.dates import MILLIS_PER_DAY


class TestPowerTestResult:
    def test_geometric_mean(self):
        result = PowerTestResult(
            runtimes={1: 0.001, 2: 0.004}, scale_factor=1.0
        )
        assert result.geometric_mean == pytest.approx(0.002)

    def test_power_score_scales_with_sf(self):
        small = PowerTestResult(runtimes={1: 0.01}, scale_factor=1.0)
        large = PowerTestResult(runtimes={1: 0.01}, scale_factor=10.0)
        assert large.power_score == pytest.approx(10 * small.power_score)

    def test_format_table(self):
        result = PowerTestResult(runtimes={1: 0.001}, scale_factor=1.0)
        text = result.format_table()
        assert "BI 1" in text and "power@SF" in text


class TestPowerTest:
    def test_covers_all_queries(self, small_graph, small_params, small_net):
        sf = approximate_scale_factor(len(small_net.persons))
        result = power_test(small_graph, small_params, sf)
        assert sorted(result.runtimes) == list(range(1, 26))
        assert all(t >= 0 for t in result.runtimes.values())

    def test_operator_stats_per_query(self, small_graph, small_params):
        """Every query gets an engine-counter snapshot, every counter
        name maps to a spec choke point, and the index-path queries of
        the acceptance criteria actually took an index path."""
        from repro.analysis.chokepoints import OPERATOR_COUNTER_CPS

        result = power_test(small_graph, small_params, 1.0)
        assert sorted(result.operator_stats) == list(range(1, 26))
        for number, stats in result.operator_stats.items():
            assert stats, f"BI {number} recorded no operator work"
            for name in stats:
                assert name in OPERATOR_COUNTER_CPS, name
        for number in (1, 3, 4, 12, 24):
            stats = result.operator_stats[number]
            assert stats.get("index_scans", 0) > 0, f"BI {number}"
        # The resident-first and path-first reads never scan a table.
        for number in (11, 22, 23, 25):
            stats = result.operator_stats[number]
            assert stats.get("index_scans", 0) > 0, f"BI {number}"
            assert stats.get("full_scans", 0) == 0, f"BI {number}"
        table = result.format_table()
        assert "rows_scanned=" in table and "power@SF" in table


class TestMicrobatches:
    def test_batches_cover_all_stream_ops(self, small_net):
        from repro.datagen.delete_streams import build_delete_streams
        from repro.datagen.update_streams import build_update_streams

        batches = build_microbatches(small_net)
        assert sum(len(b.inserts) for b in batches) == len(
            build_update_streams(small_net)
        )
        assert sum(len(b.deletes) for b in batches) == len(
            build_delete_streams(small_net)
        )

    def test_batches_are_daily_and_ordered(self, small_net):
        batches = build_microbatches(small_net)
        starts = [b.day_start for b in batches]
        assert starts == sorted(starts)
        for batch in batches:
            for op in batch.inserts + batch.deletes:
                assert batch.day_start <= op.timestamp < (
                    batch.day_start + MILLIS_PER_DAY
                )

    def test_without_deletes(self, small_net):
        batches = build_microbatches(small_net, include_deletes=False)
        assert all(not b.deletes for b in batches)

    def test_batch_size(self):
        batch = Microbatch(day_start=0, inserts=[1, 2], deletes=[3])
        assert batch.size == 3


class TestThroughputTest:
    def test_end_to_end(self, small_net, small_params):
        graph = SocialGraph.from_data(small_net, until=small_net.cutoff)
        batches = build_microbatches(small_net)[:5]
        result = throughput_test(graph, small_params, batches, reads_per_batch=2)
        writes = sum(b.size for b in batches)
        assert result.operations == writes + 5 * 2
        assert len(result.batch_seconds) == 5
        assert len(result.read_seconds) == 5
        assert result.throughput > 0
        assert "ops/s" in result.format_table()

    def test_graph_actually_grows(self, small_net, small_params):
        graph = SocialGraph.from_data(small_net, until=small_net.cutoff)
        before = graph.node_count()
        batches = build_microbatches(small_net, include_deletes=False)[:10]
        throughput_test(graph, small_params, batches, reads_per_batch=0)
        assert graph.node_count() > before
