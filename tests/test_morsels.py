"""Morsel-driven parallelism: range decomposition, the morsel scan
operator, the BI morsel plans, and the pool-dispatched end-to-end path.

The invariant everywhere is *determinism*: a morselized run returns
row-identical results and (summed across morsels plus the parent-side
merge) identical operator counters to the serial scan, regardless of
morsel size or worker scheduling.
"""

from __future__ import annotations

import pytest

from repro.engine import (
    counters,
    morsel_ranges,
    reset_counters,
    scan_message_morsel,
    scan_messages,
)
from repro.exec import SnapshotConfig, Task, WorkerPool, provide_snapshot
from repro.graph.frozen import FreezeManager, FrozenGraph, freeze
from repro.graph.store import SocialGraph
from repro.obs.metrics import registry
from repro.params.curation import ParameterGenerator
from repro.queries.bi import ALL_QUERIES
from repro.queries.bi.morsels import MORSEL_PLANS


@pytest.fixture(scope="module")
def frozen(tiny_graph) -> FrozenGraph:
    return freeze(tiny_graph)


@pytest.fixture(scope="module")
def params(tiny_graph, tiny_config) -> ParameterGenerator:
    return ParameterGenerator(tiny_graph, tiny_config)


def _collect(graph, ranges, **kwargs):
    rows = []
    for index, (kind, lo, hi) in enumerate(ranges):
        rows.extend(
            m.id
            for m in scan_message_morsel(
                graph, kind, lo, hi, lead=index == 0, **kwargs
            )
        )
    return rows


class TestMorselRanges:
    def test_covers_scan_exactly(self, frozen):
        ranges = morsel_ranges(frozen, morsel_size=37)
        assert all(hi - lo <= 37 for _, lo, hi in ranges)
        ids = _collect(frozen, ranges)
        assert sorted(ids) == sorted(m.id for m in scan_messages(frozen))

    def test_windowed_ranges_match_serial(self, frozen):
        dates = sorted(m.creation_date for m in scan_messages(frozen))
        mid = dates[len(dates) // 2]
        for window in [(None, mid), (mid, None), (dates[5], dates[-5])]:
            ranges = morsel_ranges(frozen, window=window, morsel_size=29)
            ids = _collect(frozen, ranges, window=window)
            expected = [m.id for m in scan_messages(frozen, window=window)]
            assert sorted(ids) == sorted(expected)

    def test_live_store_gets_fallback_morsel(self, tiny_graph):
        assert morsel_ranges(tiny_graph) == [("*", 0, -1)]

    def test_overlaid_view_gets_fallback_morsel(self, tiny_net):
        from repro.datagen.update_streams import build_update_streams
        from repro.queries.interactive.updates import ALL_UPDATES

        live = SocialGraph.from_data(tiny_net, until=tiny_net.cutoff)
        manager = FreezeManager(live)
        try:
            manager.frozen()
            for op in build_update_streams(tiny_net)[:5]:
                try:
                    ALL_UPDATES[op.operation_id][0](live, op.params)
                except (KeyError, ValueError):
                    pass
            overlaid = manager.frozen()
            assert overlaid.delta_overlay is not None
            assert morsel_ranges(overlaid) == [("*", 0, -1)]
        finally:
            manager.detach()

    def test_empty_window_degenerate_morsel(self, frozen):
        dates = sorted(m.creation_date for m in scan_messages(frozen))
        window = (dates[-1] + 1, dates[-1] + 2)
        ranges = morsel_ranges(frozen, window=window, morsel_size=10)
        assert len(ranges) == 1
        kind, lo, hi = ranges[0]
        assert lo == hi
        assert _collect(frozen, ranges, window=window) == []

    def test_invalid_morsel_size_rejected(self, frozen):
        with pytest.raises(ValueError):
            morsel_ranges(frozen, morsel_size=0)


class TestScanMessageMorsel:
    def test_fallback_morsel_delegates_to_scan(self, tiny_graph):
        ids = [m.id for m in scan_message_morsel(tiny_graph, "*", 0, -1)]
        assert sorted(ids) == sorted(m.id for m in scan_messages(tiny_graph))

    def test_slab_morsel_requires_frozen(self, tiny_graph):
        with pytest.raises(TypeError):
            list(scan_message_morsel(tiny_graph, "post", 0, 1))

    def test_language_pushdown_matches_serial(self, frozen):
        language = frozen._post_language.dictionary[1]
        expected = [m.id for m in scan_messages(frozen, language=[language])]
        ranges = morsel_ranges(frozen, morsel_size=31)
        ids = _collect(frozen, ranges, language=[language])
        assert sorted(ids) == sorted(expected)


class TestMorselPlans:
    @pytest.mark.parametrize("number", sorted(MORSEL_PLANS))
    @pytest.mark.parametrize("morsel_size", [17, 500])
    def test_partials_merge_to_serial_rows(self, frozen, params, number,
                                           morsel_size):
        plan = MORSEL_PLANS[number]
        query = ALL_QUERIES[number][0]
        for binding in params.bi(number, count=2):
            binding = tuple(binding)
            ranges = plan.ranges(frozen, binding, morsel_size)
            partials = [
                plan.partial(frozen, kind, lo, hi, index == 0, binding)
                for index, (kind, lo, hi) in enumerate(ranges)
            ]
            assert (
                plan.merge(frozen, partials, binding)
                == query(frozen, *binding)
            )

    def test_bi3_counter_parity(self, frozen, params):
        """BI 3's morsel decomposition replays the serial query's exact
        operator-counter totals — scan, hash-aggregate and top-k heap —
        not just its rows (ROADMAP open item: counter-parity for the
        window/partial/merge plans)."""
        from repro.queries.bi.q03 import bi3

        plan = MORSEL_PLANS[3]
        binding = tuple(params.bi(3, count=1)[0])

        reset_counters()
        serial_rows = bi3(frozen, *binding)
        serial = counters().as_dict()

        reset_counters()
        ranges = plan.ranges(frozen, binding, 23)
        partials = [
            plan.partial(frozen, kind, lo, hi, index == 0, binding)
            for index, (kind, lo, hi) in enumerate(ranges)
        ]
        morsel_rows = plan.merge(frozen, partials, binding)
        morselized = counters().as_dict()
        reset_counters()

        assert morsel_rows == serial_rows
        assert morselized == serial

    @pytest.mark.parametrize("number", sorted(MORSEL_PLANS))
    def test_fallback_morsel_still_correct(self, tiny_graph, params, number):
        plan = MORSEL_PLANS[number]
        query = ALL_QUERIES[number][0]
        binding = tuple(params.bi(number, count=1)[0])
        ranges = plan.ranges(tiny_graph, binding, 65536)
        assert ranges == [("*", 0, -1)]
        partials = [
            plan.partial(tiny_graph, kind, lo, hi, index == 0, binding)
            for index, (kind, lo, hi) in enumerate(ranges)
        ]
        assert (
            plan.merge(tiny_graph, partials, binding)
            == query(tiny_graph, *binding)
        )


class TestPoolDispatch:
    def test_run_morselized_on_process_pool(self, frozen, params):
        from repro.driver.bi_driver import run_morselized

        handle = provide_snapshot(
            frozen, config=SnapshotConfig(provider="mmap_file")
        )
        try:
            pool = WorkerPool(workers=2, snapshot=handle)
            for number in sorted(MORSEL_PLANS):
                binding = tuple(params.bi(number, count=1)[0])
                rows = run_morselized(
                    frozen, number, binding, pool, morsel_size=200
                )
                assert rows == ALL_QUERIES[number][0](frozen, *binding)
        finally:
            handle.close()

    def test_morsel_task_counter_increments(self, frozen, params):
        binding = tuple(params.bi(1, count=1)[0])
        plan = MORSEL_PLANS[1]
        ranges = plan.ranges(frozen, binding, 400)
        counter = registry().counter("repro_morsel_tasks_total", query="bi1")
        before = counter.value
        pool = WorkerPool(workers=1, snapshot=provide_snapshot(frozen))
        pool.run(
            Task(index, "bi_morsel", (1, kind, lo, hi, index == 0, binding))
            for index, (kind, lo, hi) in enumerate(ranges)
        )
        assert counter.value == before + len(ranges)

    def test_power_test_morselized_matches_serial(self, tiny_graph, params):
        from repro.driver.bi_driver import power_test

        serial = power_test(tiny_graph, params, 0.1, workers=1)
        morselized = power_test(
            tiny_graph, params, 0.1, workers=2,
            snapshot=SnapshotConfig(provider="mmap_file", morsel_size=300),
        )
        assert set(morselized.runtimes) == set(serial.runtimes)
        assert morselized.operator_stats == serial.operator_stats
