"""The redesigned Snapshot API (:mod:`repro.exec.snapshot`).

Covers the four satellite contracts of the redesign:

* :class:`SnapshotConfig` carries its real defaults and validates its
  knobs on construction;
* :func:`provide_snapshot` degrades to inline — visibly, via the
  ``repro_snapshot_fallback_total`` counter — when handed a live graph;
* mapped ship tokens are self-contained: the payload carries only
  buffer coordinates, the overlay and the task context — zero
  object-state pickle bytes — and workers rebuild the entity store
  from the snapfile's ``__entities__`` section;
* the mapped provider survives ``ship()`` → ``pickle`` →
  ``materialize()`` with row-identical reads, including an overlaid
  (dirty-manager) snapshot whose deltas must ride along with the
  mapped base — the full 25 BI + 14 IC differential runs the
  entity-section rebuild against the parent's object-state view,
  plus a ``spawn``-method pool leg whose BI reads cold-start from the
  file alone.
"""

from __future__ import annotations

import pickle

import pytest

from repro.exec import (
    WorkerPool,
    Task,
)
from repro.exec.snapshot import (
    InlineSnapshot,
    MmapFileSnapshot,
    SnapshotConfig,
    SnapshotHandle,
    provide_snapshot,
)
from repro.graph.frozen import FreezeManager, freeze
from repro.graph.store import SocialGraph
from repro.obs.metrics import registry


class TestSnapshotConfig:
    def test_defaults(self):
        config = SnapshotConfig()
        assert config.provider == "inline"
        assert config.freeze is True
        assert config.compact_fraction == 0.25
        assert config.morsel_size is None
        assert config.directory is None

    def test_explicit_knobs_beat_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SNAPSHOT_PROVIDER", "mmap_file")
        monkeypatch.setenv("REPRO_MORSEL_SIZE", "1024")
        config = SnapshotConfig(provider="inline", morsel_size=8)
        assert config.provider == "inline"
        assert config.morsel_size == 8

    def test_unknown_provider_rejected(self):
        with pytest.raises(ValueError, match="provider"):
            SnapshotConfig(provider="nfs")

    def test_removed_shared_memory_provider_rejected(self):
        with pytest.raises(ValueError, match="provider"):
            SnapshotConfig(provider="shared_memory")

    def test_invalid_numbers_rejected(self):
        with pytest.raises(ValueError):
            SnapshotConfig(compact_fraction=-0.1)
        with pytest.raises(ValueError):
            SnapshotConfig(compact_fraction=float("nan"))
        with pytest.raises(ValueError):
            SnapshotConfig(morsel_size=0)

    def test_configuration_dict(self):
        document = SnapshotConfig(provider="mmap_file").configuration_dict()
        assert document == {
            "provider": "mmap_file",
            "freeze": True,
            "compact_fraction": 0.25,
            "morsel_size": None,
        }


class TestProvideSnapshot:
    def test_inline_for_inline_provider(self, tiny_graph):
        handle = provide_snapshot(tiny_graph)
        assert isinstance(handle, InlineSnapshot)
        assert handle.provider == "inline"
        assert handle.bytes_mapped() == 0

    def test_live_graph_falls_back_visibly(self, tiny_graph):
        counter = registry().counter(
            "repro_snapshot_fallback_total", reason="live-graph"
        )
        before = counter.value
        handle = provide_snapshot(
            tiny_graph, config=SnapshotConfig(provider="mmap_file")
        )
        assert isinstance(handle, InlineSnapshot)
        assert counter.value == before + 1

    def test_mapped_provider_for_frozen_graph(self, tiny_graph):
        frozen = freeze(tiny_graph)
        handle = provide_snapshot(
            frozen, config=SnapshotConfig(provider="mmap_file")
        )
        try:
            assert isinstance(handle, MmapFileSnapshot)
            assert handle.provider == "mmap_file"
            assert handle.bytes_mapped() > 0
            assert isinstance(handle, SnapshotHandle)
        finally:
            handle.close()


class TestSelfContainedShip:
    def test_ship_payload_has_zero_object_state_bytes(self, tiny_graph):
        """The ship token is buffer coordinates + overlay + context
        only: no pickled store travels, and the stub stays thousands of
        times smaller than the entity state it replaces."""
        frozen = freeze(tiny_graph)
        handle = provide_snapshot(
            frozen, config=SnapshotConfig(provider="mmap_file")
        )
        try:
            token = handle.ship()
            assert set(token.payload) == {"path", "overlay", "context"}
            assert "state" not in token.payload
            assert token.payload["overlay"] is None
            stub_bytes = len(pickle.dumps(token))
            gauges = registry()
            assert gauges.gauge(
                "repro_snapshot_state_bytes", section="stub"
            ).value == stub_bytes
            entity_bytes = gauges.gauge(
                "repro_snapshot_state_bytes", section="entities"
            ).value
            # A graph with hundreds of messages serializes to tens of
            # kilobytes of entity rows; the stub must not scale with it.
            assert entity_bytes > 10_000
            assert stub_bytes < 1_000
        finally:
            handle.close()


def _bi18_rows(graph, binding):
    from repro.queries.bi import ALL_QUERIES

    return ALL_QUERIES[18][0](graph, *binding)


class TestShipMaterialize:
    def test_round_trip_row_identity(self, tiny_graph, tiny_config):
        from repro.params.curation import ParameterGenerator

        frozen = freeze(tiny_graph)
        params = ParameterGenerator(tiny_graph, tiny_config)
        binding = tuple(params.bi(18, count=1)[0])
        expected = _bi18_rows(frozen, binding)
        handle = provide_snapshot(
            frozen, config=SnapshotConfig(provider="mmap_file")
        )
        try:
            shipped = pickle.loads(pickle.dumps(handle.ship()))
            attached = shipped.materialize()
            try:
                assert _bi18_rows(attached.graph, binding) == expected
            finally:
                attached.close()
        finally:
            handle.close()

    def test_inline_ship_materialize(self, tiny_graph):
        handle = InlineSnapshot(tiny_graph, {"k": 1})
        attached = handle.ship().materialize()
        assert attached.graph is tiny_graph
        assert attached.context == {"k": 1}


class TestOverlayCarry:
    def test_dirty_manager_snapshot_maps_base_and_ships_overlay(
        self, tiny_net, tiny_config
    ):
        """An overlaid view must NOT silently fall back to the live
        path: the clean base columns map, the overlay pickles beside
        them, and a worker's reads match the parent's."""
        from repro.datagen.update_streams import build_update_streams
        from repro.params.curation import ParameterGenerator
        from repro.queries.bi import ALL_QUERIES
        from repro.queries.interactive.updates import ALL_UPDATES

        live = SocialGraph.from_data(tiny_net, until=tiny_net.cutoff)
        manager = FreezeManager(live)
        try:
            manager.frozen()
            for op in build_update_streams(tiny_net)[:25]:
                try:
                    ALL_UPDATES[op.operation_id][0](live, op.params)
                except (KeyError, ValueError):
                    pass
            overlaid = manager.frozen()
            assert overlaid.delta_overlay is not None
            handle = provide_snapshot(
                overlaid, config=SnapshotConfig(provider="mmap_file")
            )
            try:
                assert isinstance(handle, MmapFileSnapshot)
                attached = pickle.loads(
                    pickle.dumps(handle.ship())
                ).materialize()
                try:
                    params = ParameterGenerator(live, tiny_config)
                    for number in (1, 4, 9, 18):
                        for binding in params.bi(number, count=1):
                            binding = tuple(binding)
                            query = ALL_QUERIES[number][0]
                            assert (
                                query(attached.graph, *binding)
                                == query(overlaid, *binding)
                            ), number
                finally:
                    attached.close()
            finally:
                handle.close()
        finally:
            manager.detach()


class TestFullDifferential:
    def test_all_reads_identical_to_inline(self, tiny_graph, tiny_config):
        """Every BI and IC read returns identical rows over a
        materialized mapped snapshot and the original frozen graph."""
        from repro.params.curation import ParameterGenerator
        from repro.queries.bi import ALL_QUERIES
        from repro.queries.interactive.complex import ALL_COMPLEX

        frozen = freeze(tiny_graph)
        params = ParameterGenerator(tiny_graph, tiny_config)
        handle = provide_snapshot(
            frozen, config=SnapshotConfig(provider="mmap_file")
        )
        try:
            attached = pickle.loads(pickle.dumps(handle.ship())).materialize()
            try:
                graph = attached.graph
                for number, (query, _info) in sorted(ALL_QUERIES.items()):
                    for binding in params.bi(number, count=2):
                        binding = tuple(binding)
                        assert (
                            query(graph, *binding)
                            == query(frozen, *binding)
                        ), f"bi{number}"
                for number, (query, _info) in sorted(ALL_COMPLEX.items()):
                    for binding in params.interactive(number, count=2):
                        binding = tuple(binding)
                        assert (
                            query(graph, *binding)
                            == query(frozen, *binding)
                        ), f"ic{number}"
            finally:
                attached.close()
        finally:
            handle.close()

    @pytest.mark.skipif(
        "spawn" not in __import__("multiprocessing").get_all_start_methods(),
        reason="spawn start method unavailable",
    )
    def test_spawn_pool_differential_all_reads(self, tiny_graph,
                                               tiny_config, monkeypatch):
        """Cold-started spawn workers (no fork inheritance, no
        object-state pickle) return the same rows as the parent's
        serial pass for every BI read; every IC read (the serial
        Interactive driver has no pool) runs in-process on the same
        rebuilt-from-snapfile layout a worker materializes."""
        from repro.params.curation import ParameterGenerator
        from repro.queries.bi import ALL_QUERIES
        from repro.queries.interactive.complex import ALL_COMPLEX

        monkeypatch.setattr("repro.exec.pool.start_method", lambda: "spawn")
        frozen = freeze(tiny_graph)
        params = ParameterGenerator(tiny_graph, tiny_config)
        tasks = []
        expected = []
        for number, (query, _info) in sorted(ALL_QUERIES.items()):
            binding = tuple(params.bi(number, count=1)[0])
            tasks.append(Task(len(tasks), "bi", (number, binding)))
            expected.append(query(frozen, *binding))
        handle = provide_snapshot(
            frozen, config=SnapshotConfig(provider="mmap_file")
        )
        try:
            merged = WorkerPool(workers=2, snapshot=handle).run(tasks)
            assert not merged.failures
            assert merged.values() == expected
            attached = handle.ship().materialize()
            try:
                for number, (query, _info) in sorted(ALL_COMPLEX.items()):
                    binding = tuple(params.interactive(number, count=1)[0])
                    assert (
                        query(attached.graph, *binding)
                        == query(frozen, *binding)
                    ), f"ic{number}"
            finally:
                attached.close()
        finally:
            handle.close()


class TestPoolIntegration:
    def test_power_test_over_mapped_provider(self, tiny_graph, tiny_config):
        """The whole power test on two workers that attach the mapped
        snapfile: same per-query operator counters as the serial pass."""
        from repro.driver.bi_driver import power_test
        from repro.params.curation import ParameterGenerator

        params = ParameterGenerator(tiny_graph, tiny_config)
        serial = power_test(tiny_graph, params, 0.1)
        mapped = power_test(
            tiny_graph, params, 0.1, workers=2,
            snapshot=SnapshotConfig(provider="mmap_file"),
        )
        assert mapped.exec_stats["workers"] == 2
        assert mapped.exec_stats["failures"] == 0
        assert mapped.operator_stats == serial.operator_stats

    @pytest.mark.parametrize("provider", ["inline", "mmap_file"])
    def test_process_pool_over_each_provider(self, tiny_graph, tiny_config,
                                             provider):
        from repro.params.curation import ParameterGenerator

        frozen = freeze(tiny_graph)
        params = ParameterGenerator(tiny_graph, tiny_config)
        binding = tuple(params.bi(18, count=1)[0])
        expected = _bi18_rows(frozen, binding)
        handle = provide_snapshot(
            frozen, config=SnapshotConfig(provider=provider)
        )
        try:
            pool = WorkerPool(workers=2, snapshot=handle)
            merged = pool.run(
                [Task(0, "bi", (18, binding)), Task(1, "bi", (18, binding))]
            )
            assert not merged.failures
            for outcome in merged.outcomes:
                assert outcome.value == expected
        finally:
            handle.close()

    @pytest.mark.skipif(
        "spawn" not in __import__("multiprocessing").get_all_start_methods(),
        reason="spawn start method unavailable",
    )
    def test_spawn_pool_ships_snapshot_by_value(self, tiny_graph,
                                                tiny_config, monkeypatch):
        """Without fork, workers must materialize the shipped payload:
        the mmap_file provider attaches by path instead of pickling
        columns."""
        from repro.params.curation import ParameterGenerator

        monkeypatch.setattr("repro.exec.pool.start_method", lambda: "spawn")
        frozen = freeze(tiny_graph)
        params = ParameterGenerator(tiny_graph, tiny_config)
        binding = tuple(params.bi(18, count=1)[0])
        expected = _bi18_rows(frozen, binding)
        handle = provide_snapshot(
            frozen, config=SnapshotConfig(provider="mmap_file")
        )
        try:
            pool = WorkerPool(workers=2, snapshot=handle)
            merged = pool.run([Task(0, "bi", (18, binding))])
            assert not merged.failures
            assert merged.outcomes[0].value == expected
        finally:
            handle.close()


class TestObservability:
    def test_bytes_mapped_gauge_published(self, tiny_graph):
        frozen = freeze(tiny_graph)
        handle = provide_snapshot(
            frozen, config=SnapshotConfig(provider="mmap_file")
        )
        try:
            gauge = registry().gauge(
                "repro_snapshot_bytes_mapped", provider="mmap_file"
            )
            assert gauge.value == handle.bytes_mapped() > 0
        finally:
            handle.close()
