"""Unit tests for the frozen columnar snapshot layer.

Structural invariants of the CSR/column builders, the immutability
contract, the freeze/invalidate lifecycle and the footprint gauges.
Row-level equivalence with the live store across every BI/IC read is
the differential suite's job (``test_frozen_differential.py``).
"""

import pytest

from repro.driver.bi_driver import power_test
from repro.exec.snapshot import SnapshotConfig
from repro.graph.frozen import (
    FreezeManager,
    FrozenGraph,
    StringColumn,
    freeze,
)
from repro.graph.store import SocialGraph
from repro.obs.metrics import registry
from repro.params.curation import ParameterGenerator
from repro.schema.entities import Post
from repro.util.dates import make_datetime


@pytest.fixture(scope="module")
def frozen_tiny(tiny_graph):
    """One snapshot of the (unmutated) tiny bulk-load graph."""
    return freeze(tiny_graph)


class TestStringColumn:
    def test_roundtrip(self):
        values = ["en", "de", "en", "fr", "en"]
        col = StringColumn(values)
        assert len(col) == 5
        assert [col[i] for i in range(5)] == values

    def test_dictionary_deduplicates(self):
        col = StringColumn(["a", "b", "a", "a", "b"])
        assert col.dictionary == ["a", "b"]
        assert list(col.codes) == [0, 1, 0, 0, 1]

    def test_interning_shares_one_object(self):
        col = StringColumn(["Chrome" + str(i % 2) for i in range(6)])
        assert col[0] is col[2] and col[2] is col[4]
        assert col[1] is col[3]

    def test_nbytes_counts_codes(self):
        col = StringColumn(["x"] * 10)
        assert col.nbytes() == 10 * col.codes.itemsize


class TestColumnIntegrity:
    def test_person_ordinals_are_dense_and_sorted(self, frozen_tiny):
        ids = list(frozen_tiny._person_ids)
        assert ids == sorted(frozen_tiny.persons)
        assert all(
            frozen_tiny._person_ord[pid] == i for i, pid in enumerate(ids)
        )

    def test_knows_csr_matches_friends_index(self, frozen_tiny):
        offsets = frozen_tiny._knows_offsets
        targets = frozen_tiny._knows_targets
        assert list(offsets) == sorted(offsets)  # monotone
        assert offsets[-1] == len(targets)
        # Undirected edges appear once per endpoint row.
        assert len(targets) == 2 * len(frozen_tiny.knows_edges)
        for i, pid in enumerate(frozen_tiny._person_ids):
            row = frozen_tiny._friends.get(pid, {})
            lo, hi = offsets[i], offsets[i + 1]
            assert list(targets[lo:hi]) == list(row.keys())

    def test_message_columns_sorted_by_date_then_id(self, frozen_tiny):
        for _kind, objs, dates, _codes in frozen_tiny.message_slabs(None):
            keyed = [(m.creation_date, m.id) for m in objs]
            assert keyed == sorted(keyed)
            assert list(dates) == [k for k, _ in keyed]

    def test_message_ordinals_cover_posts_then_comments(self, frozen_tiny):
        posts = len(frozen_tiny._post_objs)
        assert all(
            frozen_tiny._msg_ord[m.id] < posts
            for m in frozen_tiny._post_objs
        )
        assert len(frozen_tiny._msg_objs) == posts + len(
            frozen_tiny._comment_objs
        )

    def test_root_column_matches_live_walk(self, tiny_graph, frozen_tiny):
        for comment in tiny_graph.comments.values():
            live_root = SocialGraph.root_post_of(tiny_graph, comment)
            frozen_root = frozen_tiny.root_post_of(comment)
            assert frozen_root is live_root
            assert isinstance(frozen_root, Post)

    def test_country_columns_match_live(self, tiny_graph, frozen_tiny):
        for pid in tiny_graph.persons:
            assert frozen_tiny.country_of_person(
                pid
            ) == SocialGraph.country_of_person(tiny_graph, pid)
        for country_id in set(frozen_tiny._person_country):
            assert sorted(frozen_tiny.persons_in_country(country_id)) == sorted(
                SocialGraph.persons_in_country(tiny_graph, country_id)
            )

    def test_tag_window_matches_live(self, tiny_graph, frozen_tiny):
        start, end = make_datetime(2010, 6, 1), make_datetime(2012, 6, 1)
        for tag_id in sorted(tiny_graph.tags):
            live = [
                m.id
                for m in SocialGraph.messages_with_tag_in_window(
                    tiny_graph, tag_id, start, end
                )
            ]
            frozen_rows = [
                m.id
                for m in frozen_tiny.messages_with_tag_in_window(
                    tag_id, start, end
                )
            ]
            assert sorted(frozen_rows) == sorted(live)

    def test_forum_window_matches_live(self, tiny_graph, frozen_tiny):
        start, end = make_datetime(2010, 1, 1), make_datetime(2013, 1, 1)
        for fid in sorted(tiny_graph.forums):
            live = [
                p.id
                for p in SocialGraph.posts_in_forum_window(
                    tiny_graph, fid, start, end
                )
            ]
            frozen_rows = [
                p.id
                for p in frozen_tiny.posts_in_forum_window(fid, start, end)
            ]
            assert frozen_rows == live

    def test_shares_live_tables_by_reference(self, tiny_graph, frozen_tiny):
        assert frozen_tiny.persons is tiny_graph.persons
        assert frozen_tiny.posts is tiny_graph.posts
        assert frozen_tiny._friends is tiny_graph._friends


class TestFootprint:
    FAMILIES = (
        "person_columns", "knows_csr", "root_column", "forum_columns",
        "date_columns", "string_columns",
    )

    def test_families_present_and_positive(self, frozen_tiny):
        footprint = frozen_tiny.footprint()
        assert tuple(sorted(footprint)) == tuple(sorted(self.FAMILIES))
        assert all(nbytes > 0 for nbytes in footprint.values())

    def test_freeze_publishes_gauges_and_counter(self, tiny_graph):
        before = registry().counter("repro_frozen_freezes_total").value
        snapshot = freeze(tiny_graph)
        assert registry().counter("repro_frozen_freezes_total").value == before + 1
        for family, nbytes in snapshot.footprint().items():
            gauge = registry().gauge("repro_frozen_bytes", family=family)
            assert gauge.value == float(nbytes)


class TestImmutability:
    def test_every_mutator_raises(self, frozen_tiny):
        from repro.graph.frozen import _MUTATORS

        for name in _MUTATORS:
            with pytest.raises(TypeError, match="immutable"):
                getattr(frozen_tiny, name)()

    def test_mutator_set_covers_all_store_mutators(self):
        """Any SocialGraph add_*/delete_* method must be overridden —
        a new mutator that slips past this list would silently corrupt
        snapshots."""
        from repro.graph.frozen import _MUTATORS

        store_mutators = {
            name
            for name in vars(SocialGraph)
            if name.startswith(("add_", "delete_"))
        }
        assert store_mutators == set(_MUTATORS)

    def test_freeze_of_frozen_is_identity(self, frozen_tiny):
        assert freeze(frozen_tiny) is frozen_tiny
        with pytest.raises(TypeError):
            FrozenGraph(frozen_tiny)
        with pytest.raises(TypeError):
            FreezeManager(frozen_tiny)


class TestFreezeLifecycle:
    @pytest.fixture
    def live(self, tiny_net):
        return SocialGraph.from_data(tiny_net, until=tiny_net.cutoff)

    def test_write_version_moves_on_delete(self, live):
        version = live.write_version
        edge = live.knows_edges[0]
        live.delete_knows(edge.person1, edge.person2)
        assert live.write_version > version

    def test_manager_caches_until_write(self, live):
        manager = FreezeManager(live)
        first = manager.frozen()
        assert manager.frozen() is first
        assert manager.freezes == 1
        edge = live.knows_edges[0]
        live.delete_knows(edge.person1, edge.person2)
        second = manager.frozen()
        assert second is not first
        # Merge-on-read: a small write yields an overlaid view of the
        # same base snapshot, not a refreeze.
        assert manager.freezes == 1
        assert second.base_snapshot is first
        assert manager.frozen() is second

    def test_invalidate_forces_rebuild(self, live):
        manager = FreezeManager(live)
        first = manager.frozen()
        manager.invalidate()
        assert manager.frozen() is not first
        assert manager.freezes == 2

    def test_compaction_refreezes_and_sees_the_write(self, live):
        # fraction 0.0: any outstanding overlay row triggers compaction,
        # i.e. the pre-delta refreeze-on-write behaviour.
        manager = FreezeManager(live, compact_fraction=0.0)
        before = manager.frozen()
        edge = live.knows_edges[0]
        live.delete_knows(edge.person1, edge.person2)
        after = manager.frozen()
        assert manager.freezes == 2
        assert manager.compactions == 1
        assert after.frozen_at_version == live.write_version
        ord1 = after._person_ord[edge.person1]
        lo, hi = after._knows_offsets[ord1], after._knows_offsets[ord1 + 1]
        assert edge.person2 not in after._knows_targets[lo:hi]
        assert len(after._knows_targets) == len(before._knows_targets) - 2


class TestResolveFreeze:
    def test_explicit_wins(self):
        assert SnapshotConfig(freeze=True).freeze is True
        assert SnapshotConfig(freeze=False).freeze is False

    def test_default_on(self):
        assert SnapshotConfig().freeze is True


#: Every environment variable that once changed a run setting, each
#: with a value that would have changed (or broken) the run.
RETIRED_VARIABLES = {
    "REPRO_FROZEN": "0",
    "REPRO_DELTA_COMPACT_FRACTION": "nan",
    "REPRO_EXEC_WORKERS": "3",
    "REPRO_SNAPSHOT_PROVIDER": "bogus",
    "REPRO_MORSEL_SIZE": "0",
    "REPRO_EXEC_START_METHOD": "telepathy",
    "REPRO_PROFILE_HZ": "53",
}


def _double(value):
    return 2 * value


class TestRetiredVariables:
    @pytest.mark.parametrize("name", sorted(RETIRED_VARIABLES))
    def test_environment_variable_is_ignored(
        self, name, monkeypatch, tiny_graph, tiny_config
    ):
        """Run settings are arguments only: a hostile value in any
        retired variable changes nothing."""
        from repro.exec import Task, WorkerPool
        from repro.obs import disable_profiling, profiler

        monkeypatch.setenv(name, RETIRED_VARIABLES[name])
        assert WorkerPool().workers == 1
        assert SnapshotConfig() == SnapshotConfig(
            provider="inline", freeze=True, compact_fraction=0.25,
            morsel_size=None, directory=None,
        )
        assert FreezeManager(SocialGraph()).compact_fraction == 0.25
        params = ParameterGenerator(tiny_graph, tiny_config)
        result = power_test(tiny_graph, params, 0.1)
        assert result.exec_stats["workers"] == 1
        assert result.exec_stats["failures"] == 0
        try:
            merged = WorkerPool(workers=2).run(
                [Task(0, "call", (_double, (21,)))]
            )
            assert merged.values() == [42]
            assert not profiler().enabled
        finally:
            disable_profiling()


class TestPowerTestParity:
    @staticmethod
    def _order_invariant(stats):
        """Operator counters minus the two that depend on row *arrival*
        order: the frozen ``kind=None`` slabs are globally
        ``(creationDate, id)``-sorted while the live window filter yields
        the tables in insertion order, so top-k heap eviction/rejection
        splits differ even though rows, results, and every scan/expand/
        group counter are identical."""
        return {
            number: {
                name: value
                for name, value in counters.items()
                if name not in ("heap_evictions", "heap_rejections")
            }
            for number, counters in stats.items()
        }

    def test_frozen_power_test_matches_live(self, tiny_graph, tiny_config):
        """Same order-invariant operator counters per query with the
        freeze on and off: the frozen fast paths account work exactly
        like the live index paths they replace."""
        params = ParameterGenerator(tiny_graph, tiny_config)
        live = power_test(
            tiny_graph, params, 0.1, workers=1,
            snapshot=SnapshotConfig(freeze=False),
        )
        frozen = power_test(
            tiny_graph, params, 0.1, workers=1,
            snapshot=SnapshotConfig(freeze=True),
        )
        assert self._order_invariant(
            frozen.operator_stats
        ) == self._order_invariant(live.operator_stats)
        assert sorted(frozen.runtimes) == sorted(live.runtimes)
