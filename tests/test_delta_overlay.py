"""Delta-overlay tests: merge-on-read snapshots that survive writes.

Three layers of protection for :mod:`repro.graph.delta`:

* unit tests on :class:`DeltaOverlay` record/clear semantics and the
  derived dirty sets the read side keys its fallbacks on;
* :class:`FreezeManager` lifecycle tests — one initial freeze, overlay
  views for small writes, threshold-triggered compaction, gauges, and
  hook detach;
* the acceptance differential: all 25 BI and 14 IC reads must return
  *identical* rows on the overlaid snapshot and on the live store while
  the full interleaved insert/delete microbatch stream (including a
  DEL 1 person cascade) applies — with exactly one freeze and zero
  compactions, so every read after the first batch really went through
  the overlay merge.
"""

import math

import pytest

from repro.driver.bi_driver import build_microbatches
from repro.engine import reset_counters, scan_messages
from repro.exec import InlineSnapshot, Task, WorkerPool
from repro.exec.tasks import _tally_read_path
from repro.graph.delta import (
    DeltaOverlay,
    FAMILIES,
    OverlaidGraph,
)
from repro.graph.frozen import FreezeManager, FrozenGraph, freeze
from repro.graph.store import SocialGraph
from repro.obs.metrics import registry
from repro.params.curation import ParameterGenerator
from repro.queries.bi import ALL_QUERIES
from repro.queries.interactive.complex import ALL_COMPLEX
from repro.queries.interactive.deletes import ALL_DELETES
from repro.queries.interactive.updates import ALL_UPDATES

from tests.builders import GraphBuilder, TAG_JAZZ, TAG_ROCK, run_query, ts


# -- DeltaOverlay unit tests ------------------------------------------------


class TestDeltaOverlayRecord:
    def test_starts_empty(self):
        overlay = DeltaOverlay()
        assert overlay.is_empty()
        assert overlay.total_rows() == 0
        assert all(not overlay.dirty(family) for family in FAMILIES)

    def test_insert_then_delete_leaves_tombstone(self):
        overlay = DeltaOverlay()
        overlay.record("persons", "insert", 7, "entity")
        assert overlay.rows("persons") == 1
        overlay.record("persons", "delete", 7)
        assert overlay.rows("persons") == 0
        assert overlay.tombstone_count("persons") == 1
        assert overlay.person_gone(7)
        assert not overlay.is_empty()

    def test_reinsert_after_delete_keeps_tombstone(self):
        """The tombstone must survive a re-insert of the same key: the
        *base* row under that key stays filtered while the fresh row
        rides the insert map."""
        overlay = DeltaOverlay()
        overlay.record("likes", "delete", (1, 2))
        overlay.record("likes", "insert", (1, 2), "fresh")
        assert overlay.tombstone_count("likes") == 1
        assert overlay.rows("likes") == 1

    def test_knows_events_dirty_both_endpoints(self):
        overlay = DeltaOverlay()
        overlay.record("knows", "delete", (3, 9))
        assert overlay.knows_dirty_persons == {3, 9}

    def test_message_events_dirty_tags_and_forum(self):
        b = GraphBuilder()
        alice = b.person()
        forum = b.forum(alice, tags=(TAG_ROCK,))
        post_id = b.post(alice, forum, tags=(TAG_ROCK, TAG_JAZZ))
        overlay = DeltaOverlay()
        overlay.record("posts", "insert", post_id, b.graph.posts[post_id])
        assert overlay.dirty_tags == {TAG_ROCK, TAG_JAZZ}
        assert forum in overlay.dirty_forums
        assert overlay.messages_dirty(None)
        assert overlay.messages_dirty("post")
        assert not overlay.messages_dirty("comment")

    def test_window_messages_bisects_and_invalidates(self):
        b = GraphBuilder()
        alice = b.person()
        forum = b.forum(alice)
        early = b.post(alice, forum, created=ts(1, 5))
        late = b.post(alice, forum, created=ts(9, 5))
        overlay = DeltaOverlay()
        overlay.record("posts", "insert", early, b.graph.posts[early])
        overlay.record("posts", "insert", late, b.graph.posts[late])
        window = overlay.window_messages("post", ts(1, 1), ts(6, 1))
        assert [m.id for m in window] == [early]
        assert [
            m.id for m in overlay.window_messages("post", None, None)
        ] == [early, late]
        # A new event must invalidate the cached sorted window.
        mid = b.post(alice, forum, created=ts(4, 5))
        overlay.record("posts", "insert", mid, b.graph.posts[mid])
        assert [
            m.id for m in overlay.window_messages("post", None, None)
        ] == [early, mid, late]

    def test_clear_resets_everything(self):
        overlay = DeltaOverlay()
        overlay.record("knows", "insert", (1, 2), "edge")
        overlay.record("forums", "delete", 5)
        overlay.clear()
        assert overlay.is_empty()
        assert overlay.total_rows() == 0
        assert not overlay.knows_dirty_persons
        assert not overlay.dirty_forums


class TestResolveCompactFraction:
    """The threshold is ``FreezeManager``'s own argument, validated
    there (the retired environment variable is covered with the others
    in ``test_frozen.TestRetiredVariables``)."""

    def test_explicit_wins(self):
        assert FreezeManager(SocialGraph(), 0.1).compact_fraction == 0.1
        assert FreezeManager(SocialGraph(), 0.0).compact_fraction == 0.0

    def test_default(self):
        assert FreezeManager(SocialGraph()).compact_fraction == 0.25

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            FreezeManager(SocialGraph(), compact_fraction=-0.1)

    def test_nan_rejected(self):
        """NaN fails every comparison, so a ``< 0`` check would let it
        through and the manager would silently never compact."""
        with pytest.raises(ValueError):
            FreezeManager(SocialGraph(), compact_fraction=float("nan"))

    def test_infinity_pins_the_overlay(self):
        manager = FreezeManager(SocialGraph(), compact_fraction=math.inf)
        assert manager.compact_fraction == math.inf


# -- FreezeManager lifecycle ------------------------------------------------


def _small_world():
    b = GraphBuilder()
    people = [b.person() for _ in range(6)]
    for i in range(5):
        b.knows(people[i], people[i + 1])
    forum = b.forum(people[0], tags=(TAG_ROCK,))
    for pid in people:
        b.member(forum, pid)
    posts = [b.post(people[i % 6], forum, tags=(TAG_ROCK,)) for i in range(4)]
    b.comment(people[1], posts[0])
    b.like(people[2], posts[0])
    return b, people, forum, posts


class TestFreezeManagerMergeOnRead:
    def test_rejects_frozen_graph(self):
        b, *_ = _small_world()
        with pytest.raises(TypeError):
            FreezeManager(freeze(b.graph))

    def test_small_write_yields_overlaid_view(self):
        b, people, forum, posts = _small_world()
        manager = FreezeManager(b.graph, compact_fraction=math.inf)
        base = manager.frozen()
        assert isinstance(base, FrozenGraph)
        assert manager.frozen() is base
        b.graph.delete_like(people[2], posts[0])
        view = manager.frozen()
        assert isinstance(view, OverlaidGraph)
        assert view.base_snapshot is base
        assert manager.frozen() is view  # cached until the next freeze
        assert manager.freezes == 1
        assert manager.compactions == 0

    def test_static_world_write_keeps_clean_snapshot(self):
        """Study/work/place/tag inserts move ``write_version`` but no
        frozen column depends on them — the cached snapshot stays valid
        and no overlay view is interposed."""
        b, people, _, _ = _small_world()
        manager = FreezeManager(b.graph, compact_fraction=math.inf)
        base = manager.frozen()
        b.study(people[0], 0, 2005)
        b.work(people[1], 2, 2011)
        assert manager.frozen() is base
        assert manager.overlay.is_empty()

    def test_threshold_compaction_refreezes(self):
        b, people, forum, posts = _small_world()
        manager = FreezeManager(b.graph, compact_fraction=0.05)
        base = manager.frozen()
        before = registry().counter("repro_delta_compactions_total").value
        # Push the overlay past 5% of the base row count.
        for i, pid in enumerate(people[:-1]):
            b.graph.delete_knows(pid, people[i + 1])
        compacted = manager.frozen()
        assert compacted is not base
        assert isinstance(compacted, FrozenGraph)
        assert not isinstance(compacted, OverlaidGraph)
        assert manager.compactions == 1
        assert manager.freezes == 2
        assert manager.overlay.is_empty()
        assert (
            registry().counter("repro_delta_compactions_total").value
            == before + 1
        )

    def test_overlay_gauges_published(self):
        b, people, forum, posts = _small_world()
        manager = FreezeManager(b.graph, compact_fraction=math.inf)
        manager.frozen()
        b.graph.delete_like(people[2], posts[0])
        b.comment(people[3], posts[1])
        manager.frozen()
        metrics = registry()
        assert (
            metrics.gauge("repro_delta_tombstones", family="likes").value
            == 1.0
        )
        assert metrics.gauge("repro_delta_rows", family="comments").value == 1.0
        manager.compact()
        assert (
            metrics.gauge("repro_delta_tombstones", family="likes").value
            == 0.0
        )

    def test_detach_stops_recording(self):
        b, people, forum, posts = _small_world()
        manager = FreezeManager(b.graph, compact_fraction=math.inf)
        manager.frozen()
        manager.detach()
        b.graph.delete_like(people[2], posts[0])
        assert manager.overlay.is_empty()

    def test_read_path_tally_splits_three_ways(self):
        b, people, forum, posts = _small_world()
        manager = FreezeManager(b.graph, compact_fraction=math.inf)
        metrics = registry()

        def path_value(path):
            return metrics.counter("repro_frozen_path_total", path=path).value

        live_before = path_value("live_fallback")
        frozen_before = path_value("frozen_hit")
        overlay_before = path_value("overlay_merge")
        _tally_read_path(b.graph)
        _tally_read_path(manager.frozen())
        b.graph.delete_like(people[2], posts[0])
        _tally_read_path(manager.frozen())
        assert path_value("live_fallback") == live_before + 1
        assert path_value("frozen_hit") == frozen_before + 1
        assert path_value("overlay_merge") == overlay_before + 1


# -- the overlaid window scan ------------------------------------------------


class TestOverlaySplice:
    """Inserts dated *inside* the base range — which the update stream
    never produces, since its events are dated after the bulk cutoff —
    must splice into the base slices at their ``(creationDate, id)``
    positions, through the same tombstone masks."""

    def test_ties_and_deletes_match_a_fresh_freeze(self):
        b = GraphBuilder()
        alice = b.person()
        forum = b.forum(alice)
        b._next_message = 100  # keep low ids free for the ties below
        posts = [
            b.post(alice, forum, created=ts(3, day), language=language)
            for day, language in ((1, "en"), (5, "de"), (9, "en"), (13, "de"))
        ]
        comments = [
            b.comment(alice, post, created=ts(4, 2 + 3 * i))
            for i, post in enumerate(posts)
        ]
        live = b.graph
        manager = FreezeManager(live, compact_fraction=math.inf)
        manager.frozen()
        for next_id in (10, 200):  # one tie below the base id, one above
            b._next_message = next_id
            b.post(alice, forum, created=ts(3, 5), language="en")
            b.comment(alice, posts[2], created=ts(4, 5))
        live.delete_post(posts[0])  # cascades comments[0]
        live.delete_comment(comments[2])
        view = manager.frozen()
        assert isinstance(view, OverlaidGraph)
        window = (ts(3, 1), ts(6, 1))
        for language in (None, ["en"], ["de"]):
            reset_counters()
            rows = [
                m.id
                for m in scan_messages(view, window=window, language=language)
            ]
            view_tally = reset_counters().as_dict(skip_zero=True)
            live_rows = [
                m.id
                for m in scan_messages(live, window=window, language=language)
            ]
            live_tally = reset_counters().as_dict(skip_zero=True)
            fresh = [
                m.id
                for m in scan_messages(
                    freeze(live), window=window, language=language
                )
            ]
            reset_counters()
            assert rows, language
            assert rows == fresh  # the (creationDate, id) order, exactly
            assert sorted(rows) == sorted(live_rows)
            assert view_tally == live_tally
        manager.detach()


# -- the acceptance differential --------------------------------------------


def _apply_batch(graph, batch):
    for insert in batch.inserts:
        try:
            ALL_UPDATES[insert.operation_id][0](graph, insert.params)
        except (KeyError, ValueError):
            pass
    for delete in batch.deletes:
        ALL_DELETES[delete.operation_id][0](graph, delete.params)


@pytest.fixture(scope="module")
def overlay_phase(tiny_net, tiny_config):
    """``(live, manager, params)`` after the full interleaved microbatch
    stream applied against a never-compacting FreezeManager.

    ``compact_fraction=inf`` pins the manager to the overlay: after the
    initial freeze every ``frozen()`` call must serve the merge view, so
    the module's differentials compare the overlay path — not refrozen
    columns — against the live store.  The stream is the same daily
    partitioning the throughput test replays, deletes included (one DEL 1
    person cascade among them)."""
    live = SocialGraph.from_data(tiny_net, until=tiny_net.cutoff)
    manager = FreezeManager(live, compact_fraction=math.inf)
    freezes_before = registry().counter("repro_frozen_freezes_total").value
    initial = manager.frozen()
    params = ParameterGenerator(live, tiny_config)
    spot_numbers = sorted(ALL_QUERIES)[::5]
    for batch in build_microbatches(tiny_net):
        _apply_batch(live, batch)
        view = manager.frozen()
        assert view.base_snapshot is initial
        # Spot-check a query subset at every batch boundary so a
        # mid-stream staleness bug cannot hide behind the final state.
        for number in spot_numbers:
            query = ALL_QUERIES[number][0]
            binding = params.bi(number, count=1)[0]
            assert run_query(query, view, binding) == run_query(
                query, live, binding
            ), f"BI {number} diverged mid-stream"
    freezes_after = registry().counter("repro_frozen_freezes_total").value
    assert freezes_after == freezes_before + 1, (
        "the whole stream must cost exactly one (initial) freeze"
    )
    assert manager.freezes == 1 and manager.compactions == 0
    return live, manager, ParameterGenerator(live, tiny_config)


#: The operator counters that do not depend on row order: the overlay
#: and the live store must agree on them per query.
_ORDER_FREE_COUNTERS = (
    "rows_scanned", "index_scans", "full_scans", "edges_expanded",
    "groups_created",
)


def _run_counted(query, graph, binding):
    """``run_query`` plus the order-insensitive counters it tallied."""
    reset_counters()
    outcome = run_query(query, graph, binding)
    tally = reset_counters()
    return outcome, {name: getattr(tally, name) for name in _ORDER_FREE_COUNTERS}


class TestOverlayVersusLive:
    """Row-identical results, and equal order-insensitive operator
    counters, on the overlay merge view and the live store it shadows —
    the delta overlay's acceptance bar."""

    def test_overlay_view_served_not_refrozen(self, overlay_phase):
        live, manager, _ = overlay_phase
        view = manager.frozen()
        assert isinstance(view, OverlaidGraph)
        assert not manager.overlay.is_empty()

    def test_every_bi_query_matches_on_overlay(self, overlay_phase):
        live, manager, params = overlay_phase
        view = manager.frozen()
        for number, (query, _) in sorted(ALL_QUERIES.items()):
            for binding in params.bi(number, count=2):
                assert _run_counted(query, view, binding) == _run_counted(
                    query, live, binding
                ), f"BI {number} diverged on the overlay for {binding}"

    def test_every_ic_query_matches_on_overlay(self, overlay_phase):
        live, manager, params = overlay_phase
        view = manager.frozen()
        for number, (query, _) in sorted(ALL_COMPLEX.items()):
            for binding in params.interactive(number, count=2):
                assert _run_counted(query, view, binding) == _run_counted(
                    query, live, binding
                ), f"IC {number} diverged on the overlay for {binding}"

    def test_compaction_folds_overlay_into_columns(self, overlay_phase):
        """Run last in the module: compacting must produce a plain
        frozen snapshot whose columns hold exactly the live rows."""
        live, manager, params = overlay_phase
        compacted = manager.compact()
        assert not isinstance(compacted, OverlaidGraph)
        assert {m.id for m in compacted._msg_objs} == (
            set(live.posts) | set(live.comments)
        )
        assert len(compacted._person_ids) == len(live.persons)
        manager.detach()


class TestOverlayProcessFork:
    def test_process_workers_read_the_merge_view(self, overlay_phase):
        """An OverlaidGraph installed as the pool snapshot forks base
        columns and overlay maps to process workers: their rows must
        equal the parent's serial rows."""
        live, manager, params = overlay_phase
        view = manager.frozen()
        tasks, expected = [], []
        for number in sorted(ALL_QUERIES)[:6]:
            binding = tuple(params.bi(number, count=1)[0])
            tasks.append(Task(len(tasks), "bi", (number, binding)))
            expected.append(run_query(ALL_QUERIES[number][0], live, binding))
        pool = WorkerPool(workers=2, snapshot=InlineSnapshot(view))
        merged = pool.run(tasks)
        assert all(outcome.ok for outcome in merged.outcomes)
        assert [o.value for o in merged.outcomes] == expected
