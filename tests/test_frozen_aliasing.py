"""The snapshot-aliasing invariant, end to end.

``FrozenGraph`` adopts the live store's tables *by reference*; the
delta-overlay lifecycle only works if every store mutator edits those
tables in place — a mutator that rebinds a table (the old
filtered-list-rebind idiom) silently forks the snapshot from the live
store: the frozen view keeps serving the stale object while the store
moves on.  The converse holds for reads: a frozen view must never
mutate the columns it built or adopted, or one read skews the next.

The tests here (1) pin the identity contract across a freeze +
``delete_post`` cycle, (2) demonstrate the failure mode with an
*injected* rebinding delete, and (3) check both invariants over the
real code paths: the full interleaved insert/delete microbatch stream
(a person cascade included) must leave every live table the same
object, shared by the manager's view, and all 25 BI and 14 IC reads on
a clean snapshot and on the overlaid view must leave every frozen
column byte- and identity-equal.
"""

from __future__ import annotations

import math
from array import array

import pytest

from repro.driver.bi_driver import build_microbatches
from repro.graph.delta import OverlaidGraph
from repro.graph.frozen import FreezeManager, FrozenGraph, StringColumn, freeze
from repro.graph.store import SocialGraph
from repro.params.curation import ParameterGenerator

from tests.builders import GraphBuilder, run_every_read, ts
from tests.test_delta_overlay import _apply_batch

#: The frozen column families: ``FrozenGraph``'s underscore-prefixed
#: class-level annotations.
COLUMN_FAMILIES = sorted(
    name for name in FrozenGraph.__annotations__ if name.startswith("_")
)


def _loaded_builder() -> tuple[GraphBuilder, int, int, int]:
    b = GraphBuilder()
    author = b.person()
    reader = b.person(first_name="Bob")
    forum = b.forum(moderator=author)
    b.member(forum, author)
    b.member(forum, reader)
    doomed = b.post(author, forum, created=ts(3, 1))
    b.post(author, forum, created=ts(3, 2))
    b.like(reader, doomed)
    return b, forum, doomed, author


class TestFrozenAliasingRegression:
    def test_snapshot_shares_live_tables_by_identity(self):
        b, forum, doomed, _ = _loaded_builder()
        snapshot = freeze(b.graph)
        assert snapshot.posts is b.graph.posts
        assert snapshot.forums is b.graph.forums
        assert (
            snapshot._forum_posts_by_date is b.graph._forum_posts_by_date
        )

    def test_delete_post_keeps_overlay_view_on_live_tables(self):
        """Freeze, delete, re-read: the overlay view must still see the
        *same* live table objects — in-place removal, no rebinds."""
        b, forum, doomed, _ = _loaded_builder()
        manager = FreezeManager(b.graph)
        manager.frozen()  # build the snapshot before the write

        posts_table = b.graph.posts
        dated = b.graph._forum_posts_by_date[forum]
        b.graph.delete_post(doomed)

        view = manager.frozen()
        assert isinstance(view, OverlaidGraph)
        # identity: the delete mutated the shared objects in place.
        assert b.graph.posts is posts_table
        assert b.graph._forum_posts_by_date[forum] is dated
        assert view.posts is posts_table
        assert view._forum_posts_by_date[forum] is dated
        # and the removal is visible through the shared date list.
        assert all(mid != doomed for _, mid in dated)
        assert doomed not in view.posts

    def test_injected_rebind_breaks_aliasing(self):
        """The failure mode the stream test below guards against,
        demonstrated live: a delete that *rebinds* the forum date list
        forks every existing snapshot from the live store."""
        b, forum, doomed, _ = _loaded_builder()
        snapshot = freeze(b.graph)

        # The old idiom: filtered-list rebind instead of in-place
        # removal.
        b.graph._forum_posts_by_date[forum] = [
            entry
            for entry in b.graph._forum_posts_by_date[forum]
            if entry[1] != doomed
        ]
        rebound = b.graph._forum_posts_by_date[forum]

        # The *table* object holding per-forum lists is still shared...
        assert snapshot._forum_posts_by_date is b.graph._forum_posts_by_date
        # ...so here the fork is visible one level down only because the
        # shared dict was written through.  Rebinding the whole table
        # attribute severs even that:
        b.graph._forum_posts_by_date = dict(b.graph._forum_posts_by_date)
        b.graph._forum_posts_by_date[forum] = list(rebound)
        assert (
            snapshot._forum_posts_by_date
            is not b.graph._forum_posts_by_date
        )
        # The snapshot now serves stale state: the identity contract the
        # regression test above pins is exactly what broke.
        b.graph._forum_posts_by_date[forum].append((ts(4, 1), 999))
        assert (
            snapshot._forum_posts_by_date[forum]
            != b.graph._forum_posts_by_date[forum]
        )


# -- the invariants over the real stream ------------------------------------


def _digest(value):
    """An identity-and-content fingerprint of one frozen column: buffer
    bytes for arrays and memoryviews, length plus element identities
    for lists and dicts (recursing into per-key containers)."""
    if isinstance(value, (array, memoryview)):
        return id(value), bytes(value)
    if isinstance(value, StringColumn):
        return id(value), _digest(value.codes), _digest(value.dictionary)
    if isinstance(value, list):
        return id(value), len(value), tuple(map(_digest, value))
    if isinstance(value, dict):
        return id(value), len(value), tuple(
            (id(key), _digest(item)) for key, item in value.items()
        )
    return id(value)


def _column_digests(graph):
    return {name: _digest(getattr(graph, name)) for name in COLUMN_FAMILIES}


@pytest.fixture(scope="module")
def streamed(tiny_net, tiny_config):
    """``(live, tables, manager, params)``: ``tables`` holds every
    container attribute of the freshly loaded store, captured *before*
    the freeze; the full microbatch stream has since applied under a
    never-compacting manager, so ``manager.frozen()`` is the overlay
    view over the pre-stream snapshot."""
    live = SocialGraph.from_data(tiny_net, until=tiny_net.cutoff)
    tables = {
        name: value
        for name, value in vars(live).items()
        if isinstance(value, (list, dict, set))
    }
    manager = FreezeManager(live, compact_fraction=math.inf)
    manager.frozen()
    for batch in build_microbatches(tiny_net):
        _apply_batch(live, batch)
    yield live, tables, manager, ParameterGenerator(live, tiny_config)
    manager.detach()


class TestInvariantsOverTheStream:
    def test_stream_never_rebinds_a_live_table(self, streamed):
        """Every store mutator — inserts, deletes and the person
        cascade alike — edits the live tables in place, so the snapshot
        frozen before the stream still shares each one."""
        live, tables, manager, _ = streamed
        view = manager.frozen()
        assert isinstance(view, OverlaidGraph)
        assert len(tables) > 30
        rebound = [name for name, table in tables.items()
                   if getattr(live, name) is not table]
        assert rebound == [], f"store rebound {rebound}"
        unshared = [name for name, table in tables.items()
                    if getattr(view, name) is not table]
        assert unshared == [], f"overlay view lost {unshared}"

    def test_reads_never_mutate_frozen_columns(self, streamed):
        """Every BI, IC and IS read, on a clean snapshot and on the
        overlaid view the stream left behind, leave every column family
        the same object with the same contents."""
        live, _, manager, params = streamed
        for graph in (freeze(live), manager.frozen()):
            before = _column_digests(graph)
            run_every_read(graph, params, live)
            after = _column_digests(graph)
            changed = [name for name in COLUMN_FAMILIES
                       if after[name] != before[name]]
            assert changed == [], (
                f"{type(graph).__name__} reads mutated {changed}"
            )
