"""Unit tests for the shared query-operator layer (repro.engine)."""

import pytest

from repro.analysis.chokepoints import (
    CHOKE_POINTS,
    OPERATOR_COUNTER_CPS,
)
from repro.engine import (
    expand,
    group_agg,
    group_count,
    plan_messages,
    reset_counters,
    scan_forum_morsel,
    scan_forum_posts,
    scan_forums,
    scan_message_morsel,
    scan_messages,
    scan_person_morsel,
    scan_persons,
    scan_tag_morsel,
    top_k,
)
from repro.engine.stats import COUNTER_NAMES, counters
from repro.graph.store import SocialGraph
from repro.params.curation import ParameterGenerator
from repro.queries.bi.morsels import MORSEL_PLANS
from repro.util.dates import make_datetime


def _ids(messages):
    return sorted(m.id for m in messages)


WINDOW = (make_datetime(2010, 6, 1), make_datetime(2012, 6, 1))

#: Graph layouts, in the column order of ``ACCESS`` below.
LAYOUTS = ("live", "no-indexes", "frozen", "overlaid")

#: Predicate set -> the access label expected per layout.  Every label
#: but ``"full"`` tallies ``index_scans``; ``"full"`` tallies
#: ``full_scans``.
_BY_WINDOW = ("window-filter", "full", "frozen-date-column",
              "frozen-overlay-merge")
_BY_TAG = ("tag-index", "full", "tag-index", "tag-index")
_BY_CREATOR = ("creator-index", "full", "creator-index", "creator-index")
_FULL = ("full",) * 4
ACCESS = {
    "none": _FULL,
    "window": _BY_WINDOW,
    "open-start": _BY_WINDOW,
    "open-end": _BY_WINDOW,
    "window+post": _BY_WINDOW,
    "window+language": _BY_WINDOW,
    "tag": _BY_TAG,
    "tag+window": _BY_TAG,
    "tag+window+comment": _BY_TAG,
    "creator": _BY_CREATOR,
    "creator+window+post": _BY_CREATOR,
    "creator+window+comment": _BY_CREATOR,
    "creator+language": _BY_CREATOR,
    "post": _FULL,
    "language": _FULL,
}


@pytest.fixture(scope="module")
def layouts(tiny_net, tiny_graph):
    from repro.datagen.update_streams import build_update_streams
    from repro.graph.frozen import FreezeManager, freeze
    from repro.queries.interactive.updates import ALL_UPDATES

    base = SocialGraph.from_data(tiny_net, until=tiny_net.cutoff)
    manager = FreezeManager(base)
    manager.frozen()
    for op in build_update_streams(tiny_net)[:40]:
        try:
            ALL_UPDATES[op.operation_id][0](base, op.params)
        except (KeyError, ValueError):
            pass
    # A few base deletes inside the window, so the overlaid scans run
    # through non-empty tombstone masks on both slabs.
    start, end = WINDOW
    for table, delete in ((base.posts, base.delete_post),
                          (base.comments, base.delete_comment)):
        doomed = sorted(
            mid for mid, m in table.items() if start <= m.creation_date < end
        )[::7][:3]
        for mid in doomed:
            delete(mid)
    overlaid = manager.frozen()
    overlay = overlaid.delta_overlay
    assert overlay.messages_dirty("post")
    assert overlay.messages_dirty("comment")
    for slab in ("post", "comment"):
        assert 0 in overlay.live_mask(overlaid, slab)
    yield dict(zip(LAYOUTS, (
        tiny_graph,
        SocialGraph.from_data(tiny_net, use_indexes=False),
        freeze(tiny_graph),
        overlaid,
    )))
    manager.detach()


def _predicates(graph, name):
    """The keyword arguments of one ``ACCESS`` row, bound to values the
    graph actually has."""
    start, end = WINDOW
    inside = [
        m for m in graph.messages() if start <= m.creation_date < end
    ]
    # A Person with a Post and a Comment in the window, and the tag of
    # a windowed Comment, keep every combined cell non-vacuous.
    creator = next(
        p.creator_id for p in inside
        if not p.is_comment and any(
            c.is_comment and c.creator_id == p.creator_id for c in inside
        )
    )
    post = next(
        p for p in graph.posts.values() if p.creator_id == creator
    )
    tagged = next(m for m in inside if m.is_comment and m.tag_ids)
    parts = {
        "none": {},
        "window": {"window": WINDOW},
        "open-start": {"window": (None, end)},
        "open-end": {"window": (start, None)},
        "tag": {"tag": next(iter(tagged.tag_ids))},
        "creator": {"creator": creator},
        "post": {"kind": "post"},
        "comment": {"kind": "comment"},
        "language": {"language": [post.language]},
    }
    kwargs = {}
    for part in name.split("+"):
        kwargs.update(parts[part])
    return kwargs


def _naive(graph, window=None, tag=None, creator=None, kind=None,
           language=None):
    start, end = window or (None, None)
    return _ids(
        m for m in graph.messages()
        if (start is None or m.creation_date >= start)
        and (end is None or m.creation_date < end)
        and (tag is None or tag in m.tag_ids)
        and (creator is None or m.creator_id == creator)
        and (kind is None or m.is_comment == (kind == "comment"))
        and (language is None
             or graph.language_of_message(m) in language)
    )


class TestAccessPathMatrix:
    """Layout x predicates -> the plan (inspected before it runs), then
    the rows and the scan tally once drained."""

    @pytest.mark.parametrize("predicates", sorted(ACCESS))
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_plan_then_rows(self, layouts, layout, predicates):
        graph = layouts[layout]
        kwargs = _predicates(graph, predicates)
        access = ACCESS[predicates][LAYOUTS.index(layout)]
        reset_counters()
        plan = plan_messages(graph, **kwargs)
        assert plan.operator == "scan_messages"
        assert plan.access == access
        assert plan.counter == (
            "full_scans" if access == "full" else "index_scans"
        )
        assert (plan.chunks is not None) == access.startswith("frozen-")
        assert counters().as_dict(skip_zero=True) == {}  # nothing ran yet
        rows = list(plan.execute())
        snap = reset_counters()
        assert rows, "vacuous cell: the fixture has no matching message"
        assert _ids(rows) == _naive(graph, **kwargs)
        assert snap.as_dict(skip_zero=True) == {
            plan.counter: 1, "rows_scanned": len(rows),
        }

    def test_scan_is_the_plan_executed(self, layouts):
        for graph in layouts.values():
            assert [m.id for m in scan_messages(graph, window=WINDOW)] == [
                m.id for m in plan_messages(graph, window=WINDOW).execute()
            ]
        reset_counters()

    def test_abandoned_scan_still_flushes_rows(self, tiny_graph):
        reset_counters()
        scan = scan_messages(tiny_graph)
        next(scan)
        scan.close()  # early LIMIT-style termination
        assert counters().rows_scanned == 1
        reset_counters()


class TestMorselPlansConcatenate:
    """Every ``MORSEL_PLANS`` decomposition, at the scan level: the
    morsels in submission order yield the serial scan's rows, and only
    the lead ticks the scan counter."""

    @pytest.mark.parametrize("number", sorted(MORSEL_PLANS))
    def test_morsels_concatenate_to_serial(self, layouts, tiny_graph,
                                           tiny_config, number):
        frozen = layouts["frozen"]
        plan = MORSEL_PLANS[number]
        binding = tuple(
            ParameterGenerator(tiny_graph, tiny_config).bi(number, count=1)[0]
        )
        window = None if plan.window is None else plan.window(binding)
        key = None if plan.key is None else plan.key(frozen, binding)
        if plan.kind == "forum":
            serial = scan_forums(frozen)
            morsel = lambda lo, hi, lead: scan_forum_morsel(  # noqa: E731
                frozen, lo, hi, lead=lead)
        elif plan.kind == "person":
            serial = scan_persons(frozen, country=key)
            morsel = lambda lo, hi, lead: scan_person_morsel(  # noqa: E731
                frozen, lo, hi, country=key, lead=lead)
        elif plan.kind == "tag":
            serial = scan_messages(frozen, tag=key)
            morsel = lambda lo, hi, lead: scan_tag_morsel(  # noqa: E731
                frozen, key, lo, hi, lead=lead)
        else:
            serial = scan_messages(frozen, window=window, kind=plan.kind)
        reset_counters()
        expected = [row.id for row in serial]
        serial_tally = reset_counters().as_dict(skip_zero=True)
        ranges = plan.ranges(frozen, binding, 1)  # one row per morsel
        assert len(ranges) > 1 or not expected
        rows = []
        for index, (slab_kind, lo, hi) in enumerate(ranges):
            if plan.kind in ("forum", "person", "tag"):
                rows.extend(morsel(lo, hi, index == 0))
            else:
                rows.extend(scan_message_morsel(
                    frozen, slab_kind, lo, hi, window=window,
                    lead=index == 0))
        assert [row.id for row in rows] == expected
        assert reset_counters().as_dict(skip_zero=True) == serial_tally
        assert sum(
            serial_tally.get(name, 0)
            for name in ("index_scans", "full_scans")
        ) == 1


class TestScanForumPosts:
    def test_matches_forum_contents(self, tiny_graph):
        window = WINDOW
        forum = next(
            f for f in tiny_graph.forums.values()
            if tiny_graph.posts_in_forum(f.id)
        )
        expected = _ids(
            p
            for p in tiny_graph.posts_in_forum(forum.id)
            if window[0] <= p.creation_date < window[1]
        )
        assert _ids(
            scan_forum_posts(tiny_graph, forum.id, window=window)
        ) == expected
        assert _ids(scan_forum_posts(tiny_graph, forum.id)) == _ids(
            tiny_graph.posts_in_forum(forum.id)
        )


class TestIndexMaintenance:
    """Deletes must evict from the month/tag/forum indexes."""

    def test_delete_post_evicts_from_indexes(self, tiny_net):
        graph = SocialGraph.from_data(tiny_net)
        post = next(p for p in graph.posts.values() if p.tag_ids)
        tag = next(iter(post.tag_ids))
        month = (post.creation_date, post.creation_date + 1)
        assert post.id in _ids(scan_messages(graph, window=month))
        assert post.id in _ids(scan_messages(graph, tag=tag))
        graph.delete_post(post.id)
        assert post.id not in _ids(scan_messages(graph, window=month))
        assert post.id not in _ids(scan_messages(graph, tag=tag))
        assert post.id not in _ids(scan_forum_posts(graph, post.forum_id))

    def test_delete_comment_evicts_from_indexes(self, tiny_net):
        graph = SocialGraph.from_data(tiny_net)
        comment = next(
            c for c in graph.comments.values()
            if c.tag_ids and not graph.replies_of(c.id)
        )
        tag = next(iter(comment.tag_ids))
        graph.delete_comment(comment.id)
        assert comment.id not in _ids(scan_messages(graph, tag=tag))
        assert comment.id not in _ids(
            scan_messages(
                graph,
                window=(comment.creation_date, comment.creation_date + 1),
            )
        )


class TestCounters:
    def test_expand_counts_edges(self, tiny_graph):
        persons = sorted(tiny_graph.persons)[:10]
        reset_counters()
        pairs = list(expand(persons, tiny_graph.friends_of))
        snap = reset_counters()
        assert snap.edges_expanded == len(pairs)
        assert pairs == [
            (p, f) for p in persons for f in tiny_graph.friends_of(p)
        ]

    def test_group_operators_count_groups(self):
        reset_counters()
        groups = group_count(["a", "b", "a", "c"])
        assert groups == {"a": 2, "b": 1, "c": 1}
        aggs = group_agg(
            [1, 2, 3, 4],
            key=lambda x: x % 2,
            zero=lambda: [0],
            fold=lambda acc, x: acc.__setitem__(0, acc[0] + x),
        )
        snap = reset_counters()
        assert {k: v[0] for k, v in aggs.items()} == {0: 6, 1: 4}
        assert snap.groups_created == 3 + 2

    def test_top_k_counts_heap_activity(self):
        reset_counters()
        top = top_k(2, key=lambda x: x)
        for value in range(100):
            top.add(value)
        assert top.result() == [0, 1]
        snap = reset_counters()
        # Ascending adds past the 64-entry buffer: one compaction sets
        # the threshold, later rows are rejected without buffering, and
        # every offered row is tallied regardless of outcome.
        assert snap.heap_inserts == 100
        assert snap.heap_evictions > 0
        assert snap.heap_rejections > 0
        assert (
            snap.heap_inserts
            >= snap.heap_rejections + snap.heap_evictions
        )


class TestChokePointMapping:
    def test_every_counter_maps_to_a_choke_point(self):
        known = {cp.identifier for cp in CHOKE_POINTS}
        for name in COUNTER_NAMES:
            assert name in OPERATOR_COUNTER_CPS, name
        for name, cp in OPERATOR_COUNTER_CPS.items():
            assert cp in known, f"{name} -> unknown CP {cp}"
