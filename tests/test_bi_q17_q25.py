"""Exact-semantics tests for BI 17 - BI 25 on hand-built graphs."""

import pytest

from repro.queries.bi import bi17, bi18, bi19, bi20, bi21, bi22, bi23, bi24, bi25
from repro.util.dates import make_date

from tests.builders import (
    FRANCE,
    GraphBuilder,
    JAPAN,
    PARIS,
    TAG_BEBOP,
    TAG_JAZZ,
    TAG_ROCK,
    TAG_SUMO,
    TOKYO,
    birthday,
    ties_reversed,
    ts,
)


class TestBi17FriendTriangles:
    def test_counts_triangles(self):
        b = GraphBuilder()
        p = [b.person(city=PARIS) for _ in range(4)]
        b.knows(p[0], p[1])
        b.knows(p[1], p[2])
        b.knows(p[0], p[2])  # triangle 0-1-2
        b.knows(p[2], p[3])  # open wedge
        assert bi17(b.graph, "France") == [(1,)]

    def test_all_vertices_must_be_in_country(self):
        b = GraphBuilder()
        a = b.person(city=PARIS)
        c = b.person(city=PARIS)
        outsider = b.person(city=TOKYO)
        b.knows(a, c)
        b.knows(c, outsider)
        b.knows(a, outsider)
        assert bi17(b.graph, "France") == [(0,)]

    def test_two_triangles_sharing_an_edge(self):
        b = GraphBuilder()
        p = [b.person(city=PARIS) for _ in range(4)]
        b.knows(p[0], p[1])
        b.knows(p[1], p[2])
        b.knows(p[0], p[2])
        b.knows(p[1], p[3])
        b.knows(p[2], p[3])
        assert bi17(b.graph, "France") == [(2,)]


class TestBi18MessageCountHistogram:
    def _world(self):
        b = GraphBuilder()
        ann = b.person()
        bob = b.person()
        forum = b.forum(ann)
        return b, ann, bob, forum

    def test_histogram_includes_zero_count_persons(self):
        b, ann, bob, forum = self._world()
        b.post(ann, forum, created=ts(6, 1), content="short", language="en")
        rows = bi18(b.graph, make_date(2012, 1, 1), 100, ["en"])
        assert (1, 1) in rows   # ann: one message
        assert (0, 1) in rows   # bob: zero messages

    def test_length_threshold_strict(self):
        b, ann, bob, forum = self._world()
        b.post(ann, forum, created=ts(6, 1), content="x" * 10, language="en")
        rows = bi18(b.graph, make_date(2012, 1, 1), 10, ["en"])
        assert all(r.message_count == 0 for r in rows)

    def test_empty_content_excluded(self):
        b, ann, bob, forum = self._world()
        b.post(ann, forum, created=ts(6, 1), image_file="x.jpg", language="en")
        rows = bi18(b.graph, make_date(2012, 1, 1), 100, ["en"])
        assert all(r.message_count == 0 for r in rows)

    def test_comment_language_from_root_post(self):
        b, ann, bob, forum = self._world()
        post = b.post(ann, forum, created=ts(6, 1), language="fr", content="x" * 300)
        b.comment(bob, post, created=ts(6, 2), content="ok")
        rows = bi18(b.graph, make_date(2012, 1, 1), 100, ["fr"])
        by_count = dict((r.message_count, r.person_count) for r in rows)
        # The post itself is too long; only bob's comment (root language
        # fr) qualifies.
        assert by_count == {1: 1, 0: 1}

    def test_sorting(self):
        b, ann, bob, forum = self._world()
        b.post(ann, forum, created=ts(6, 1), content="hey", language="en")
        rows = bi18(b.graph, make_date(2012, 1, 1), 100, ["en"])
        assert rows == sorted(
            rows, key=lambda r: (-r.person_count, -r.message_count)
        )


class TestBi19StrangersInteraction:
    def _world(self):
        b = GraphBuilder()
        young = b.person(born=birthday(1994))
        stranger = b.person(born=birthday(1980))
        music_forum = b.forum(stranger, tags=(TAG_ROCK,), title="Group m")
        sport_forum = b.forum(stranger, tags=(TAG_SUMO,), title="Group s")
        b.member(music_forum, stranger)
        b.member(sport_forum, stranger)
        post = b.post(stranger, music_forum)
        return b, young, stranger, post

    def test_interaction_counted(self):
        b, young, stranger, post = self._world()
        b.comment(young, post)
        b.comment(young, post)
        rows = bi19(b.graph, make_date(1990, 1, 1), "Music", "Sport")
        assert rows == [(young, 1, 2)]

    def test_friends_are_not_strangers(self):
        b, young, stranger, post = self._world()
        b.knows(young, stranger)
        b.comment(young, post)
        assert bi19(b.graph, make_date(1990, 1, 1), "Music", "Sport") == []

    def test_birthday_filter(self):
        b, young, stranger, post = self._world()
        b.comment(young, post)
        assert bi19(b.graph, make_date(1995, 1, 1), "Music", "Sport") == []

    def test_stranger_needs_both_forum_classes(self):
        b = GraphBuilder()
        young = b.person(born=birthday(1994))
        half = b.person(born=birthday(1980))
        music_forum = b.forum(half, tags=(TAG_ROCK,))
        b.member(music_forum, half)  # member of a Music forum only
        post = b.post(half, music_forum)
        b.comment(young, post)
        assert bi19(b.graph, make_date(1990, 1, 1), "Music", "Sport") == []


class TestBi20HighLevelTopics:
    def test_counts_descendant_tags(self):
        b = GraphBuilder()
        ann = b.person()
        forum = b.forum(ann)
        b.post(ann, forum, tags=(TAG_ROCK,))    # Music directly
        b.post(ann, forum, tags=(TAG_BEBOP,))   # JazzGenre < Music
        b.post(ann, forum, tags=(TAG_SUMO,))    # Sport
        rows = bi20(b.graph, ["Music", "Sport"])
        assert rows == [("Music", 2), ("Sport", 1)]

    def test_distinct_messages(self):
        b = GraphBuilder()
        ann = b.person()
        forum = b.forum(ann)
        b.post(ann, forum, tags=(TAG_ROCK, TAG_JAZZ))  # both Music tags
        rows = bi20(b.graph, ["Music"])
        assert rows == [("Music", 1)]

    def test_sort_count_desc_name_asc(self):
        b = GraphBuilder()
        ann = b.person()
        forum = b.forum(ann)
        b.post(ann, forum, tags=(TAG_ROCK,))
        b.post(ann, forum, tags=(TAG_SUMO,))
        rows = bi20(b.graph, ["Sport", "Music"])
        assert rows == [("Music", 1), ("Sport", 1)]


class TestBi21Zombies:
    def test_zombie_detection_and_score(self):
        b = GraphBuilder()
        zombie = b.person(city=PARIS, created=ts(1, 2, 2010))
        other_zombie = b.person(city=PARIS, created=ts(1, 2, 2010))
        active = b.person(city=PARIS, created=ts(1, 2, 2010))
        forum = b.forum(active)
        # ~30 months to mid-2012: active writes plenty, zombies nothing.
        for day in range(1, 29):
            b.post(active, forum, created=ts(2, day, 2011))
            b.post(active, forum, created=ts(3, day, 2011))
        zombie_post = b.post(zombie, forum, created=ts(2, 1, 2011))
        b.like(other_zombie, zombie_post, created=ts(2, 2, 2011))
        b.like(active, zombie_post, created=ts(2, 3, 2011))
        rows = bi21(b.graph, "France", make_date(2012, 7, 1))
        by_id = {r.zombie_id: r for r in rows}
        assert set(by_id) == {zombie, other_zombie}
        assert by_id[zombie].zombie_like_count == 1
        assert by_id[zombie].total_like_count == 2
        assert by_id[zombie].zombie_score == pytest.approx(0.5)
        assert by_id[other_zombie].zombie_score == 0.0

    def test_tied_zombies_order_by_id(self):
        """Three zombies tie on score 0.0: the id tie-breaker orders
        them, whichever way the sort breaks ties."""
        b = GraphBuilder()
        zombies = [b.person(city=PARIS, created=ts(1, 2, 2010))
                   for _ in range(3)]
        with ties_reversed():
            rows = bi21(b.graph, "France", make_date(2012, 7, 1))
        assert [r.zombie_id for r in rows] == zombies
        assert {r.zombie_score for r in rows} == {0.0}

    def test_person_created_after_end_date_excluded(self):
        b = GraphBuilder()
        b.person(city=PARIS, created=ts(6, 1, 2012))
        assert bi21(b.graph, "France", make_date(2012, 1, 1)) == []

    def test_likes_from_late_profiles_ignored(self):
        b = GraphBuilder()
        zombie = b.person(city=PARIS, created=ts(1, 2, 2010))
        late = b.person(city=PARIS, created=ts(6, 1, 2012))
        forum = b.forum(zombie)
        post = b.post(zombie, forum, created=ts(2, 1, 2011))
        b.like(late, post, created=ts(6, 2, 2012))
        rows = bi21(b.graph, "France", make_date(2012, 3, 1))
        by_id = {r.zombie_id: r for r in rows}
        assert by_id[zombie].total_like_count == 0
        assert by_id[zombie].zombie_score == 0.0


class TestBi22InternationalDialog:
    def test_scores_and_city_grouping(self):
        b = GraphBuilder()
        ann = b.person(city=PARIS)
        kenji = b.person(city=TOKYO)
        b.knows(ann, kenji)                       # +10
        forum = b.forum(ann)
        post = b.post(kenji, forum)
        b.comment(ann, post)                      # ann replied to kenji: +4
        b.like(kenji, b.post(ann, forum))         # like kenji->ann: +1
        rows = bi22(b.graph, "France", "Japan")
        assert rows == [(ann, kenji, "Paris", 15)]

    def test_best_pair_per_city(self):
        b = GraphBuilder()
        ann = b.person(city=PARIS)
        eve = b.person(city=PARIS)
        kenji = b.person(city=TOKYO)
        b.knows(ann, kenji)       # 10
        forum = b.forum(eve)
        post = b.post(kenji, forum)
        b.comment(eve, post)      # 4
        rows = bi22(b.graph, "France", "Japan")
        # One Paris row only: the higher-scoring (ann, kenji) pair.
        assert rows == [(ann, kenji, "Paris", 10)]

    def test_like_cap(self):
        b = GraphBuilder()
        ann = b.person(city=PARIS)
        kenji = b.person(city=TOKYO)
        forum = b.forum(ann)
        for day in range(1, 16):
            post = b.post(kenji, forum, created=ts(4, day))
            b.like(ann, post, created=ts(4, day, hour=13))
        rows = bi22(b.graph, "France", "Japan")
        assert rows[0].score == 10  # 15 likes capped at 10

    def test_no_interaction_no_rows(self):
        b = GraphBuilder()
        b.person(city=PARIS)
        b.person(city=TOKYO)
        assert bi22(b.graph, "France", "Japan") == []


class TestBi23HolidayDestinations:
    def test_groups_by_destination_and_month(self):
        b = GraphBuilder()
        ann = b.person(city=PARIS)
        forum = b.forum(ann)
        b.post(ann, forum, created=ts(7, 1), country=JAPAN)
        b.post(ann, forum, created=ts(7, 15), country=JAPAN)
        b.post(ann, forum, created=ts(8, 1), country=JAPAN)
        b.post(ann, forum, created=ts(7, 2), country=FRANCE)  # home: excluded
        rows = bi23(b.graph, "France")
        assert rows == [(2, "Japan", 7), (1, "Japan", 8)]

    def test_only_residents_counted(self):
        b = GraphBuilder()
        kenji = b.person(city=TOKYO)
        forum = b.forum(kenji)
        b.post(kenji, forum, created=ts(7, 1), country=FRANCE)
        assert bi23(b.graph, "France") == []

    def test_comments_count(self):
        b = GraphBuilder()
        ann = b.person(city=PARIS)
        forum = b.forum(ann)
        post = b.post(ann, forum, created=ts(7, 1), country=FRANCE)
        b.comment(ann, post, created=ts(7, 2), country=JAPAN)
        rows = bi23(b.graph, "France")
        assert rows == [(1, "Japan", 7)]


class TestBi24MessagesByTopic:
    def test_groups_by_year_month_continent(self):
        b = GraphBuilder()
        ann = b.person()
        fan = b.person()
        forum = b.forum(ann)
        p1 = b.post(ann, forum, created=ts(5, 1), tags=(TAG_ROCK,), country=FRANCE)
        b.post(ann, forum, created=ts(5, 2), tags=(TAG_JAZZ,), country=JAPAN)
        b.like(fan, p1)
        rows = bi24(b.graph, "Music")
        assert rows == [
            (1, 0, 2012, 5, "Asia"),
            (1, 1, 2012, 5, "Europe"),
        ]

    def test_distinct_messages_with_multiple_class_tags(self):
        b = GraphBuilder()
        ann = b.person()
        forum = b.forum(ann)
        b.post(ann, forum, created=ts(5, 1), tags=(TAG_ROCK, TAG_JAZZ), country=FRANCE)
        rows = bi24(b.graph, "Music")
        assert rows[0].message_count == 1

    def test_direct_class_only(self):
        b = GraphBuilder()
        ann = b.person()
        forum = b.forum(ann)
        b.post(ann, forum, tags=(TAG_BEBOP,), country=FRANCE)
        assert bi24(b.graph, "Music") == []


class TestBi25TrustedConnectionPaths:
    def _diamond(self):
        """start - (mid1 | mid2) - end, two shortest paths."""
        b = GraphBuilder()
        start = b.person()
        mid1 = b.person()
        mid2 = b.person()
        end = b.person()
        b.knows(start, mid1)
        b.knows(start, mid2)
        b.knows(mid1, end)
        b.knows(mid2, end)
        return b, start, mid1, mid2, end

    def test_weights_rank_paths(self):
        b, start, mid1, mid2, end = self._diamond()
        forum = b.forum(start)
        post = b.post(start, forum, created=ts(4, 1))
        b.comment(mid1, post, created=ts(4, 2))           # start-mid1 +1.0
        reply = b.comment(end, post, created=ts(4, 3))
        b.comment(mid2, reply, created=ts(4, 4))          # mid2-end +0.5
        rows = bi25(
            b.graph, start, end, make_date(2012, 1, 1), make_date(2013, 1, 1)
        )
        assert len(rows) == 2
        assert rows[0].person_ids_in_path == (start, mid1, end)
        assert rows[0].path_weight == pytest.approx(1.0)
        assert rows[1].person_ids_in_path == (start, mid2, end)
        assert rows[1].path_weight == pytest.approx(0.5)

    def test_window_filters_interactions(self):
        b, start, mid1, mid2, end = self._diamond()
        forum = b.forum(start)
        post = b.post(start, forum, created=ts(4, 1, 2010))
        b.comment(mid1, post, created=ts(4, 2, 2010))  # outside window
        rows = bi25(
            b.graph, start, end, make_date(2012, 1, 1), make_date(2013, 1, 1)
        )
        assert all(r.path_weight == 0.0 for r in rows)

    def test_disconnected_returns_empty(self):
        b = GraphBuilder()
        a = b.person()
        z = b.person()
        assert bi25(b.graph, a, z, make_date(2012, 1, 1), make_date(2013, 1, 1)) == []

    def test_only_shortest_paths(self):
        b, start, mid1, mid2, end = self._diamond()
        b.knows(start, end)  # now a 1-hop path exists
        rows = bi25(
            b.graph, start, end, make_date(2012, 1, 1), make_date(2013, 1, 1)
        )
        assert len(rows) == 1
        assert rows[0].person_ids_in_path == (start, end)
