"""Tests for the graph store: adjacency correctness, inserts, ablation."""

import contextlib
import gc
import pickle

import pytest

from repro.graph.store import SocialGraph
from repro.util.alloc import collector_paused
from repro.schema.entities import Comment, ForumKind, Post

from tests.builders import (
    FRANCE,
    GraphBuilder,
    JAPAN,
    PARIS,
    TAG_BEBOP,
    TAG_JAZZ,
    TAG_ROCK,
    TC_JAZZ,
    TC_MUSIC,
    TC_THING,
    TOKYO,
    ts,
)


@pytest.fixture
def simple():
    b = GraphBuilder()
    alice = b.person(city=PARIS, first_name="Alice")
    bob = b.person(city=TOKYO, first_name="Bob")
    carol = b.person(city=PARIS, first_name="Carol", interests=(TAG_JAZZ,))
    b.knows(alice, bob, ts(1, 10, 2010))
    forum = b.forum(alice, tags=(TAG_ROCK,))
    b.member(forum, bob)
    post = b.post(alice, forum, tags=(TAG_ROCK,))
    comment = b.comment(bob, post, tags=(TAG_JAZZ,))
    nested = b.comment(carol, comment)
    b.like(bob, post)
    b.like(carol, comment)
    b.study(alice, 0, 2006)
    b.work(bob, 3, 2010)
    return b, dict(
        alice=alice, bob=bob, carol=carol, forum=forum,
        post=post, comment=comment, nested=nested,
    )


class TestEntityAccess:
    def test_message_union(self, simple):
        b, ids = simple
        assert isinstance(b.graph.message(ids["post"]), Post)
        assert isinstance(b.graph.message(ids["comment"]), Comment)

    def test_has_message(self, simple):
        b, ids = simple
        assert b.graph.has_message(ids["post"])
        assert not b.graph.has_message(99999)

    def test_messages_iterates_all(self, simple):
        b, _ = simple
        assert len(list(b.graph.messages())) == 3

    def test_duplicate_person_rejected(self, simple):
        b, _ = simple
        from repro.schema.entities import Person

        with pytest.raises(ValueError):
            b.graph.add_person(
                Person(0, "X", "Y", "male", 0, 0, "ip", "b", PARIS)
            )

    def test_duplicate_message_id_rejected(self, simple):
        b, ids = simple
        post = b.graph.posts[ids["post"]]
        with pytest.raises(ValueError):
            b.graph.add_post(post)


class TestAdjacency:
    def test_friends_symmetric(self, simple):
        b, ids = simple
        assert ids["bob"] in b.graph.friends_of(ids["alice"])
        assert ids["alice"] in b.graph.friends_of(ids["bob"])
        assert b.graph.friends_of(ids["carol"]) == {}

    def test_friendship_date_stored(self, simple):
        b, ids = simple
        assert b.graph.friends_of(ids["alice"])[ids["bob"]] == ts(1, 10, 2010)

    def test_messages_by(self, simple):
        b, ids = simple
        assert [m.id for m in b.graph.messages_by(ids["alice"])] == [ids["post"]]
        assert [m.id for m in b.graph.messages_by(ids["bob"])] == [ids["comment"]]

    def test_replies_of(self, simple):
        b, ids = simple
        assert [c.id for c in b.graph.replies_of(ids["post"])] == [ids["comment"]]
        assert [c.id for c in b.graph.replies_of(ids["comment"])] == [ids["nested"]]

    def test_parent_of(self, simple):
        b, ids = simple
        nested = b.graph.comments[ids["nested"]]
        assert b.graph.parent_of(nested).id == ids["comment"]

    def test_root_post_of(self, simple):
        b, ids = simple
        nested = b.graph.comments[ids["nested"]]
        assert b.graph.root_post_of(nested).id == ids["post"]
        post = b.graph.posts[ids["post"]]
        assert b.graph.root_post_of(post) is post

    def test_messages_with_tag(self, simple):
        b, ids = simple
        rock = {m.id for m in b.graph.messages_with_tag_in_window(TAG_ROCK)}
        jazz = {m.id for m in b.graph.messages_with_tag_in_window(TAG_JAZZ)}
        assert rock == {ids["post"]}
        assert jazz == {ids["comment"]}

    def test_likes_indexes(self, simple):
        b, ids = simple
        assert len(b.graph.likes_of_message(ids["post"])) == 1
        assert len(b.graph.likes_by_person(ids["carol"])) == 1

    def test_forum_indexes(self, simple):
        b, ids = simple
        assert [m.person_id for m in b.graph.members_of_forum(ids["forum"])] == [
            ids["bob"]
        ]
        assert [m.forum_id for m in b.graph.forums_of_member(ids["bob"])] == [
            ids["forum"]
        ]
        assert [p.id for p in b.graph.posts_in_forum(ids["forum"])] == [ids["post"]]
        assert [f.id for f in b.graph.moderated_forums(ids["alice"])] == [
            ids["forum"]
        ]

    def test_geography(self, simple):
        b, ids = simple
        assert set(b.graph.persons_in_city(PARIS)) == {ids["alice"], ids["carol"]}
        assert set(b.graph.persons_in_country(FRANCE)) == {
            ids["alice"], ids["carol"]
        }
        assert b.graph.country_of_person(ids["bob"]) == JAPAN

    def test_interests(self, simple):
        b, ids = simple
        assert b.graph.persons_interested_in(TAG_JAZZ) == [ids["carol"]]

    def test_study_work(self, simple):
        b, ids = simple
        assert b.graph.study_at_of(ids["alice"])[0].class_year == 2006
        assert b.graph.work_at_of(ids["bob"])[0].work_from == 2010


class TestDeleteKnows:
    """delete_knows must be O(degree): swap-remove through the
    ``_knows_pos`` position map, never an O(E) list rebuild."""

    def _fresh_ring(self, persons: int = 120):
        """A builder graph whose knows edges form a ring plus a hub."""
        b = GraphBuilder()
        ids = [b.person() for _ in range(persons)]
        for i in range(persons):
            b.knows(ids[i], ids[(i + 1) % persons], ts(1, 10, 2010))
        hub = ids[0]
        for other in ids[2:-1]:
            b.knows(hub, other, ts(2, 10, 2010))
        return b.graph, ids

    def test_delete_removes_edge_both_directions(self, simple):
        b, ids = simple
        b.graph.delete_knows(ids["alice"], ids["bob"])
        assert ids["bob"] not in b.graph.friends_of(ids["alice"])
        assert ids["alice"] not in b.graph.friends_of(ids["bob"])
        assert all(
            {e.person1, e.person2} != {ids["alice"], ids["bob"]}
            for e in b.graph.knows_edges
        )

    def test_delete_missing_edge_is_noop(self, simple):
        b, ids = simple
        before = list(b.graph.knows_edges)
        b.graph.delete_knows(ids["alice"], ids["carol"])
        assert b.graph.knows_edges == before

    def test_large_delete_stream_mutates_in_place(self):
        """A long delete stream never replaces the edge list object —
        the swap-remove works in place (the O(E)-rebuild regression
        would allocate a fresh list per delete)."""
        graph, _ = self._fresh_ring()
        edge_list = graph.knows_edges
        doomed = [(e.person1, e.person2) for e in graph.knows_edges]
        for a, b in doomed:
            graph.delete_knows(a, b)
            assert graph.knows_edges is edge_list
        assert graph.knows_edges == []
        assert graph._knows_pos == {}
        assert all(not friends for friends in graph._friends.values())

    def test_position_map_stays_consistent_under_interleaving(self):
        """Shuffled deletes interleaved with re-inserts keep the
        position map exact: every surviving edge is found at its mapped
        slot and the edge list matches a plain set model."""
        from repro.schema.relations import Knows
        from repro.util.rng import DeterministicRng

        graph, ids = self._fresh_ring(80)
        rng = DeterministicRng(7, "delete-knows")
        model = {(e.person1, e.person2) for e in graph.knows_edges}
        pairs = sorted(model)
        rng.shuffle(pairs)
        for round_no, (a, b) in enumerate(pairs):
            graph.delete_knows(a, b)
            model.discard((a, b))
            if round_no % 3 == 0:  # re-insert a previously deleted edge
                graph.add_knows(Knows(a, b, ts(3, 1, 2011)))
                model.add((a, b))
            assert len(graph.knows_edges) == len(model)
        assert {(e.person1, e.person2) for e in graph.knows_edges} == model
        for index, edge in enumerate(graph.knows_edges):
            assert graph._knows_pos[(edge.person1, edge.person2)] == index

    def test_degree_scoped_work(self):
        """Deleting one low-degree edge must not touch the hub's large
        adjacency: only the two endpoint rows change."""
        graph, ids = self._fresh_ring()
        hub_before = dict(graph._friends[ids[0]])
        a, b = ids[40], ids[41]
        graph.delete_knows(a, b)
        assert graph._friends[ids[0]] == hub_before
        assert b not in graph._friends[a]
        assert a not in graph._friends[b]


class TestRelationDeletesInPlace:
    """Like/membership/study/work removals must be O(degree):
    swap-remove through the per-entity position maps, never an O(E)
    ``list.remove`` scan or a full-list rebuild (the `delete_knows`
    pattern, extended to the remaining relation tables)."""

    def _fan_world(self, persons: int = 60):
        """Every person likes every post of a shared forum and joins it;
        persons also carry one study and one work record each."""
        b = GraphBuilder()
        ids = [b.person() for _ in range(persons)]
        forum = b.forum(ids[0])
        posts = [b.post(ids[i % persons], forum) for i in range(8)]
        for pid in ids:
            b.member(forum, pid)
            b.study(pid, pid % 2, 2004 + pid % 6)
            b.work(pid, 2 + pid % 2, 2008 + pid % 4)
            for mid in posts:
                b.like(pid, mid)
        return b, ids, forum, posts

    def test_large_like_delete_stream_mutates_in_place(self):
        """A long like-delete stream never replaces the edge list object
        and drains the position map with it — the O(E) ``list.remove``
        regression would scan the whole table per delete."""
        b, ids, forum, posts = self._fan_world()
        graph = b.graph
        like_list = graph.likes_edges
        doomed = [(lk.person_id, lk.message_id) for lk in graph.likes_edges]
        for person_id, message_id in doomed:
            graph.delete_like(person_id, message_id)
            assert graph.likes_edges is like_list
        assert graph.likes_edges == []
        assert graph._likes_pos == {}

    def test_like_position_map_consistent_under_interleaving(self):
        from repro.util.rng import DeterministicRng

        b, ids, forum, posts = self._fan_world(20)
        graph = b.graph
        rng = DeterministicRng(11, "delete-likes")
        model = {(lk.person_id, lk.message_id) for lk in graph.likes_edges}
        pairs = sorted(model)
        rng.shuffle(pairs)
        for round_no, (person_id, message_id) in enumerate(pairs):
            graph.delete_like(person_id, message_id)
            model.discard((person_id, message_id))
            if round_no % 3 == 0:  # re-insert a previously deleted like
                b.like(person_id, message_id)
                model.add((person_id, message_id))
            assert len(graph.likes_edges) == len(model)
        assert {
            (lk.person_id, lk.message_id) for lk in graph.likes_edges
        } == model
        for index, like in enumerate(graph.likes_edges):
            assert index in graph._likes_pos[
                (like.person_id, like.message_id)
            ]

    def test_membership_delete_stream_mutates_in_place(self):
        b, ids, forum, posts = self._fan_world()
        graph = b.graph
        member_list = graph.memberships
        for pid in ids:
            graph.delete_membership(forum, pid)
            assert graph.memberships is member_list
        assert graph.memberships == []
        assert graph._member_pos == {}

    def test_delete_person_removes_study_work_in_place(self):
        """``delete_person`` must swap-remove the victim's study/work
        rows — not rebuild the tables — so frozen snapshots sharing the
        lists by reference keep aliasing the live store."""
        b, ids, forum, posts = self._fan_world()
        graph = b.graph
        study_list, work_list = graph.study_at, graph.work_at
        survivors = set(ids[1:])
        graph.delete_person(ids[0])
        assert graph.study_at is study_list
        assert graph.work_at is work_list
        assert {r.person_id for r in graph.study_at} == survivors
        assert {r.person_id for r in graph.work_at} == survivors
        assert ids[0] not in graph._study_pos
        assert ids[0] not in graph._work_pos
        for index, record in enumerate(graph.study_at):
            assert index in graph._study_pos[record.person_id]
        for index, record in enumerate(graph.work_at):
            assert index in graph._work_pos[record.person_id]

    def test_person_cascade_drains_every_position_map(self):
        """Deleting every person through the DEL-1 cascade leaves all
        relation tables and their position maps empty and in place."""
        b, ids, forum, posts = self._fan_world(30)
        graph = b.graph
        tables = (
            graph.likes_edges, graph.memberships,
            graph.study_at, graph.work_at,
        )
        for pid in ids:
            graph.delete_person(pid)
        assert all(table == [] for table in tables)
        assert graph.likes_edges is tables[0]
        assert graph._likes_pos == {}
        assert graph._member_pos == {}
        assert graph._study_pos == {}
        assert graph._work_pos == {}


#: The per-key adjacency lists the delete cascades remove rows from.
_ROW_INDEXES = (
    "_comments_by_creator", "_posts_by_creator", "_posts_in_forum",
    "_likes_by_person", "_likes_of_message", "_members_of_forum",
    "_forums_of_member", "_replies_of",
)


def _row_indexes(graph):
    return {
        name: {key: rows for key, rows in getattr(graph, name).items() if rows}
        for name in _ROW_INDEXES
    }


class TestDeletesByIdentity:
    """Every delete cascade removes its rows from the adjacency lists by
    identity: no row's ``__eq__`` runs, and copies made through
    ``rebuild_store`` or a checkpoint ``recover`` stay exact."""

    def _world(self):
        """Shared forums, threads and likes, so every removed row sits
        behind other rows in each list it leaves."""
        b = GraphBuilder()
        people = [b.person() for _ in range(6)]
        group = b.forum(people[0])
        wall = b.forum(people[1], kind=ForumKind.WALL)
        other = b.forum(people[2])
        for forum in (group, other):
            for pid in people:
                b.member(forum, pid)
        b.member(wall, people[3])
        b.member(wall, people[1])
        posts = [
            b.post(people[i % 6], (group, wall, other)[i % 3])
            for i in range(9)
        ]
        comments = []
        for i, post in enumerate(posts):
            first = b.comment(people[(i + 1) % 6], post)
            comments += [first, b.comment(people[(i + 2) % 6], post),
                         b.comment(people[(i + 3) % 6], first)]
        for pid in people:
            for mid in posts[::2] + comments[::3]:
                b.like(pid, mid)
        deletes = [
            ("delete_like", (people[4], posts[2])),
            ("delete_membership", (group, people[5])),
            ("delete_comment", (comments[4],)),
            ("delete_post", (posts[3],)),
            ("delete_forum", (other,)),
            ("delete_person", (people[1],)),
        ]
        return b.graph, deletes

    @staticmethod
    def _count_row_comparisons(monkeypatch):
        from repro.schema.relations import HasMember, Likes

        calls = []
        for cls in (Post, Comment, Likes, HasMember):
            def counting(self, other, _eq=cls.__eq__):
                calls.append(type(self).__name__)
                return _eq(self, other)

            monkeypatch.setattr(cls, "__eq__", counting)
        return calls

    def test_cascades_never_compare_rows(self, monkeypatch):
        graph, deletes = self._world()
        calls = self._count_row_comparisons(monkeypatch)
        for name, args in deletes:
            getattr(graph, name)(*args)
        assert calls == []
        assert graph.forums and graph.likes_edges  # the world survives

    def test_rebuilt_and_recovered_copies_delete_alike(self, monkeypatch,
                                                       tmp_path):
        import io

        from repro.driver.recovery import DurableSut, recover
        from repro.graph.frozen import freeze
        from repro.graph.snapfile import attach, rebuild_store, write_snapshot

        graph, deletes = self._world()
        stream = io.BytesIO()
        write_snapshot(freeze(graph), stream)
        rebuilt = rebuild_store(attach(stream.getvalue()).entities)
        sut = DurableSut(graph, tmp_path)
        sut.close()
        recovered, _ = recover(tmp_path)
        copies = (rebuilt, recovered)
        for copy in copies:
            assert _row_indexes(copy) == _row_indexes(graph)
        calls = self._count_row_comparisons(monkeypatch)
        for store in (graph, *copies):
            for name, args in deletes:
                getattr(store, name)(*args)
        assert calls == []
        monkeypatch.undo()
        for copy in copies:
            assert _row_indexes(copy) == _row_indexes(graph)


class TestTagClassHierarchy:
    def test_descendants(self, simple):
        b, _ = simple
        assert b.graph.tagclass_descendants(TC_MUSIC) == {TC_MUSIC, TC_JAZZ}
        assert TC_MUSIC in b.graph.tagclass_descendants(TC_THING)

    def test_tags_in_class_tree(self, simple):
        b, _ = simple
        assert b.graph.tags_in_class_tree(TC_MUSIC) == {
            TAG_ROCK, TAG_JAZZ, TAG_BEBOP,
        }
        assert b.graph.tags_of_class(TC_MUSIC) == [TAG_ROCK, TAG_JAZZ]


class TestNameLookups:
    def test_country_and_city(self, simple):
        b, _ = simple
        assert b.graph.country_id("France") == FRANCE
        assert b.graph.city_id("Paris") == PARIS

    def test_tags_and_classes(self, simple):
        b, _ = simple
        assert b.graph.tag_id("Jazz") == TAG_JAZZ
        assert b.graph.tagclass_id("Music") == TC_MUSIC

    def test_unknown_name_raises(self, simple):
        b, _ = simple
        with pytest.raises(KeyError):
            b.graph.country_id("Atlantis")


class TestIndexAblation:
    """use_indexes=False must return identical answers via full scans."""

    def test_equivalence_on_generated_graph(self, small_net):
        indexed = SocialGraph.from_data(small_net)
        scanning = SocialGraph.from_data(small_net, use_indexes=False)
        pids = list(indexed.persons)[:20]
        for pid in pids:
            assert indexed.friends_of(pid) == scanning.friends_of(pid)
            assert [p.id for p in indexed.posts_by(pid)] == sorted(
                p.id for p in scanning.posts_by(pid)
            ) or [p.id for p in indexed.posts_by(pid)] == [
                p.id for p in scanning.posts_by(pid)
            ]
            assert {m.forum_id for m in indexed.forums_of_member(pid)} == {
                m.forum_id for m in scanning.forums_of_member(pid)
            }
        mid = next(iter(indexed.posts))
        assert {c.id for c in indexed.replies_of(mid)} == {
            c.id for c in scanning.replies_of(mid)
        }
        assert {l.person_id for l in indexed.likes_of_message(mid)} == {
            l.person_id for l in scanning.likes_of_message(mid)
        }

    def test_loader_from_data_counts(self, small_net):
        graph = SocialGraph.from_data(small_net)
        assert graph.node_count() == small_net.node_count()
        assert len(graph.knows_edges) == len(small_net.knows)
        assert len(graph.likes_edges) == len(small_net.likes)


class TestCutoffLoad:
    def test_truncated_graph_smaller(self, small_net):
        full = SocialGraph.from_data(small_net)
        bulk = SocialGraph.from_data(small_net, until=small_net.cutoff)
        assert bulk.node_count() < full.node_count()

    def test_truncated_graph_is_consistent(self, small_net):
        bulk = SocialGraph.from_data(small_net, until=small_net.cutoff)
        for comment in bulk.comments.values():
            parent = (
                comment.reply_of_post
                if comment.reply_of_post >= 0
                else comment.reply_of_comment
            )
            assert bulk.has_message(parent)
        for like in bulk.likes_edges:
            assert bulk.has_message(like.message_id)
            assert like.person_id in bulk.persons
        for membership in bulk.memberships:
            assert membership.forum_id in bulk.forums
            assert membership.person_id in bulk.persons
        for post in bulk.posts.values():
            assert post.forum_id in bulk.forums
            assert post.creator_id in bulk.persons


def _postings(graph):
    """The two sorted posting families, with their key order."""
    return [
        (list(family), list(family.values()))
        for family in (graph._messages_with_tag, graph._forum_posts_by_date)
    ]


class TestBulkInsertScope:
    def test_from_data_matches_row_at_a_time_replay(self, small_net,
                                                    monkeypatch):
        bulk = SocialGraph.from_data(small_net, until=small_net.cutoff)
        monkeypatch.setattr(SocialGraph, "_bulk_insert",
                            lambda self: contextlib.nullcontext())
        replayed = SocialGraph.from_data(small_net, until=small_net.cutoff)
        assert _postings(bulk) == _postings(replayed)
        assert pickle.dumps(bulk) == pickle.dumps(replayed)

    def test_no_bulk_state_left_on_the_instance(self, tiny_net):
        graph = SocialGraph.from_data(tiny_net)
        assert "_bulk" not in graph.__dict__
        assert "_bulk" not in pickle.loads(pickle.dumps(graph)).__dict__

    def test_postings_sorted_when_the_body_raises(self, tiny_net):
        posts = list(tiny_net.posts)
        graph = SocialGraph()
        with pytest.raises(ValueError, match="duplicate message id"):
            with graph._bulk_insert():
                for post in reversed(posts):  # appends land unsorted
                    graph.add_post(post)
                graph.add_post(posts[0])
        assert gc.isenabled()
        assert "_bulk" not in graph.__dict__
        for _, lists in _postings(graph):
            assert lists and all(p == sorted(p) for p in lists)
        assert graph._forum_posts_by_date[posts[0].forum_id]

    def test_delete_inside_the_scope_raises(self, tiny_net):
        post = tiny_net.posts[0]
        graph = SocialGraph()
        with graph._bulk_insert():
            graph.add_post(post)
            with pytest.raises(RuntimeError, match="bulk load"):
                graph.delete_post(post.id)
        graph.delete_post(post.id)
        assert not graph.has_message(post.id)


class TestCollectorPaused:
    def test_pauses_nest(self):
        assert gc.isenabled()
        with collector_paused():
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_restored_when_the_body_raises(self):
        with pytest.raises(KeyError):
            with collector_paused():
                raise KeyError("boom")
        assert gc.isenabled()

    def test_caller_disabled_collector_stays_disabled(self):
        gc.disable()
        try:
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        finally:
            gc.enable()
