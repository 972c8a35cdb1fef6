"""Tests for delete operations DEL 1 - DEL 8 and the delete streams
(spec section 5.2's insert/delete mix, as shipped in the VLDB 2022 BI
workload)."""

import pytest

from repro.datagen.delete_streams import (
    build_delete_streams,
    read_delete_stream,
    write_delete_stream,
)
from repro.queries.interactive.deletes import (
    ALL_DELETES,
    DeleteForumParams,
    DeleteFriendshipParams,
    DeleteLikeParams,
    DeleteMembershipParams,
    DeleteMessageParams,
    DeletePersonParams,
    del1, del2, del4, del5, del6, del7, del8,
)
from repro.schema.entities import ForumKind

from tests.builders import GraphBuilder, PARIS, TAG_ROCK, ts


@pytest.fixture
def world():
    b = GraphBuilder()
    ann = b.person()
    bob = b.person()
    eve = b.person(interests=(TAG_ROCK,))
    b.knows(ann, bob)
    b.knows(bob, eve)
    group = b.forum(ann, title="Group g", tags=(TAG_ROCK,))
    b.member(group, bob)
    b.member(group, eve)
    post = b.post(ann, group, tags=(TAG_ROCK,))
    reply = b.comment(bob, post)
    nested = b.comment(eve, reply)
    b.like(bob, post)
    b.like(eve, reply)
    return b, dict(
        ann=ann, bob=bob, eve=eve, group=group,
        post=post, reply=reply, nested=nested,
    )


class TestDeleteEdges:
    def test_del8_removes_friendship_both_ways(self, world):
        b, ids = world
        del8(b.graph, DeleteFriendshipParams(ids["ann"], ids["bob"]))
        assert ids["bob"] not in b.graph.friends_of(ids["ann"])
        assert ids["ann"] not in b.graph.friends_of(ids["bob"])
        assert all(
            not (e.person1 == ids["ann"] and e.person2 == ids["bob"])
            for e in b.graph.knows_edges
        )

    def test_del8_absent_edge_is_noop(self, world):
        b, ids = world
        del8(b.graph, DeleteFriendshipParams(ids["ann"], ids["eve"]))

    def test_del2_removes_like(self, world):
        b, ids = world
        del2(b.graph, DeleteLikeParams(ids["bob"], ids["post"]))
        assert b.graph.likes_of_message(ids["post"]) == []
        assert b.graph.likes_by_person(ids["bob"]) == []

    def test_del5_removes_membership(self, world):
        b, ids = world
        del5(b.graph, DeleteMembershipParams(ids["group"], ids["bob"]))
        assert ids["bob"] not in {
            m.person_id for m in b.graph.members_of_forum(ids["group"])
        }
        assert b.graph.forums_of_member(ids["bob"]) == []


class TestDeleteMessages:
    def test_del7_cascades_to_subtree(self, world):
        b, ids = world
        del7(b.graph, DeleteMessageParams(ids["reply"]))
        assert ids["reply"] not in b.graph.comments
        assert ids["nested"] not in b.graph.comments
        assert b.graph.replies_of(ids["post"]) == []
        # eve's like on the reply is gone too.
        assert b.graph.likes_by_person(ids["eve"]) == []

    def test_del6_cascades_whole_thread(self, world):
        b, ids = world
        del6(b.graph, DeleteMessageParams(ids["post"]))
        assert ids["post"] not in b.graph.posts
        assert ids["reply"] not in b.graph.comments
        assert ids["nested"] not in b.graph.comments
        assert b.graph.likes_edges == []
        assert list(b.graph.messages_with_tag_in_window(TAG_ROCK)) == []
        assert b.graph.posts_in_forum(ids["group"]) == []

    def test_delete_clears_creator_index(self, world):
        b, ids = world
        del6(b.graph, DeleteMessageParams(ids["post"]))
        assert b.graph.posts_by(ids["ann"]) == []
        assert b.graph.comments_by(ids["bob"]) == []

    def test_missing_message_is_noop(self, world):
        b, _ = world
        del6(b.graph, DeleteMessageParams(99999))
        del7(b.graph, DeleteMessageParams(99999))

    def test_cascade_survives_pathological_reply_depth(self):
        """``delete_comment`` walks the reply tree with an explicit
        stack: a reply chain far deeper than the interpreter's
        recursion limit (default 1000) must cascade without a
        ``RecursionError``."""
        import sys

        depth = sys.getrecursionlimit() + 2000
        b = GraphBuilder()
        # Rotate creators so no single per-creator index row grows to
        # ``depth`` entries (its list.remove is linear in row length).
        creators = [b.person() for _ in range(32)]
        forum = b.forum(creators[0])
        post = b.post(creators[0], forum)
        parent = b.comment(creators[1], post)
        top = parent
        for i in range(depth):
            parent = b.comment(creators[i % 32], parent)
        assert len(b.graph.comments) == depth + 1
        del7(b.graph, DeleteMessageParams(top))
        assert b.graph.comments == {}
        assert b.graph.replies_of(post) == []
        assert all(
            b.graph.comments_by(pid) == [] for pid in creators
        )


class TestDeleteForum:
    def test_del4_cascades(self, world):
        b, ids = world
        del4(b.graph, DeleteForumParams(ids["group"]))
        assert ids["group"] not in b.graph.forums
        assert ids["post"] not in b.graph.posts
        assert b.graph.memberships == []
        assert b.graph.forums_with_tag(TAG_ROCK) == []
        assert b.graph.moderated_forums(ids["ann"]) == []


class TestDeletePerson:
    def test_del1_cascades_personal_content(self):
        b = GraphBuilder()
        owner = b.person(interests=(TAG_ROCK,))
        friend = b.person()
        b.knows(owner, friend)
        wall = b.forum(owner, title="Wall of owner", kind=ForumKind.WALL)
        b.member(wall, friend)
        post = b.post(owner, wall)
        b.comment(friend, post)
        b.like(friend, post)
        del1(b.graph, DeletePersonParams(owner))
        assert owner not in b.graph.persons
        assert wall not in b.graph.forums           # wall deleted
        assert post not in b.graph.posts
        assert b.graph.comments == {}               # thread cascade
        assert b.graph.likes_edges == []
        assert b.graph.friends_of(friend) == {}
        assert b.graph.persons_interested_in(TAG_ROCK) == []
        assert owner not in b.graph.persons_in_city(PARIS)

    def test_del1_detaches_group_moderator(self, world):
        b, ids = world
        del1(b.graph, DeletePersonParams(ids["ann"]))
        group = b.graph.forums[ids["group"]]        # group survives
        assert group.moderator_id == -1
        # But ann's post inside it is gone (created by ann).
        assert ids["post"] not in b.graph.posts

    def test_del1_removes_likes_given(self, world):
        b, ids = world
        del1(b.graph, DeletePersonParams(ids["bob"]))
        assert all(
            l.person_id != ids["bob"] for l in b.graph.likes_edges
        )

    def test_del1_removes_study_work(self):
        b = GraphBuilder()
        person = b.person()
        b.study(person, 0)
        b.work(person, 2)
        del1(b.graph, DeletePersonParams(person))
        assert b.graph.study_at == []
        assert b.graph.work_at == []
        assert b.graph.study_at_of(person) == []

    def test_missing_person_is_noop(self, world):
        b, _ = world
        del1(b.graph, DeletePersonParams(99999))


class TestQueryConsistencyAfterDeletes:
    def test_queries_run_after_heavy_deletion(self, small_net):
        """Delete a swath of entities, then run reads — no dangling
        references may surface."""
        from repro.graph.store import SocialGraph
        from repro.queries.bi import bi1, bi6, bi12, bi21
        from repro.queries.interactive.complex import ic2, ic9
        from repro.util.dates import make_date

        graph = SocialGraph.from_data(small_net)
        person_ids = sorted(graph.persons)
        for pid in person_ids[::7]:
            del1(graph, DeletePersonParams(pid))
        post_ids = sorted(graph.posts)
        for mid in post_ids[::11]:
            del6(graph, DeleteMessageParams(mid))

        date = make_date(2012, 6, 1)
        assert bi1(graph, date)
        bi12(graph, date, 1)
        bi6(graph, graph.tags[0].name)
        bi21(graph, "India", date)
        survivor = next(iter(graph.persons))
        ic2(graph, survivor, date)
        ic9(graph, survivor, date)

    def test_insert_after_delete_reuses_nothing(self, world):
        b, ids = world
        del6(b.graph, DeleteMessageParams(ids["post"]))
        new_post = b.post(ids["bob"], ids["group"])
        assert new_post in b.graph.posts


class TestDeleteStreams:
    def test_streams_deterministic(self, small_net):
        assert build_delete_streams(small_net) == build_delete_streams(small_net)

    def test_ordered_and_after_cutoff(self, small_net):
        operations = build_delete_streams(small_net)
        times = [op.timestamp for op in operations]
        assert times == sorted(times)
        assert all(t >= small_net.cutoff for t in times)

    def test_volume_tracks_probabilities(self, small_net):
        operations = build_delete_streams(small_net)
        total = len(small_net._event_timestamps())
        # Aggregate delete probability is a few percent of all events.
        assert 0.005 * total < len(operations) < 0.10 * total

    def test_custom_probabilities(self, small_net):
        none = build_delete_streams(
            small_net,
            probabilities={k: 0.0 for k in (
                "person", "like", "forum", "membership", "post",
                "comment", "knows",
            )},
        )
        assert none == []

    def test_write_read_roundtrip(self, small_net, tmp_path):
        operations = build_delete_streams(small_net)
        write_delete_stream(operations, tmp_path)
        assert read_delete_stream(tmp_path / "social_network") == operations

    def test_replay_against_full_graph(self, small_net):
        """Every delete stream operation applies cleanly to the full
        network (cascade overlaps included)."""
        from repro.graph.store import SocialGraph

        graph = SocialGraph.from_data(small_net)
        before = graph.node_count()
        for op in build_delete_streams(small_net):
            ALL_DELETES[op.operation_id][0](graph, op.params)
        assert graph.node_count() < before


class TestDriverWithDeletes:
    def test_facade_run_with_deletes(self, small_net):
        from repro.core.api import SocialNetworkBenchmark

        bench = SocialNetworkBenchmark(small_net)
        report = bench.run_driver(max_updates=500, include_deletes=True)
        deletes = [e for e in report.log if e.operation.startswith("DEL")]
        assert deletes
        assert report.total_operations > 500


class TestNoAliasingAcrossGraphs:
    def test_moderator_detach_does_not_leak(self, small_net):
        """Deleting a group moderator in one graph must not mutate the
        shared network or a sibling graph (forums are copied on load)."""
        from repro.graph.store import SocialGraph
        from repro.schema.entities import ForumKind

        graph_a = SocialGraph.from_data(small_net)
        graph_b = SocialGraph.from_data(small_net)
        group = next(
            f for f in graph_a.forums.values() if f.kind is ForumKind.GROUP
        )
        moderator = group.moderator_id
        graph_a.delete_person(moderator)
        assert graph_a.forums[group.id].moderator_id == -1
        assert graph_b.forums[group.id].moderator_id == moderator
        original = next(f for f in small_net.forums if f.id == group.id)
        assert original.moderator_id == moderator
