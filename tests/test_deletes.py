"""Tests for delete operations DEL 1 - DEL 8 and the delete streams
(spec section 5.2's insert/delete mix, as shipped in the VLDB 2022 BI
workload)."""

import dataclasses
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.datagen.delete_streams import (
    DELETE_PROBABILITIES,
    build_delete_streams,
    read_delete_stream,
    write_delete_stream,
)
from repro.driver.bi_driver import build_microbatches
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
from repro.util.rng import unit

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

    def test_victims_are_the_rows_whose_coin_is_below_p(self, small_net):
        """A candidate is in the stream iff the top 53 bits of the first 8
        bytes of SHA-256(seed, "delete", kind, label), as a fraction of
        2**53, are below ``p[kind]``; its timestamp sits at the fraction
        bytes 8-15 give of its window.  Recomputed here with ``hashlib``
        alone, sharing no code with the implementation."""
        seed = small_net.config.seed
        start = small_net.cutoff
        end = small_net.config.end_millis
        expected = Counter()
        coins = 0
        for kind, label, created, op_id, params in _candidates(small_net):
            digest = hashlib.sha256(
                f"{seed}\x1fdelete\x1f{kind}\x1f{label}".encode()
            ).digest()
            coin = (int.from_bytes(digest[:8], "big") >> 11) / 2 ** 53
            if coin >= DELETE_PROBABILITIES[kind]:
                continue
            coins += 1
            earliest = max(created + 1, start)
            if earliest >= end:
                continue
            fraction = (int.from_bytes(digest[8:16], "big") >> 11) / 2 ** 53
            timestamp = earliest + int(fraction * (end - earliest))
            expected[timestamp, op_id, params] += 1
        actual = Counter(
            (op.timestamp, op.operation_id, op.params)
            for op in build_delete_streams(small_net)
        )
        assert actual == expected
        assert coins >= sum(expected.values()) > 1_000

    def test_every_timestamp_inside_its_window(self, small_net):
        created = {
            (op_id, params): when
            for _, _, when, op_id, params in _candidates(small_net)
        }
        end = small_net.config.end_millis
        for op in build_delete_streams(small_net):
            earliest = max(created[op.operation_id, op.params] + 1,
                           small_net.cutoff)
            assert earliest <= op.timestamp < end

    def test_stream_is_independent_of_entity_order(self, small_net):
        """The spec's order-independence (section 2.3.3): shuffling every
        entity list of the network changes nothing."""
        shuffler = random.Random(11)
        lists = {}
        for field in dataclasses.fields(small_net):
            value = getattr(small_net, field.name)
            if isinstance(value, list):
                lists[field.name] = shuffler.sample(value, len(value))
        shuffled = dataclasses.replace(small_net, **lists)
        assert shuffled.persons != small_net.persons
        assert build_delete_streams(shuffled) == build_delete_streams(small_net)

    def test_unit_of_all_ones_is_below_one(self):
        assert unit(b"\xff" * 8) == 1.0 - 2.0 ** -53 < 1.0
        assert unit(b"\x00" * 8) == 0.0
        assert unit(b"\x00" * 8 + b"\xff" * 8, 8) < 1.0

    @pytest.mark.parametrize("probabilities", [
        {"person": math.nan},
        {"like": -0.01},
        {"knows": 1.5},
        {"comment": math.inf},
        {"likes": 0.5},
        {"Person": 0.1},
    ])
    def test_rejects_bad_probabilities(self, tiny_net, probabilities):
        with pytest.raises(ValueError):
            build_delete_streams(tiny_net, probabilities)

    def test_probability_one_takes_every_candidate(self, tiny_net):
        everything = build_delete_streams(tiny_net, {"forum": 1.0})
        groups = [f for f in tiny_net.forums if f.kind is ForumKind.GROUP]
        assert sum(op.operation_id == 4 for op in everything) == sum(
            max(f.creation_date + 1, tiny_net.cutoff)
            < tiny_net.config.end_millis
            for f in groups
        )


class TestTinyStreamCoverage:
    """The ``tiny`` microbatch stream is what the overlay, aliasing and
    differential suites replay; it must exercise every delete kind."""

    def test_every_delete_kind_is_carried(self, tiny_net):
        kinds = {
            op.operation_id
            for batch in build_microbatches(tiny_net)
            for op in batch.deletes
        }
        assert kinds == set(range(1, 9))

    def test_a_person_cascade_removes_messages_likes_and_memberships(
        self, tiny_net
    ):
        from repro.graph.store import SocialGraph
        from repro.queries.interactive.updates import ALL_UPDATES

        def sizes(graph):
            return (
                len(graph.posts) + len(graph.comments),
                len(graph.likes_edges),
                len(graph.memberships),
            )

        graph = SocialGraph.from_data(tiny_net, until=tiny_net.cutoff)
        cascades = []
        for batch in build_microbatches(tiny_net):
            for insert in batch.inserts:
                try:
                    ALL_UPDATES[insert.operation_id][0](graph, insert.params)
                except (KeyError, ValueError):
                    pass
            for op in batch.deletes:
                before = sizes(graph)
                ALL_DELETES[op.operation_id][0](graph, op.params)
                if op.operation_id == 1:
                    cascades.append(
                        [b - a for b, a in zip(before, sizes(graph))]
                    )
        assert cascades
        assert any(all(removed > 0 for removed in c) for c in cascades), (
            cascades
        )


#: Digests of the ``tiny`` network (80 persons, seed 5) and its streams.
#: The delete decisions share the RNG module with every other generator
#: stage, so the network and update-stream digests are pinned too: a
#: change to how deletes draw must leave them where they are.
_TINY_DIGESTS = {
    "net": "80233264f4f73c3575520a6b207112cf9acb290d8c42694613269e6231d4dc39",
    "updates": "a122724fcd8132d1c503deffff0e7ff465836905c09e9127bb22c7ac47c35cbb",
    "deletes": "06db9c952989565b46152597710a33268cd7f7c9bf19f9f1093aacd9b787f8b4",
}

_DIGEST_SCRIPT = """
import dataclasses, hashlib, json
from repro.datagen.config import DatagenConfig
from repro.datagen.delete_streams import build_delete_streams
from repro.datagen.generator import generate
from repro.datagen.update_streams import build_update_streams

def digest(items):
    return hashlib.sha256("\\n".join(map(repr, items)).encode()).hexdigest()

net = generate(DatagenConfig(num_persons=80, seed=5))
lists = [f.name for f in dataclasses.fields(net)
         if isinstance(getattr(net, f.name), list)]
print(json.dumps({
    "net": hashlib.sha256(
        "".join(digest(getattr(net, name)) for name in lists).encode()
    ).hexdigest(),
    "updates": digest(build_update_streams(net)),
    "deletes": digest(build_delete_streams(net)),
}))
"""


class TestStreamDigests:
    @pytest.mark.parametrize("hash_seed", ["0", "1"])
    def test_independent_of_hash_randomization(self, hash_seed):
        """Under two ``PYTHONHASHSEED`` values the ``tiny`` network, its
        update stream and its delete stream hash to the committed
        digests."""
        src = str(Path(repro.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed),
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == _TINY_DIGESTS


def _candidates(net):
    """``(kind, label, created, operation_id, params)`` for every row the
    delete stream may pick, with the labels the decisions hash."""
    for person in net.persons:
        yield ("person", person.id, person.creation_date, 1,
               DeletePersonParams(person.id))
    for like in net.likes:
        yield ("like", f"{like.person_id}-{like.message_id}",
               like.creation_date, 2 if like.is_post else 3,
               DeleteLikeParams(like.person_id, like.message_id))
    for forum in net.forums:
        if forum.kind is ForumKind.GROUP:
            yield ("forum", forum.id, forum.creation_date, 4,
                   DeleteForumParams(forum.id))
    for m in net.memberships:
        yield ("membership", f"{m.forum_id}-{m.person_id}", m.join_date, 5,
               DeleteMembershipParams(m.forum_id, m.person_id))
    for post in net.posts:
        yield ("post", post.id, post.creation_date, 6,
               DeleteMessageParams(post.id))
    for comment in net.comments:
        yield ("comment", comment.id, comment.creation_date, 7,
               DeleteMessageParams(comment.id))
    for edge in net.knows:
        yield ("knows", f"{edge.person1}-{edge.person2}", edge.creation_date,
               8, DeleteFriendshipParams(edge.person1, edge.person2))


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
