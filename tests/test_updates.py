"""Exact-semantics tests for the updates IU 1 - IU 8."""

import pytest

from repro.queries.interactive.updates import (
    AddCommentParams,
    AddForumParams,
    AddFriendshipParams,
    AddLikeParams,
    AddMembershipParams,
    AddPersonParams,
    AddPostParams,
    iu1, iu2, iu3, iu4, iu5, iu6, iu7, iu8,
)
from repro.schema.entities import ForumKind

from tests.builders import (
    ACME,
    GraphBuilder,
    PARIS,
    TAG_ROCK,
    UNI_PARIS,
    birthday,
    ts,
)


@pytest.fixture
def world():
    b = GraphBuilder()
    ann = b.person()
    bob = b.person()
    forum = b.forum(ann)
    post = b.post(ann, forum)
    comment = b.comment(bob, post)
    return b, ann, bob, forum, post, comment


class TestIu1AddPerson:
    def test_node_and_edges(self, world):
        b, ann, *_ = world
        iu1(
            b.graph,
            AddPersonParams(
                person_id=500, first_name="New", last_name="Person",
                gender="male", birthday=birthday(1990),
                creation_date=ts(10, 1), location_ip="9.9.9.9",
                browser_used="Opera", city_id=PARIS,
                languages=("fr",), emails=("n@p.com",),
                tag_ids=(TAG_ROCK,),
                study_at=((UNI_PARIS, 2012),), work_at=((ACME, 2013),),
            ),
        )
        person = b.graph.persons[500]
        assert person.first_name == "New"
        assert 500 in b.graph.persons_in_city(PARIS)
        assert 500 in b.graph.persons_interested_in(TAG_ROCK)
        assert b.graph.study_at_of(500)[0].university_id == UNI_PARIS
        assert b.graph.work_at_of(500)[0].company_id == ACME

    def test_duplicate_rejected(self, world):
        b, ann, *_ = world
        with pytest.raises(ValueError):
            iu1(
                b.graph,
                AddPersonParams(
                    person_id=ann, first_name="X", last_name="Y",
                    gender="male", birthday=0, creation_date=0,
                    location_ip="", browser_used="", city_id=PARIS,
                ),
            )


class TestIu2Iu3Likes:
    def test_like_post(self, world):
        b, ann, bob, forum, post, comment = world
        iu2(b.graph, AddLikeParams(bob, post, ts(10, 1)))
        assert len(b.graph.likes_of_message(post)) == 1

    def test_like_post_rejects_comment_target(self, world):
        b, ann, bob, forum, post, comment = world
        with pytest.raises(KeyError):
            iu2(b.graph, AddLikeParams(bob, comment, ts(10, 1)))

    def test_like_comment(self, world):
        b, ann, bob, forum, post, comment = world
        iu3(b.graph, AddLikeParams(ann, comment, ts(10, 1)))
        likes = b.graph.likes_of_message(comment)
        assert len(likes) == 1 and not likes[0].is_post

    def test_like_comment_rejects_post_target(self, world):
        b, ann, bob, forum, post, comment = world
        with pytest.raises(KeyError):
            iu3(b.graph, AddLikeParams(ann, post, ts(10, 1)))


class TestIu4Iu5Forums:
    def test_add_forum_with_kind_inference(self, world):
        b, ann, *_ = world
        iu4(b.graph, AddForumParams(900, "Wall of X", ts(10, 1), ann, (TAG_ROCK,)))
        iu4(b.graph, AddForumParams(901, "Album 3 of X", ts(10, 1), ann))
        iu4(b.graph, AddForumParams(902, "Group for X", ts(10, 1), ann))
        assert b.graph.forums[900].kind is ForumKind.WALL
        assert b.graph.forums[901].kind is ForumKind.ALBUM
        assert b.graph.forums[902].kind is ForumKind.GROUP
        assert 900 in b.graph.forums_with_tag(TAG_ROCK)

    def test_add_membership(self, world):
        b, ann, bob, forum, *_ = world
        iu5(b.graph, AddMembershipParams(bob, forum, ts(10, 2)))
        assert any(
            m.person_id == bob for m in b.graph.members_of_forum(forum)
        )


class TestIu6Iu7Messages:
    def test_add_post(self, world):
        b, ann, bob, forum, *_ = world
        iu6(
            b.graph,
            AddPostParams(
                post_id=800, image_file="", creation_date=ts(10, 3),
                location_ip="1.1.1.1", browser_used="Safari",
                language="en", content="fresh", length=5,
                author_person_id=bob, forum_id=forum, country_id=10,
                tag_ids=(TAG_ROCK,),
            ),
        )
        assert b.graph.posts[800].content == "fresh"
        assert 800 in {p.id for p in b.graph.posts_in_forum(forum)}
        assert 800 in {
            m.id for m in b.graph.messages_with_tag_in_window(TAG_ROCK)
        }

    def test_add_comment_reply_to_post(self, world):
        b, ann, bob, forum, post, comment = world
        iu7(
            b.graph,
            AddCommentParams(
                comment_id=801, creation_date=ts(10, 4),
                location_ip="1.1.1.1", browser_used="Safari",
                content="reply", length=5, author_person_id=ann,
                country_id=10, reply_to_post_id=post,
                reply_to_comment_id=-1,
            ),
        )
        assert 801 in {c.id for c in b.graph.replies_of(post)}

    def test_add_comment_reply_to_comment(self, world):
        b, ann, bob, forum, post, comment = world
        iu7(
            b.graph,
            AddCommentParams(
                comment_id=802, creation_date=ts(10, 5),
                location_ip="1.1.1.1", browser_used="Safari",
                content="nested", length=6, author_person_id=ann,
                country_id=10, reply_to_post_id=-1,
                reply_to_comment_id=comment,
            ),
        )
        assert 802 in {c.id for c in b.graph.replies_of(comment)}
        assert b.graph.root_post_of(b.graph.comments[802]).id == post


class TestIu8Friendship:
    def test_add_knows(self, world):
        b, ann, bob, *_ = world
        loner = b.person()
        iu8(b.graph, AddFriendshipParams(loner, ann, ts(10, 6)))
        assert ann in b.graph.friends_of(loner)
        assert loner in b.graph.friends_of(ann)

    def test_rejects_unknown_person(self, world):
        b, ann, *_ = world
        with pytest.raises(KeyError):
            iu8(b.graph, AddFriendshipParams(ann, 12345, ts(10, 6)))
