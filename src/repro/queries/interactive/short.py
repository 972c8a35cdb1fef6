"""Interactive short reads IS 1 - IS 7 (spec section 4.2)."""

from __future__ import annotations

from typing import NamedTuple

from repro.graph.store import SocialGraph
from repro.queries.interactive.base import IcQueryInfo
from repro.util.dates import Date, DateTime

IS1_INFO = IcQueryInfo("short", 1, "Profile of a person")
IS2_INFO = IcQueryInfo("short", 2, "Recent messages of a person", limit=10)
IS3_INFO = IcQueryInfo("short", 3, "Friends of a person")
IS4_INFO = IcQueryInfo("short", 4, "Content of a message")
IS5_INFO = IcQueryInfo("short", 5, "Creator of a message")
IS6_INFO = IcQueryInfo("short", 6, "Forum of a message")
IS7_INFO = IcQueryInfo("short", 7, "Replies of a message")


class Is1Row(NamedTuple):
    first_name: str
    last_name: str
    birthday: Date
    location_ip: str
    browser_used: str
    city_id: int
    gender: str
    creation_date: DateTime


def is1(graph: SocialGraph, person_id: int) -> list[Is1Row]:
    """Profile of a person."""
    person = graph.persons[person_id]
    return [
        Is1Row(
            person.first_name,
            person.last_name,
            person.birthday,
            person.location_ip,
            person.browser_used,
            person.city_id,
            person.gender,
            person.creation_date,
        )
    ]


class Is2Row(NamedTuple):
    message_id: int
    message_content: str
    message_creation_date: DateTime
    original_post_id: int
    original_post_author_id: int
    original_post_author_first_name: str
    original_post_author_last_name: str


def is2(graph: SocialGraph, person_id: int) -> list[Is2Row]:
    """The person's 10 most recent messages with their thread's root Post."""
    messages = sorted(
        graph.messages_by(person_id),
        key=lambda m: (-m.creation_date, -m.id),
    )[: IS2_INFO.limit]
    rows = []
    for message in messages:
        root = graph.root_post_of(message)
        author = graph.persons[root.creator_id]
        rows.append(
            Is2Row(
                message.id,
                message.content_or_image,
                message.creation_date,
                root.id,
                root.creator_id,
                author.first_name,
                author.last_name,
            )
        )
    return rows


class Is3Row(NamedTuple):
    person_id: int
    first_name: str
    last_name: str
    friendship_creation_date: DateTime


def is3(graph: SocialGraph, person_id: int) -> list[Is3Row]:
    """All friends with the date the friendship was established."""
    rows = []
    for friend_id, since in graph.friends_of(person_id).items():
        friend = graph.persons[friend_id]
        rows.append(
            Is3Row(friend_id, friend.first_name, friend.last_name, since)
        )
    return sorted(
        rows, key=lambda r: (-r.friendship_creation_date, r.person_id)
    )


class Is4Row(NamedTuple):
    message_creation_date: DateTime
    message_content: str


def is4(graph: SocialGraph, message_id: int) -> list[Is4Row]:
    """Content and creation date of a message."""
    message = graph.message(message_id)
    return [Is4Row(message.creation_date, message.content_or_image)]


class Is5Row(NamedTuple):
    person_id: int
    first_name: str
    last_name: str


def is5(graph: SocialGraph, message_id: int) -> list[Is5Row]:
    """Author of a message."""
    creator = graph.persons[graph.message(message_id).creator_id]
    return [Is5Row(creator.id, creator.first_name, creator.last_name)]


class Is6Row(NamedTuple):
    forum_id: int
    forum_title: str
    moderator_id: int
    moderator_first_name: str
    moderator_last_name: str


def is6(graph: SocialGraph, message_id: int) -> list[Is6Row]:
    """The Forum containing a message's thread, with its moderator."""
    root = graph.root_post_of(graph.message(message_id))
    forum = graph.forums[root.forum_id]
    moderator = graph.persons[forum.moderator_id]
    return [
        Is6Row(
            forum.id,
            forum.title,
            moderator.id,
            moderator.first_name,
            moderator.last_name,
        )
    ]


class Is7Row(NamedTuple):
    comment_id: int
    comment_content: str
    comment_creation_date: DateTime
    reply_author_id: int
    reply_author_first_name: str
    reply_author_last_name: str
    reply_author_knows_original: bool


def is7(graph: SocialGraph, message_id: int) -> list[Is7Row]:
    """Direct reply Comments, flagging authors who know the original
    author (false when the reply author *is* the original author)."""
    original_author = graph.message(message_id).creator_id
    original_friends = set(graph.friends_of(original_author))
    rows = []
    for reply in graph.replies_of(message_id):
        author = graph.persons[reply.creator_id]
        knows = (
            reply.creator_id != original_author
            and reply.creator_id in original_friends
        )
        rows.append(
            Is7Row(
                reply.id,
                reply.content,
                reply.creation_date,
                author.id,
                author.first_name,
                author.last_name,
                knows,
            )
        )
    return sorted(
        rows, key=lambda r: (-r.comment_creation_date, r.reply_author_id)
    )


#: query number -> (callable, IcQueryInfo)
ALL_SHORT: dict[int, tuple] = {
    1: (is1, IS1_INFO),
    2: (is2, IS2_INFO),
    3: (is3, IS3_INFO),
    4: (is4, IS4_INFO),
    5: (is5, IS5_INFO),
    6: (is6, IS6_INFO),
    7: (is7, IS7_INFO),
}
