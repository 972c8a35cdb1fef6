"""Interactive complex reads IC 8 - IC 14 (spec section 4.1)."""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple

from repro.graph.store import SocialGraph
from repro.queries.common import (
    all_shortest_paths,
    knows_distances,
    shortest_path_length,
)
from repro.queries.interactive.base import IcQueryInfo
from repro.util.dates import Date, DateTime, date_to_datetime, day_of, month_of
from repro.engine import scan_messages, sort_key, top_k

# ---------------------------------------------------------------------------
# IC 8 — Recent replies
# ---------------------------------------------------------------------------

IC8_INFO = IcQueryInfo(
    "complex", 8, "Recent replies", ("2.4", "3.2", "3.3", "5.3"), limit=20
)


class Ic8Row(NamedTuple):
    person_id: int
    person_first_name: str
    person_last_name: str
    comment_creation_date: DateTime
    comment_id: int
    comment_content: str


def ic8(graph: SocialGraph, person_id: int) -> list[Ic8Row]:
    """Most recent direct (single-hop) replies to the person's messages."""
    top = top_k(
        IC8_INFO.limit,
        key=lambda r: sort_key(
            (r.comment_creation_date, True), (r.comment_id, False)
        ),
    )
    for message in graph.messages_by(person_id):
        for reply in graph.replies_of(message.id):
            if not top.would_enter(
                sort_key((reply.creation_date, True), (reply.id, False))
            ):
                continue
            author = graph.persons[reply.creator_id]
            top.add(
                Ic8Row(
                    reply.creator_id,
                    author.first_name,
                    author.last_name,
                    reply.creation_date,
                    reply.id,
                    reply.content,
                )
            )
    return top.result()


# ---------------------------------------------------------------------------
# IC 9 — Recent messages by friends or friends of friends
# ---------------------------------------------------------------------------

IC9_INFO = IcQueryInfo(
    "complex", 9, "Recent messages by friends or friends of friends",
    ("1.1", "1.2", "2.2", "2.3", "3.2", "3.3", "8.5"), limit=20,
)


class Ic9Row(NamedTuple):
    person_id: int
    person_first_name: str
    person_last_name: str
    message_id: int
    message_content: str
    message_creation_date: DateTime


def ic9(graph: SocialGraph, person_id: int, max_date: Date) -> list[Ic9Row]:
    """Messages by friends <= 2 hops created before max_date (exclusive)."""
    threshold = date_to_datetime(max_date)
    top = top_k(
        IC9_INFO.limit,
        key=lambda r: sort_key(
            (r.message_creation_date, True), (r.message_id, False)
        ),
    )
    for friend_id in knows_distances(graph, person_id, 2):
        friend = graph.persons[friend_id]
        for message in scan_messages(
            graph, creator=friend_id, window=(None, threshold)
        ):
            if not top.would_enter(
                sort_key((message.creation_date, True), (message.id, False))
            ):
                continue
            top.add(
                Ic9Row(
                    friend_id,
                    friend.first_name,
                    friend.last_name,
                    message.id,
                    message.content_or_image,
                    message.creation_date,
                )
            )
    return top.result()


# ---------------------------------------------------------------------------
# IC 10 — Friend recommendation
# ---------------------------------------------------------------------------

IC10_INFO = IcQueryInfo(
    "complex", 10, "Friend recommendation",
    ("2.3", "3.3", "4.1", "4.2", "5.1", "5.2", "6.1", "7.1", "8.6"), limit=10,
)


class Ic10Row(NamedTuple):
    person_id: int
    person_first_name: str
    person_last_name: str
    common_interest_score: int
    person_gender: str
    person_city_name: str


def _birthday_matches(birthday: Date, month: int) -> bool:
    """Born on or after the 21st of ``month`` and before the 22nd of the
    following month (any year)."""
    next_month = 1 if month == 12 else month + 1
    ts = date_to_datetime(birthday)
    b_month, b_day = month_of(ts), day_of(ts)
    if b_month == month and b_day >= 21:
        return True
    return b_month == next_month and b_day < 22


def ic10(graph: SocialGraph, person_id: int, month: int) -> list[Ic10Row]:
    """Recommend friends of friends by common interest score."""
    interests = set(graph.persons[person_id].interests)
    distances = knows_distances(graph, person_id, 2)

    top = top_k(
        IC10_INFO.limit,
        key=lambda r: sort_key(
            (r.common_interest_score, True), (r.person_id, False)
        ),
    )
    for candidate_id, distance in distances.items():
        if distance != 2:
            continue  # excludes the start person and immediate friends
        candidate = graph.persons[candidate_id]
        if not _birthday_matches(candidate.birthday, month):
            continue
        common = uncommon = 0
        for post in graph.posts_by(candidate_id):
            if interests.intersection(post.tag_ids):
                common += 1
            else:
                uncommon += 1
        top.add(
            Ic10Row(
                candidate_id,
                candidate.first_name,
                candidate.last_name,
                common - uncommon,
                candidate.gender,
                graph.places[candidate.city_id].name,
            )
        )
    return top.result()


# ---------------------------------------------------------------------------
# IC 11 — Job referral
# ---------------------------------------------------------------------------

IC11_INFO = IcQueryInfo(
    "complex", 11, "Job referral", ("1.3", "2.4", "3.3"), limit=10
)


class Ic11Row(NamedTuple):
    person_id: int
    person_first_name: str
    person_last_name: str
    organisation_name: str
    work_from: int


def ic11(
    graph: SocialGraph, person_id: int, country_name: str, work_from_year: int
) -> list[Ic11Row]:
    """Friends <= 2 hops working at a company in the country since before
    ``work_from_year``."""
    country_id = graph.country_id(country_name)
    top = top_k(
        IC11_INFO.limit,
        key=lambda r: sort_key(
            (r.work_from, False),
            (r.person_id, False),
            (r.organisation_name, True),
        ),
    )
    for friend_id in knows_distances(graph, person_id, 2):
        friend = graph.persons[friend_id]
        for record in graph.work_at_of(friend_id):
            if record.work_from >= work_from_year:
                continue
            company = graph.organisations[record.company_id]
            if company.place_id != country_id:
                continue
            top.add(
                Ic11Row(
                    friend_id,
                    friend.first_name,
                    friend.last_name,
                    company.name,
                    record.work_from,
                )
            )
    return top.result()


# ---------------------------------------------------------------------------
# IC 12 — Expert search
# ---------------------------------------------------------------------------

IC12_INFO = IcQueryInfo(
    "complex", 12, "Expert search", ("3.3", "7.2", "7.3", "8.2"), limit=20
)


class Ic12Row(NamedTuple):
    person_id: int
    person_first_name: str
    person_last_name: str
    tag_names: tuple[str, ...]
    reply_count: int


def ic12(graph: SocialGraph, person_id: int, tag_class_name: str) -> list[Ic12Row]:
    """Friends' direct reply comments to posts tagged in the class tree."""
    class_tags = graph.tags_in_class_tree(graph.tagclass_id(tag_class_name))

    reply_counts: dict[int, int] = defaultdict(int)
    tag_sets: dict[int, set[str]] = defaultdict(set)
    for friend_id in graph.friends_of(person_id):
        for comment in graph.comments_by(friend_id):
            if comment.reply_of_post < 0:
                continue  # only direct (single-hop) replies to Posts
            post = graph.posts[comment.reply_of_post]
            matched = class_tags.intersection(post.tag_ids)
            if not matched:
                continue
            reply_counts[friend_id] += 1
            tag_sets[friend_id].update(graph.tags[t].name for t in matched)

    top = top_k(
        IC12_INFO.limit,
        key=lambda r: sort_key((r.reply_count, True), (r.person_id, False)),
    )
    for friend_id, count in reply_counts.items():
        friend = graph.persons[friend_id]
        top.add(
            Ic12Row(
                friend_id,
                friend.first_name,
                friend.last_name,
                tuple(sorted(tag_sets[friend_id])),
                count,
            )
        )
    return top.result()


# ---------------------------------------------------------------------------
# IC 13 — Single shortest path
# ---------------------------------------------------------------------------

IC13_INFO = IcQueryInfo(
    "complex", 13, "Single shortest path",
    ("3.3", "7.2", "7.3", "8.1", "8.6"), limit=None,
)


class Ic13Row(NamedTuple):
    shortest_path_length: int


def ic13(graph: SocialGraph, person1_id: int, person2_id: int) -> list[Ic13Row]:
    """Length of the shortest knows path (-1 disconnected, 0 identical)."""
    return [Ic13Row(shortest_path_length(graph, person1_id, person2_id))]


# ---------------------------------------------------------------------------
# IC 14 — Trusted connection paths
# ---------------------------------------------------------------------------

IC14_INFO = IcQueryInfo(
    "complex", 14, "Trusted connection paths",
    ("3.3", "7.2", "7.3", "8.1", "8.2", "8.3", "8.6"), limit=None,
)

POST_REPLY_WEIGHT = 1.0
COMMENT_REPLY_WEIGHT = 0.5


class Ic14Row(NamedTuple):
    person_ids_in_path: tuple[int, ...]
    path_weight: float


def ic14(graph: SocialGraph, person1_id: int, person2_id: int) -> list[Ic14Row]:
    """All shortest knows paths, weighted by reply interactions."""
    paths = all_shortest_paths(graph, person1_id, person2_id)
    if not paths:
        return []

    pair_weight: dict[tuple[int, int], float] = {}

    def weight_of(a: int, b: int) -> float:
        pair = (min(a, b), max(a, b))
        cached = pair_weight.get(pair)
        if cached is not None:
            return cached
        weight = 0.0
        for x, y in ((a, b), (b, a)):
            for comment in graph.comments_by(x):
                parent = graph.parent_of(comment)
                if parent.creator_id != y:
                    continue
                weight += (
                    COMMENT_REPLY_WEIGHT if parent.is_comment else POST_REPLY_WEIGHT
                )
        pair_weight[pair] = weight
        return weight

    rows = [
        Ic14Row(
            tuple(path),
            sum(weight_of(a, b) for a, b in zip(path, path[1:])),
        )
        for path in paths
    ]
    return sorted(rows, key=lambda r: (-r.path_weight, r.person_ids_in_path))
