"""Independent reference implementations of representative BI queries.

The Appendix C checklist asks whether results were *cross-validated*.
With one SUT there is no second system to compare against, so this
module provides a second, deliberately different implementation of a
representative subset of the BI reads: straight relational-style
comprehensions over the full entity tables, no adjacency indexes, no
top-k pushdown, full sort at the end.  They share nothing with the main
implementations except the store's entity dictionaries.

``tests/test_reference_crossvalidation.py`` compares the two
implementations row-for-row on generated graphs.
"""

# The reference implementations iterate the raw tables on purpose: they
# are engine-free so they share no code path with what they
# cross-validate.  Their sort keys mirror the main implementations,
# ending in the group-by key (unique per row) where no id exists.

from __future__ import annotations

import datetime as _dt
from collections import Counter, defaultdict

from repro.graph.store import SocialGraph
from repro.queries.bi.q01 import Bi1Row
from repro.queries.bi.q06 import Bi6Row, LIKE_WEIGHT, MESSAGE_WEIGHT, REPLY_WEIGHT
from repro.queries.bi.q08 import Bi8Row
from repro.queries.bi.q12 import Bi12Row
from repro.queries.bi.q13 import Bi13Row, TOP_TAGS_PER_MONTH
from repro.queries.bi.q14 import Bi14Row
from repro.queries.bi.q18 import Bi18Row
from repro.queries.bi.q21 import Bi21Row
from repro.util.dates import (
    Date,
    MILLIS_PER_DAY,
    date_to_datetime,
    months_between_inclusive,
)


def _calendar_day(ts: int) -> _dt.date:
    """The GMT calendar day of epoch millis, straight from ``datetime``
    so that no calendar table is shared with the engine's helpers."""
    return _dt.date(1970, 1, 1) + _dt.timedelta(days=ts // MILLIS_PER_DAY)


def _all_messages(graph: SocialGraph) -> list:
    return list(graph.posts.values()) + list(graph.comments.values())


def _likes_per_message(graph: SocialGraph) -> Counter:
    counts: Counter = Counter()
    for like in graph.likes_edges:
        counts[like.message_id] += 1
    return counts


def _replies_per_message(graph: SocialGraph) -> Counter:
    counts: Counter = Counter()
    for comment in graph.comments.values():
        parent = (
            comment.reply_of_post
            if comment.reply_of_post >= 0
            else comment.reply_of_comment
        )
        counts[parent] += 1
    return counts


def ref_bi1(graph: SocialGraph, date: Date) -> list[Bi1Row]:
    threshold = date_to_datetime(date)
    selected = [
        m for m in _all_messages(graph) if m.creation_date < threshold
    ]
    groups: dict[tuple, list] = defaultdict(list)
    for message in selected:
        # The band recomputed here, without reusing length_category().
        if message.length < 40:
            category = 0
        elif message.length < 80:
            category = 1
        elif message.length < 160:
            category = 2
        else:
            category = 3
        key = (
            _calendar_day(message.creation_date).year,
            message.is_comment,
            category,
        )
        groups[key].append(message.length)
    rows = [
        Bi1Row(
            year, is_comment, category,
            len(lengths),
            sum(lengths) / len(lengths),
            sum(lengths),
            100.0 * len(lengths) / len(selected),
        )
        for (year, is_comment, category), lengths in groups.items()
    ]
    return sorted(rows, key=lambda r: (-r.year, r.is_comment, r.length_category))


def ref_bi6(graph: SocialGraph, tag: str) -> list[Bi6Row]:
    tag_id = graph.tag_id(tag)
    likes = _likes_per_message(graph)
    replies = _replies_per_message(graph)
    per_person: dict[int, list[int]] = defaultdict(lambda: [0, 0, 0])
    for message in _all_messages(graph):
        if tag_id not in message.tag_ids:
            continue
        bucket = per_person[message.creator_id]
        bucket[0] += 1
        bucket[1] += replies.get(message.id, 0)
        bucket[2] += likes.get(message.id, 0)
    rows = [
        Bi6Row(
            person, m, r, l,
            MESSAGE_WEIGHT * m + REPLY_WEIGHT * r + LIKE_WEIGHT * l,
        )
        for person, (m, r, l) in per_person.items()
    ]
    return sorted(rows, key=lambda r: (-r.score, r.person_id))[:100]


def ref_bi8(graph: SocialGraph, tag: str) -> list[Bi8Row]:
    tag_id = graph.tag_id(tag)
    tagged = {
        m.id for m in _all_messages(graph) if tag_id in m.tag_ids
    }
    counts: Counter = Counter()
    for comment in graph.comments.values():
        parent = (
            comment.reply_of_post
            if comment.reply_of_post >= 0
            else comment.reply_of_comment
        )
        if parent not in tagged or tag_id in comment.tag_ids:
            continue
        for related in set(comment.tag_ids):
            counts[graph.tags[related].name] += 1
    rows = [Bi8Row(name, count) for name, count in counts.items()]
    return sorted(rows, key=lambda r: (-r.comment_count, r.related_tag_name))[:100]


def ref_bi12(graph: SocialGraph, date: Date, like_threshold: int) -> list[Bi12Row]:
    threshold = date_to_datetime(date)
    likes = _likes_per_message(graph)
    rows = []
    for message in _all_messages(graph):
        count = likes.get(message.id, 0)
        if message.creation_date > threshold and count > like_threshold:
            creator = graph.persons[message.creator_id]
            rows.append(
                Bi12Row(
                    message.id, message.creation_date,
                    creator.first_name, creator.last_name, count,
                )
            )
    return sorted(rows, key=lambda r: (-r.like_count, r.message_id))[:100]


def ref_bi13(graph: SocialGraph, country: str) -> list[Bi13Row]:
    country_id = graph.country_id(country)
    by_month: dict[tuple[int, int], Counter] = defaultdict(Counter)
    months: set[tuple[int, int]] = set()
    for message in _all_messages(graph):
        if message.country_id != country_id:
            continue
        day = _calendar_day(message.creation_date)
        key = (day.year, day.month)
        months.add(key)
        for tag_id in message.tag_ids:
            by_month[key][graph.tags[tag_id].name] += 1
    rows = []
    for year, month in months:
        top = sorted(
            by_month[(year, month)].items(), key=lambda kv: (-kv[1], kv[0])
        )[:TOP_TAGS_PER_MONTH]
        rows.append(Bi13Row(year, month, tuple(top)))
    return sorted(rows, key=lambda r: (-r.year, r.month))[:100]


def ref_bi14(graph: SocialGraph, begin: Date, end: Date) -> list[Bi14Row]:
    start_ts = date_to_datetime(begin)
    end_ts = date_to_datetime(end) + MILLIS_PER_DAY
    # Root resolution computed bottom-up, independent of root_post_of.
    root_of: dict[int, int] = {}
    for post in graph.posts.values():
        root_of[post.id] = post.id
    pending = list(graph.comments.values())
    while pending:
        remaining = []
        for comment in pending:
            parent = (
                comment.reply_of_post
                if comment.reply_of_post >= 0
                else comment.reply_of_comment
            )
            if parent in root_of:
                root_of[comment.id] = root_of[parent]
            else:
                remaining.append(comment)
        if len(remaining) == len(pending):
            break  # orphaned subtrees (deleted roots): ignore
        pending = remaining
    windowed_posts = {
        p.id: p
        for p in graph.posts.values()
        if start_ts <= p.creation_date < end_ts
    }
    thread_counts: Counter = Counter()
    for message in _all_messages(graph):
        root = root_of.get(message.id)
        if root in windowed_posts and start_ts <= message.creation_date < end_ts:
            thread_counts[root] += 1
    per_person: dict[int, list[int]] = defaultdict(lambda: [0, 0])
    for root, count in thread_counts.items():
        creator = windowed_posts[root].creator_id
        per_person[creator][0] += 1
        per_person[creator][1] += count
    rows = []
    for person_id, (threads, messages) in per_person.items():
        person = graph.persons[person_id]
        rows.append(
            Bi14Row(
                person_id, person.first_name, person.last_name,
                threads, messages,
            )
        )
    return sorted(rows, key=lambda r: (-r.message_count, r.person_id))[:100]


def ref_bi18(
    graph: SocialGraph, date: Date, length_threshold: int, languages
) -> list[Bi18Row]:
    threshold = date_to_datetime(date)
    wanted = set(languages)
    # Root language resolved through an explicit parent walk.
    language_cache: dict[int, str] = {}

    def language_of(message) -> str:
        if not message.is_comment:
            return message.language
        cached = language_cache.get(message.id)
        if cached is not None:
            return cached
        parent = (
            message.reply_of_post
            if message.reply_of_post >= 0
            else message.reply_of_comment
        )
        value = language_of(graph.message(parent))
        language_cache[message.id] = value
        return value

    counts = {pid: 0 for pid in graph.persons}
    for message in _all_messages(graph):
        if (
            message.content
            and message.length < length_threshold
            and message.creation_date > threshold
            and language_of(message) in wanted
        ):
            counts[message.creator_id] += 1
    histogram = Counter(counts.values())
    rows = [Bi18Row(mc, pc) for mc, pc in histogram.items()]
    return sorted(rows, key=lambda r: (-r.person_count, -r.message_count))


def ref_bi21(graph: SocialGraph, country: str, end_date: Date) -> list[Bi21Row]:
    country_id = graph.country_id(country)
    end_ts = date_to_datetime(end_date)
    residents = [
        pid
        for pid in graph.persons
        if graph.places[graph.persons[pid].city_id].part_of == country_id
    ]
    messages_per_person: Counter = Counter()
    for message in _all_messages(graph):
        if message.creation_date < end_ts:
            messages_per_person[message.creator_id] += 1
    zombies = set()
    for pid in residents:
        created = graph.persons[pid].creation_date
        if created >= end_ts:
            continue
        months = months_between_inclusive(created, end_ts)
        if messages_per_person.get(pid, 0) / months < 1.0:
            zombies.add(pid)
    creator_of = {m.id: m.creator_id for m in _all_messages(graph)}
    zombie_likes: Counter = Counter()
    total_likes: Counter = Counter()
    for like in graph.likes_edges:
        target = creator_of.get(like.message_id)
        if target not in zombies:
            continue
        if graph.persons[like.person_id].creation_date >= end_ts:
            continue
        total_likes[target] += 1
        if like.person_id in zombies and like.person_id != target:
            zombie_likes[target] += 1
    rows = [
        Bi21Row(
            pid,
            zombie_likes.get(pid, 0),
            total_likes.get(pid, 0),
            (
                zombie_likes.get(pid, 0) / total_likes[pid]
                if total_likes.get(pid)
                else 0.0
            ),
        )
        for pid in zombies
    ]
    return sorted(rows, key=lambda r: (-r.zombie_score, r.zombie_id))[:100]


#: query number -> independent reference implementation.
REFERENCE_IMPLEMENTATIONS = {
    1: ref_bi1,
    6: ref_bi6,
    8: ref_bi8,
    12: ref_bi12,
    13: ref_bi13,
    14: ref_bi14,
    18: ref_bi18,
    21: ref_bi21,
}
