"""BI 11 — Unrelated replies.

Reconstructed from the GRADES-NDA 2018 first draft (figure-embedded in
the supplied spec — see DESIGN.md).  Semantics implemented:

Given a Country and a list of blacklisted words, find Comments created
by Persons located in the Country that reply to a Message without
sharing any Tag with it (negative condition, CP-8.1) and whose content
contains none of the blacklisted words.  Group the qualifying replies by
(creator, reply tag); per group count distinct replies and the likes
those replies received.

Sort: like count descending, person id ascending, tag name ascending.
Limit 100.
Choke points: 1.1, 2.1, 2.2, 2.3, 3.1, 3.2, 6.1, 8.1, 8.3.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple, Sequence

from repro.graph.store import SocialGraph
from repro.queries.bi.base import BiQueryInfo
from repro.engine import scan_messages, sort_key, top_k

INFO = BiQueryInfo(
    11,
    "Unrelated replies",
    ("1.1", "2.1", "2.2", "2.3", "3.1", "3.2", "6.1", "8.1", "8.3"),
    from_spec_text=False,
)


class Bi11Row(NamedTuple):
    person_id: int
    tag_name: str
    reply_count: int
    like_count: int


def bi11(
    graph: SocialGraph, country: str, blacklist: Sequence[str]
) -> list[Bi11Row]:
    """Run BI 11 for a country name and blacklisted words.

    Join order (CP-2.1): the country's residents are few, so each one's
    Comments come through the creator index rather than a scan of every
    Comment filtered by creator country."""
    residents = set(graph.persons_in_country(graph.country_id(country)))
    lowered = [word.lower() for word in blacklist]

    groups: dict[tuple[int, int], list[int]] = defaultdict(lambda: [0, 0])
    comments = (
        comment
        for person_id in residents
        for comment in scan_messages(graph, creator=person_id, kind="comment")
    )
    for comment in comments:
        parent = graph.parent_of(comment)
        if set(comment.tag_ids) & set(parent.tag_ids):
            continue  # related reply — excluded
        content = comment.content.lower()
        if any(word in content for word in lowered):
            continue
        likes = len(graph.likes_of_message(comment.id))
        for tag_id in comment.tag_ids:
            bucket = groups[(comment.creator_id, tag_id)]
            bucket[0] += 1
            bucket[1] += likes

    top = top_k(
        INFO.limit,
        key=lambda r: sort_key(
            (r.like_count, True), (r.person_id, False), (r.tag_name, False)
        ),
    )
    for (person_id, tag_id), (replies, likes) in groups.items():
        top.add(Bi11Row(person_id, graph.tags[tag_id].name, replies, likes))
    return top.result()
