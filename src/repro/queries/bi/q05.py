"""BI 5 — Top posters in a country.

Reconstructed from the GRADES-NDA 2018 first draft (figure-embedded in
the supplied spec — see DESIGN.md).  Semantics implemented:

Given a Country, find the 100 most popular Forums, popularity being the
number of members located in the Country.  Then, for every member of
any of those popular Forums, count the Posts they created in the popular
Forums (members with zero posts are kept with count 0).

Sort: post count descending, person id ascending.  Limit 100.
Choke points: 1.2, 1.3, 2.1, 2.2, 2.3, 2.4, 3.3, 5.3, 6.1, 8.4.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple

from repro.graph.store import SocialGraph
from repro.queries.bi.base import BiQueryInfo
from repro.engine import scan_forums, sort_key, top_k

INFO = BiQueryInfo(
    5,
    "Top posters in a country",
    ("1.2", "1.3", "2.1", "2.2", "2.3", "2.4", "3.3", "5.3", "6.1", "8.4"),
    from_spec_text=False,
)

#: Number of popular forums considered (first stage of the query).
POPULAR_FORUM_COUNT = 100


class Bi5Row(NamedTuple):
    person_id: int
    first_name: str
    last_name: str
    creation_date: int
    post_count: int


def bi5(graph: SocialGraph, country: str) -> list[Bi5Row]:
    """Run BI 5 for a country name."""
    country_id = graph.country_id(country)
    country_persons = set(graph.persons_in_country(country_id))

    forum_popularity: dict[int, int] = defaultdict(int)
    for forum in scan_forums(graph):
        for membership in graph.members_of_forum(forum.id):
            if membership.person_id in country_persons:
                forum_popularity[forum.id] += 1
    popular = top_k(
        # item[0] is the forum id, unique per group: total.
        POPULAR_FORUM_COUNT, key=lambda item: sort_key((item[1], True), (item[0], False))
    )
    popular.extend(forum_popularity.items())
    popular_forums = {forum_id for forum_id, _ in popular}

    members: set[int] = set()
    for forum_id in popular_forums:
        members.update(m.person_id for m in graph.members_of_forum(forum_id))

    top = top_k(
        INFO.limit, key=lambda r: sort_key((r.post_count, True), (r.person_id, False))
    )
    for person_id in members:
        person = graph.persons[person_id]
        post_count = sum(
            1 for p in graph.posts_by(person_id) if p.forum_id in popular_forums
        )
        top.add(
            Bi5Row(
                person_id,
                person.first_name,
                person.last_name,
                person.creation_date,
                post_count,
            )
        )
    return top.result()
