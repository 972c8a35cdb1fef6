"""BI 22 — International dialog.

Reconstructed from the GRADES-NDA 2018 first draft (figure-embedded in
the supplied spec — see DESIGN.md).  Semantics implemented:

Given two Countries, score the interaction of each pair (person1 living
in country1, person2 living in country2):

* +4 for each direction in which one has a Comment directly replying to
  a Message of the other (so 0, 4 or 8 points),
* +10 when they know each other,
* +1 per like between them, each direction capped at 10.

Only pairs with a positive score are considered.  For each City of
country1, report the highest-scoring pair whose person1 lives there
(ties broken by ascending person ids).

Sort: score descending, person1 id ascending, person2 id ascending.
Limit 100.
Choke points: 1.3, 1.4, 2.1, 3.3, 5.1, 5.2, 5.3, 8.2, 8.3, 8.4.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple

from repro.graph.store import SocialGraph
from repro.queries.bi.base import BiQueryInfo
from repro.engine import expand, scan_messages, sort_key, top_k

INFO = BiQueryInfo(
    22,
    "International dialog",
    ("1.3", "1.4", "2.1", "3.1", "3.3", "5.1", "5.2", "5.3", "8.3", "8.4"),
    from_spec_text=False,
)

REPLY_SCORE = 4
KNOWS_SCORE = 10
LIKE_CAP = 10


class Bi22Row(NamedTuple):
    person1_id: int
    person2_id: int
    city1_name: str
    score: int


def bi22(graph: SocialGraph, country1: str, country2: str) -> list[Bi22Row]:
    """Run BI 22 for two country names.

    Join order (CP-2.1): every scored reply and like has its author in
    one of the two countries, so the Comments and likes are read per
    resident (creator index, likes adjacency) instead of scanning all of
    them and testing both endpoints."""
    persons1 = set(graph.persons_in_country(graph.country_id(country1)))
    persons2 = set(graph.persons_in_country(graph.country_id(country2)))
    residents = persons1 | persons2

    replied: dict[tuple[int, int], bool] = defaultdict(bool)
    likes: dict[tuple[int, int], int] = defaultdict(int)

    def pair_of(a: int, b: int) -> tuple[int, int] | None:
        if a in persons1 and b in persons2:
            return (a, b)
        if b in persons1 and a in persons2:
            return (b, a)
        return None

    for person_id in residents:
        for comment in scan_messages(graph, creator=person_id, kind="comment"):
            target = graph.parent_of(comment).creator_id
            if pair_of(person_id, target) is not None:
                replied[(person_id, target)] = True
    for _, like in expand(residents, graph.likes_by_person):
        target = graph.message(like.message_id).creator_id
        pair = pair_of(like.person_id, target)
        if pair is not None:
            likes[(like.person_id, target)] += 1

    pairs: set[tuple[int, int]] = set()
    for a, b in list(replied) + list(likes):
        pair = pair_of(a, b)
        if pair is not None:
            pairs.add(pair)
    for p1 in persons1:
        for friend in graph.friends_of(p1):
            if friend in persons2:
                pairs.add((p1, friend))

    best_per_city: dict[int, Bi22Row] = {}
    for p1, p2 in pairs:
        score = 0
        if replied[(p1, p2)]:
            score += REPLY_SCORE
        if replied[(p2, p1)]:
            score += REPLY_SCORE
        if p2 in graph.friends_of(p1):
            score += KNOWS_SCORE
        score += min(likes[(p1, p2)], LIKE_CAP)
        score += min(likes[(p2, p1)], LIKE_CAP)
        if score <= 0:
            continue
        city = graph.persons[p1].city_id
        row = Bi22Row(p1, p2, graph.places[city].name, score)
        incumbent = best_per_city.get(city)
        if incumbent is None or (-row.score, row.person1_id, row.person2_id) < (
            -incumbent.score,
            incumbent.person1_id,
            incumbent.person2_id,
        ):
            best_per_city[city] = row

    top = top_k(
        INFO.limit,
        key=lambda r: sort_key(
            (r.score, True), (r.person1_id, False), (r.person2_id, False)
        ),
    )
    top.extend(best_per_city.values())
    return top.result()
