"""BI 25 — Trusted connection paths.

Reconstructed from the GRADES-NDA 2018 first draft (figure-embedded in
the supplied spec — see DESIGN.md; the weighting rule matches IC 14's
readable definition with BI 25's date filter added).  Semantics:

Given two Persons and a date window, enumerate all (unweighted) shortest
paths between them over knows.  Weight each consecutive pair of Persons
on a path by their interactions *within the window*: each direct reply
(either direction) to a Post contributes 1.0, to a Comment 0.5 — only
replies created inside [start_date, end_date) count.  A path's weight is
the sum of its pair weights.

Sort: path weight descending, then the path's person-id sequence
ascending (deterministic tie-break; the spec leaves ties unspecified).
Limit 100.
Choke points: 1.2, 2.1, 2.2, 2.4, 3.3, 5.1, 5.3, 7.2, 7.3, 8.1, 8.3, 8.4, 8.5, 8.6.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple

from repro.engine import scan_messages, sort_key, top_k
from repro.graph.store import SocialGraph
from repro.queries.bi.base import BiQueryInfo
from repro.queries.common import all_shortest_paths
from repro.util.dates import Date, date_to_datetime

INFO = BiQueryInfo(
    25,
    "Trusted connection paths",
    (
        "1.2", "2.1", "2.2", "2.4", "3.3", "5.1", "5.3",
        "7.2", "7.3", "8.1", "8.3", "8.4", "8.5", "8.6",
    ),
    from_spec_text=False,
)

POST_REPLY_WEIGHT = 1.0
COMMENT_REPLY_WEIGHT = 0.5


class Bi25Row(NamedTuple):
    person_ids_in_path: tuple[int, ...]
    path_weight: float


def _pair_weights(
    graph: SocialGraph,
    pairs: set[tuple[int, int]],
    start_ts: int,
    end_ts: int,
) -> dict[tuple[int, int], float]:
    """Interaction weight within the window of each unordered person
    pair in ``pairs``.

    Join order (CP-2.1): only Comments written by a person on one of
    the pairs can weigh, so they come through the creator index with
    the window as a residual — not from a scan of every windowed
    Comment."""
    weights: dict[tuple[int, int], float] = defaultdict(float)
    persons = {person for pair in pairs for person in pair}
    for a in persons:
        for comment in scan_messages(
            graph, creator=a, kind="comment", window=(start_ts, end_ts)
        ):
            parent = graph.parent_of(comment)
            b = parent.creator_id
            pair = (min(a, b), max(a, b))
            if pair not in pairs:  # a self-reply's (a, a) is on no path
                continue
            weights[pair] += (
                POST_REPLY_WEIGHT
                if not parent.is_comment
                else COMMENT_REPLY_WEIGHT
            )
    return weights


def bi25(
    graph: SocialGraph,
    person1_id: int,
    person2_id: int,
    start_date: Date,
    end_date: Date,
) -> list[Bi25Row]:
    """Run BI 25 for two person ids and a date window."""
    paths = all_shortest_paths(graph, person1_id, person2_id)
    if not paths:
        return []
    pairs = {
        (min(a, b), max(a, b)) for path in paths for a, b in zip(path, path[1:])
    }
    weights = _pair_weights(
        graph, pairs, date_to_datetime(start_date), date_to_datetime(end_date)
    )
    top = top_k(
        INFO.limit,
        key=lambda r: sort_key(
            (r.path_weight, True), (r.person_ids_in_path, False)
        ),
    )
    for path in paths:
        weight = sum(
            weights.get((min(a, b), max(a, b)), 0.0)
            for a, b in zip(path, path[1:])
        )
        top.add(Bi25Row(tuple(path), weight))
    return top.result()
