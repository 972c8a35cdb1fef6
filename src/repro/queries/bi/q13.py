"""BI 13 — Popular tags per month in a country (spec page readable).

Find all Messages located in a given Country, as well as their Tags.
Group Messages by creation year and month.  For each group find the five
most popular Tags — popularity is the number of the group's Messages the
Tag appears on — sorted by popularity descending then name ascending.
Groups exist for every (year, month) with at least one Message in the
Country, even when none of its Messages carries a Tag (empty list).

Sort: year descending, month ascending.  Limit 100.
Choke points: 1.2, 2.2, 2.3, 3.2, 6.1, 8.3, 8.5.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import NamedTuple

from repro.graph.store import SocialGraph
from repro.queries.bi.base import BiQueryInfo
from repro.util.dates import month_of, year_of
from repro.engine import scan_messages, sort_key, top_k

INFO = BiQueryInfo(
    13,
    "Popular tags per month in a country",
    ("1.2", "2.2", "2.3", "3.2", "6.1", "8.3", "8.5"),
)

TOP_TAGS_PER_MONTH = 5


class Bi13Row(NamedTuple):
    year: int
    month: int
    #: (tag name, message count) pairs, most popular first.
    popular_tags: tuple[tuple[str, int], ...]


def bi13(graph: SocialGraph, country: str) -> list[Bi13Row]:
    """Run BI 13 for a country name."""
    country_id = graph.country_id(country)
    month_tag_counts: dict[tuple[int, int], Counter] = defaultdict(Counter)
    months_seen: set[tuple[int, int]] = set()
    for message in scan_messages(graph):
        if message.country_id != country_id:
            continue
        key = (year_of(message.creation_date), month_of(message.creation_date))
        months_seen.add(key)
        for tag_id in message.tag_ids:
            month_tag_counts[key][graph.tags[tag_id].name] += 1

    top = top_k(
        # (year, month) is the group-by key, one row each: total.
        INFO.limit, key=lambda r: sort_key((r.year, True), (r.month, False))
    )
    for key in months_seen:
        ranked = sorted(
            # kv[0] is the tag name, unique within a month: total.
            month_tag_counts[key].items(), key=lambda kv: (-kv[1], kv[0])
        )[:TOP_TAGS_PER_MONTH]
        top.add(Bi13Row(key[0], key[1], tuple(ranked)))
    return top.result()
