"""BI 1 — Posting summary.

Given a date, find all Messages created before that date.  Group them by
a 3-level grouping: year of creation; Comment or not; content-length
category (0: short < 40, 1: one-liner < 80, 2: tweet < 160, 3: long).
Per group report the message count, average and total content length,
and the group's percentage of all messages created before the date.

Sort: year descending, Posts before Comments, length category ascending.
Choke points: 1.2, 3.2, 4.1, 8.5.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.engine import group_agg, scan_messages
from repro.graph.store import SocialGraph
from repro.queries.bi.base import BiQueryInfo
from repro.util.dates import Date, date_to_datetime, year_of

INFO = BiQueryInfo(1, "Posting summary", ("1.2", "3.2", "4.1", "8.5"), limit=None)


class Bi1Row(NamedTuple):
    year: int
    is_comment: bool
    length_category: int
    message_count: int
    average_message_length: float
    sum_message_length: int
    percentage_of_messages: float


def length_category(length: int) -> int:
    """The four content-length bands of the query definition."""
    if length < 40:
        return 0
    if length < 80:
        return 1
    if length < 160:
        return 2
    return 3


def bi1(graph: SocialGraph, date: Date) -> list[Bi1Row]:
    """Run BI 1 for a maximum creation ``date`` (exclusive)."""
    threshold = date_to_datetime(date)

    def fold(bucket: list[int], message) -> None:
        bucket[0] += 1
        bucket[1] += message.length

    groups = group_agg(
        scan_messages(graph, window=(None, threshold)),
        key=lambda m: (
            year_of(m.creation_date),
            m.is_comment,
            length_category(m.length),
        ),
        zero=lambda: [0, 0],
        fold=fold,
    )
    total = sum(count for count, _ in groups.values())
    rows = [
        Bi1Row(
            year=year,
            is_comment=is_comment,
            length_category=category,
            message_count=count,
            average_message_length=total_length / count,
            sum_message_length=total_length,
            percentage_of_messages=100.0 * count / total,
        )
        for (year, is_comment, category), (count, total_length) in groups.items()
    ]
    # (year, is_comment, length_category) is the group-by key: total.
    return sorted(
        rows, key=lambda r: (-r.year, r.is_comment, r.length_category)
    )
