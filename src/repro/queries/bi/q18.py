"""BI 18 — How many persons have a given number of messages (spec page
readable — implemented verbatim).

For each Person, count their Messages (``messageCount``) that satisfy
all of: non-empty content (so no image posts), length strictly below the
threshold, creation date strictly after the date, and written in one of
the given languages — a Comment's language is that of the Post rooting
its thread, and the messages along the path need not themselves satisfy
the other constraints.  Persons with no qualifying Message count as
``messageCount = 0``.  Then, for each distinct ``messageCount`` value,
count the Persons with exactly that many qualifying Messages.

Sort: person count descending, message count descending.
Choke points: 1.1, 1.2, 1.4, 3.2, 4.2, 4.3, 8.1, 8.2, 8.3, 8.4, 8.5.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple, Sequence

from repro.graph.store import SocialGraph
from repro.queries.bi.base import BiQueryInfo
from repro.engine import scan_messages, scan_persons
from repro.util.dates import Date, date_to_datetime

INFO = BiQueryInfo(
    18,
    "How many persons have a given number of messages",
    ("1.1", "1.2", "1.4", "3.2", "4.2", "4.3", "8.1", "8.2", "8.3", "8.4", "8.5"),
    limit=None,
)


class Bi18Row(NamedTuple):
    message_count: int
    person_count: int


def bi18(
    graph: SocialGraph,
    date: Date,
    length_threshold: int,
    languages: Sequence[str],
) -> list[Bi18Row]:
    """Run BI 18 for a date, length threshold and language list."""
    threshold = date_to_datetime(date)

    per_person = Counter({person.id: 0 for person in scan_persons(graph)})
    # Language is pushed into the scan: the engine resolves a Comment's
    # root-Post language through the store (or, frozen, the dictionary-
    # encoded root-language code column).
    for message in scan_messages(
        graph, window=(threshold + 1, None), language=languages
    ):
        if not message.content:
            continue
        if message.length >= length_threshold:
            continue
        per_person[message.creator_id] += 1

    histogram = Counter(per_person.values())
    rows = [
        Bi18Row(message_count, person_count)
        for message_count, person_count in histogram.items()
    ]
    # message_count is the histogram key, unique per row: total.
    return sorted(rows, key=lambda r: (-r.person_count, -r.message_count))
