"""BI 23 — Holiday destinations.

Reconstructed from the GRADES-NDA 2018 first draft (figure-embedded in
the supplied spec — see DESIGN.md).  Semantics implemented:

Given a Country ("home"), count the Messages created by Persons living
in the home Country that are located in a *different* Country (the
destination), grouped by (destination country, month of creation).

Sort: message count descending, destination name ascending, month
ascending.  Limit 100.
Choke points: 1.4, 2.3, 2.4, 3.3, 4.3, 8.5.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple

from repro.graph.store import SocialGraph
from repro.queries.bi.base import BiQueryInfo
from repro.util.dates import month_of
from repro.engine import scan_messages, sort_key, top_k

INFO = BiQueryInfo(
    23,
    "Holiday destinations",
    ("1.4", "2.3", "2.4", "3.3", "4.3", "8.5"),
    from_spec_text=False,
)


class Bi23Row(NamedTuple):
    message_count: int
    destination_name: str
    month: int


def bi23(graph: SocialGraph, country: str) -> list[Bi23Row]:
    """Run BI 23 for a home country name.

    Join order (CP-2.1): starts from the home country's few residents
    and reads their Messages through the creator index."""
    home = graph.country_id(country)
    residents = set(graph.persons_in_country(home))

    groups: dict[tuple[int, int], int] = defaultdict(int)
    for person_id in residents:
        for message in scan_messages(graph, creator=person_id):
            if message.country_id == home:
                continue
            groups[(message.country_id, month_of(message.creation_date))] += 1

    top = top_k(
        INFO.limit,
        # (destination_name, month) is the group-by key: total.
        key=lambda r: sort_key(
            (r.message_count, True), (r.destination_name, False), (r.month, False)
        ),
    )
    for (destination, month), count in groups.items():
        top.add(Bi23Row(count, graph.places[destination].name, month))
    return top.result()
