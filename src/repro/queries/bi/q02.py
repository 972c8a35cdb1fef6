"""BI 2 — Top tags for country, age, gender, time.

Reconstructed from the GRADES-NDA 2018 first draft (the figure embedding
this query's definition in the supplied spec did not survive text
extraction — see DESIGN.md).  Semantics implemented:

Given two countries and a closed-open creation window, find the Tags of
Messages created by Persons located in either country within the window.
Group by (country name, month of creation, creator gender, creator age
group, tag name), where the age group is ``floor(years between birthday
and the simulation end / 5)``.  Keep groups with at least
``min_count`` messages (the draft uses a threshold of 100 at SF100
scale; micro-scale runs pass a smaller one).

Sort: message count descending, then tag name ascending, then the rest
of the group key — age group, gender, month, country name — ascending,
in the 2018 draft's order. Limit 100.  Count and tag name alone tie
between groups (one tag, several months or age groups), so without the
full key the top 100 would depend on the order the store was loaded in.
Choke points: 1.1, 1.2, 1.3, 2.1, 2.3, 3.1, 3.2, 8.5.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple

from repro.graph.store import SocialGraph
from repro.queries.bi.base import BiQueryInfo
from repro.util.dates import Date, date_to_datetime, month_of
from repro.engine import scan_messages, top_k

INFO = BiQueryInfo(
    2,
    "Top tags for country, age, gender, time",
    ("1.1", "1.2", "1.3", "2.1", "2.3", "3.1", "3.2", "8.5"),
    from_spec_text=False,
)

#: Width of one age group in years.
AGE_GROUP_YEARS = 5
_DAYS_PER_YEAR = 365.25


class Bi2Row(NamedTuple):
    country_name: str
    message_month: int
    person_gender: str
    age_group: int
    tag_name: str
    message_count: int


def bi2(
    graph: SocialGraph,
    start_date: Date,
    end_date: Date,
    country1: str,
    country2: str,
    end_of_simulation: Date,
    min_count: int = 1,
) -> list[Bi2Row]:
    """Run BI 2 over the window [start_date, end_date)."""
    start = date_to_datetime(start_date)
    end = date_to_datetime(end_date)
    groups: dict[tuple[str, int, str, int, str], int] = defaultdict(int)

    for country_name in (country1, country2):
        country = graph.country_id(country_name)
        for person_id in graph.persons_in_country(country):
            person = graph.persons[person_id]
            age_group = int(
                (end_of_simulation - person.birthday)
                / _DAYS_PER_YEAR
                / AGE_GROUP_YEARS
            )
            for message in scan_messages(
                graph, creator=person_id, window=(start, end)
            ):
                month = month_of(message.creation_date)
                for tag_id in message.tag_ids:
                    key = (
                        country_name,
                        month,
                        person.gender,
                        age_group,
                        graph.tags[tag_id].name,
                    )
                    groups[key] += 1

    top = top_k(
        INFO.limit,
        key=lambda r: (
            -r.message_count,
            r.tag_name,
            r.age_group,
            r.person_gender,
            r.message_month,
            r.country_name,
        ),
    )
    for (country, month, gender, age_group, tag_name), count in groups.items():
        if count >= min_count:
            top.add(Bi2Row(country, month, gender, age_group, tag_name, count))
    return top.result()
