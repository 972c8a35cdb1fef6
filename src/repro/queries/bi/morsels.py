"""Morsel decompositions of the heavy whole-scan BI reads.

A :class:`MorselPlan` splits one BI query's :func:`scan_messages` range
into independent slab morsels (via :func:`repro.engine.morsel_ranges`),
computes a small picklable *partial aggregate* per morsel — dispatched
across the :mod:`repro.exec` pool as ``"bi_morsel"`` tasks — and merges
the partials back into rows identical to the serial query.  The merge
is deterministic: partials are combined in morsel submission order and
the final sort is the query's own total order, so a morselized run is
row-identical to the serial one regardless of worker scheduling.

Only queries whose aggregate is decomposable row-by-row get a plan.
The message-window scans (BI 1, 3, 14, 18) chunk their date slabs; the
entity scans chunk ordinal ranges instead — forum ordinals (BI 4, 9),
one tag's postings list (BI 6), and a country's residents (BI 21).  On
a live store or a dirty overlaid snapshot
:func:`repro.engine.morsel_ranges` returns the single whole-scan
fallback morsel, so the same plan degrades to the serial scan inside
one task.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.engine import (
    group_agg,
    morsel_ranges,
    scan_forum_morsel,
    scan_message_morsel,
    scan_messages,
    scan_person_morsel,
    scan_persons,
    scan_tag_morsel,
    sort_key,
    top_k,
)
from repro.graph.store import SocialGraph
from repro.queries.bi.q01 import Bi1Row, length_category
from repro.queries.bi.q03 import INFO as Q3_INFO
from repro.queries.bi.q03 import Bi3Row, bi3_windows
from repro.queries.bi.q04 import INFO as Q4_INFO
from repro.queries.bi.q04 import Bi4Row, bi4_candidates
from repro.queries.bi.q06 import (
    INFO as Q6_INFO,
    LIKE_WEIGHT,
    MESSAGE_WEIGHT,
    REPLY_WEIGHT,
    Bi6Row,
)
from repro.queries.bi.q09 import INFO as Q9_INFO
from repro.queries.bi.q09 import Bi9Row, bi9_candidates
from repro.queries.bi.q14 import INFO as Q14_INFO
from repro.queries.bi.q14 import Bi14Row
from repro.queries.bi.q18 import Bi18Row
from repro.queries.bi.q21 import INFO as Q21_INFO
from repro.queries.bi.q21 import bi21_scores
from repro.util.dates import (
    MILLIS_PER_DAY,
    DateTime,
    date_to_datetime,
    months_between_inclusive,
    year_of,
)

__all__ = ["MORSEL_PLANS", "MorselPlan"]


@dataclass(frozen=True)
class MorselPlan:
    """How to decompose one BI query's heavy scan.

    ``kind`` names the slab family :func:`repro.engine.morsel_ranges`
    chunks: ``None``/``"post"``/``"comment"`` for the message date
    slabs (``window(binding)`` gives the scan's date window), or an
    entity kind (``"forum"``/``"tag"``/``"person"``) for ordinal
    ranges, with ``key(graph, binding)`` resolving the tag/country id
    the slab is keyed on.  ``partial(graph, slab_kind, lo, hi, lead,
    binding)`` runs worker-side over one morsel and must return a
    picklable value; ``merge(graph, partials, binding)`` runs
    driver-side over the partials in submission order and returns the
    query's rows.
    """

    number: int
    kind: str | None
    window: Callable[[tuple], tuple[DateTime | None, DateTime | None]] | None
    partial: Callable[..., Any]
    merge: Callable[..., list]
    key: Callable[[SocialGraph, tuple], int] | None = None

    def ranges(
        self, graph: SocialGraph, binding: tuple, morsel_size: int
    ) -> list:
        """This plan's morsel decomposition over ``graph`` — the single
        dispatch point the driver and ``run_morselized`` share."""
        return morsel_ranges(
            graph,
            window=None if self.window is None else self.window(binding),
            kind=self.kind,
            morsel_size=morsel_size,
            key=None if self.key is None else self.key(graph, binding),
        )


# --- BI 1: posting summary --------------------------------------------

def _bi1_window(binding: tuple) -> tuple[DateTime | None, DateTime | None]:
    (date,) = binding
    return (None, date_to_datetime(date))


def _bi1_partial(
    graph: SocialGraph,
    slab_kind: str,
    lo: int,
    hi: int,
    lead: bool,
    binding: tuple,
) -> dict:
    """BI 1's 3-level group-by over one morsel: ``{key: [count, sum]}``.

    Pre-aggregated with a plain dict, *not* :func:`group_agg` — the
    hash aggregation happens once, in :func:`_bi1_merge`, so the
    morselized run's ``groups_created`` tally equals the serial one
    instead of re-counting every group per morsel.
    """
    window = _bi1_window(binding)
    groups: dict[tuple[int, bool, int], list[int]] = {}
    for message in scan_message_morsel(
        graph, slab_kind, lo, hi, window=window, lead=lead
    ):
        key = (
            year_of(message.creation_date),
            message.is_comment,
            length_category(message.length),
        )
        bucket = groups.get(key)
        if bucket is None:
            groups[key] = [1, message.length]
        else:
            bucket[0] += 1
            bucket[1] += message.length
    return groups


def _bi1_merge(
    graph: SocialGraph, partials: Sequence[dict], binding: tuple
) -> list[Bi1Row]:
    def fold(bucket: list[int], item: tuple) -> None:
        _key, (count, total_length) = item
        bucket[0] += count
        bucket[1] += total_length

    combined = group_agg(
        (item for part in partials for item in part.items()),
        key=lambda item: item[0],
        zero=lambda: [0, 0],
        fold=fold,
    )
    total = sum(count for count, _ in combined.values())
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
        for (year, is_comment, category), (count, total_length)
        in combined.items()
    ]
    # (year, is_comment, length_category) is the group-by key: total.
    return sorted(
        rows, key=lambda r: (-r.year, r.is_comment, r.length_category)
    )


# --- BI 3: tag evolution ----------------------------------------------

def _bi3_window(binding: tuple) -> tuple[DateTime | None, DateTime | None]:
    """The union of the two consecutive month windows (contiguous, so
    one scan sees exactly the rows of the serial query's union scan)."""
    year, month = binding
    window1, window2 = bi3_windows(year, month)
    return (window1[0], window2[1])


def _bi3_partial(
    graph: SocialGraph,
    slab_kind: str,
    lo: int,
    hi: int,
    lead: bool,
    binding: tuple,
) -> dict:
    """Per-(tag, month) counts over one morsel: ``{(tag_id, in_month2):
    count}`` — a plain dict, like BI 1's partial, so the hash
    aggregation (and its ``groups_created`` tally) happens once at
    merge."""
    year, month = binding
    _window1, window2 = bi3_windows(year, month)
    split = window2[0]
    counts: dict[tuple[int, bool], int] = {}
    for message in scan_message_morsel(
        graph, slab_kind, lo, hi, window=_bi3_window(binding), lead=lead
    ):
        second = message.creation_date >= split
        for tag_id in message.tag_ids:
            key = (tag_id, second)
            counts[key] = counts.get(key, 0) + 1
    return counts


def _bi3_merge(
    graph: SocialGraph, partials: Sequence[dict], binding: tuple
) -> list[Bi3Row]:
    def fold(bucket: list[int], item: tuple) -> None:
        bucket[0] += item[1]

    combined = group_agg(
        (item for part in partials for item in part.items()),
        key=lambda item: item[0],
        zero=lambda: [0],
        fold=fold,
    )
    top = top_k(
        Q3_INFO.limit,
        key=lambda r: sort_key((r.diff, True), (r.tag_name, False)),
    )
    # Sorted tag ids: the same heap insertion order as the serial query,
    # so the top-k counters match exactly.
    for tag_id in sorted({tag_id for tag_id, _ in combined}):
        c1 = combined.get((tag_id, False), [0])[0]
        c2 = combined.get((tag_id, True), [0])[0]
        top.add(Bi3Row(graph.tags[tag_id].name, c1, c2, abs(c1 - c2)))
    return top.result()


# --- BI 4: popular topics in a country (forum morsels) ----------------

def _bi4_partial(
    graph: SocialGraph,
    slab_kind: str,
    lo: int,
    hi: int,
    lead: bool,
    binding: tuple,
) -> list:
    """Qualifying :class:`Bi4Row` candidates among forums ``[lo, hi)``
    — the per-forum work (moderator country check, tagged-post count)
    runs entirely worker-side; the merge only ranks."""
    tag_class, country = binding
    country_id = graph.country_id(country)
    class_tags = set(graph.tags_of_class(graph.tagclass_id(tag_class)))
    forums = scan_forum_morsel(graph, lo, hi, lead=lead)
    return list(bi4_candidates(graph, forums, class_tags, country_id))


def _bi4_merge(
    graph: SocialGraph, partials: Sequence[list], binding: tuple
) -> list[Bi4Row]:
    top = top_k(
        Q4_INFO.limit,
        key=lambda r: sort_key((r.post_count, True), (r.forum_id, False)),
    )
    for part in partials:
        for row in part:
            top.add(Bi4Row(*row))
    return top.result()


# --- BI 6: most active posters of a topic (tag-postings morsels) ------

def _bi6_key(graph: SocialGraph, binding: tuple) -> int:
    (tag,) = binding
    return graph.tag_id(tag)


def _bi6_partial(
    graph: SocialGraph,
    slab_kind: str,
    lo: int,
    hi: int,
    lead: bool,
    binding: tuple,
) -> dict:
    """Per-creator ``[messages, replies, likes]`` over one tag-postings
    morsel.  A plain dict in first-seen creator order — the serial
    query aggregates with a ``defaultdict``, not :func:`group_agg`, so
    the merge must not introduce a ``groups_created`` tally either."""
    tag_id = _bi6_key(graph, binding)
    messages = scan_tag_morsel(graph, tag_id, lo, hi, lead=lead)
    counts: dict[int, list[int]] = {}
    for message in messages:
        bucket = counts.get(message.creator_id)
        if bucket is None:
            bucket = counts[message.creator_id] = [0, 0, 0]
        bucket[0] += 1
        bucket[1] += len(graph.replies_of(message.id))
        bucket[2] += len(graph.likes_of_message(message.id))
    return counts


def _bi6_merge(
    graph: SocialGraph, partials: Sequence[dict], binding: tuple
) -> list[Bi6Row]:
    counts: dict[int, list[int]] = {}
    for part in partials:
        for person_id, (messages, replies, likes) in part.items():
            bucket = counts.get(person_id)
            if bucket is None:
                counts[person_id] = [messages, replies, likes]
            else:
                bucket[0] += messages
                bucket[1] += replies
                bucket[2] += likes
    top = top_k(
        Q6_INFO.limit,
        key=lambda r: sort_key((r.score, True), (r.person_id, False)),
    )
    for person_id, (messages, replies, likes) in counts.items():
        score = (
            MESSAGE_WEIGHT * messages
            + REPLY_WEIGHT * replies
            + LIKE_WEIGHT * likes
        )
        top.add(Bi6Row(person_id, messages, replies, likes, score))
    return top.result()


# --- BI 9: forum with related tags (forum morsels) --------------------

def _bi9_partial(
    graph: SocialGraph,
    slab_kind: str,
    lo: int,
    hi: int,
    lead: bool,
    binding: tuple,
) -> list:
    """Qualifying :class:`Bi9Row` candidates among forums ``[lo, hi)``."""
    tag_class1, tag_class2, threshold = binding
    tags1 = set(graph.tags_of_class(graph.tagclass_id(tag_class1)))
    tags2 = set(graph.tags_of_class(graph.tagclass_id(tag_class2)))
    forums = scan_forum_morsel(graph, lo, hi, lead=lead)
    return list(bi9_candidates(graph, forums, tags1, tags2, threshold))


def _bi9_merge(
    graph: SocialGraph, partials: Sequence[list], binding: tuple
) -> list[Bi9Row]:
    top = top_k(
        Q9_INFO.limit,
        key=lambda r: sort_key(
            (r.count1, True), (r.count2, True), (r.forum_id, False)
        ),
    )
    for part in partials:
        for row in part:
            top.add(Bi9Row(*row))
    return top.result()


# --- BI 14: top thread initiators (post-slab morsels) -----------------

def _bi14_window(binding: tuple) -> tuple[DateTime | None, DateTime | None]:
    begin, end = binding
    return (date_to_datetime(begin), date_to_datetime(end) + MILLIS_PER_DAY)


def _bi14_partial(
    graph: SocialGraph,
    slab_kind: str,
    lo: int,
    hi: int,
    lead: bool,
    binding: tuple,
) -> dict:
    """Per-creator ``[thread_count, message_count]`` over one post
    morsel, walking each root's reply tree worker-side (a plain dict in
    first-seen creator order — the serial query's aggregation shape)."""
    window = _bi14_window(binding)
    end_ts = window[1]
    threads: dict[int, list[int]] = {}
    # The fallback morsel must keep the serial scan's kind="post"
    # restriction, which the untyped "*" slab cannot carry.
    roots = (
        scan_messages(graph, window=window, kind="post")
        if slab_kind == "*"
        else scan_message_morsel(
            graph, slab_kind, lo, hi, window=window, lead=lead
        )
    )
    for post in roots:
        counts = threads.setdefault(post.creator_id, [0, 0])
        counts[0] += 1
        stack = [post]
        while stack:
            message = stack.pop()
            if message.creation_date >= end_ts:
                continue
            counts[1] += 1
            stack.extend(graph.replies_of(message.id))
    return threads


def _bi14_merge(
    graph: SocialGraph, partials: Sequence[dict], binding: tuple
) -> list[Bi14Row]:
    threads: dict[int, list[int]] = {}
    for part in partials:
        for person_id, (thread_count, message_count) in part.items():
            counts = threads.get(person_id)
            if counts is None:
                threads[person_id] = [thread_count, message_count]
            else:
                counts[0] += thread_count
                counts[1] += message_count
    top = top_k(
        Q14_INFO.limit,
        key=lambda r: sort_key((r.message_count, True), (r.person_id, False)),
    )
    for person_id, (thread_count, message_count) in threads.items():
        person = graph.persons[person_id]
        top.add(
            Bi14Row(
                person_id,
                person.first_name,
                person.last_name,
                thread_count,
                message_count,
            )
        )
    return top.result()


# --- BI 21: zombies in a country (country-resident morsels) -----------

def _bi21_key(graph: SocialGraph, binding: tuple) -> int:
    country, _end_date = binding
    return graph.country_id(country)


def _bi21_partial(
    graph: SocialGraph,
    slab_kind: str,
    lo: int,
    hi: int,
    lead: bool,
    binding: tuple,
) -> list:
    """Zombie ids among the country's residents ``[lo, hi)`` (sorted-id
    order, the canonical order of the country pushdown): the per-person
    message-rate scan dominates BI 21 and decomposes row-by-row."""
    country, end_date = binding
    country_id = graph.country_id(country)
    end_ts = date_to_datetime(end_date)
    residents = scan_person_morsel(
        graph, lo, hi, country=country_id, lead=lead
    )
    zombies: list[int] = []
    for person in residents:
        if person.creation_date >= end_ts:
            continue
        months = months_between_inclusive(person.creation_date, end_ts)
        message_count = sum(
            1
            for _ in scan_messages(
                graph, creator=person.id, window=(None, end_ts)
            )
        )
        if message_count / months < 1.0:
            zombies.append(person.id)
    return zombies


def _bi21_merge(
    graph: SocialGraph, partials: Sequence[list], binding: tuple
) -> list:
    _country, end_date = binding
    end_ts = date_to_datetime(end_date)
    zombies: set[int] = set()
    for part in partials:
        zombies.update(part)
    top = top_k(
        Q21_INFO.limit,
        key=lambda r: sort_key((r.zombie_score, True), (r.zombie_id, False)),
    )
    for row in bi21_scores(graph, zombies, end_ts):
        top.add(row)
    return top.result()


# --- BI 18: message-count histogram -----------------------------------

def _bi18_window(binding: tuple) -> tuple[DateTime | None, DateTime | None]:
    date, _length_threshold, _languages = binding
    return (date_to_datetime(date) + 1, None)


def _bi18_partial(
    graph: SocialGraph,
    slab_kind: str,
    lo: int,
    hi: int,
    lead: bool,
    binding: tuple,
) -> Counter:
    """Qualifying-message counts per creator over one morsel."""
    _date, length_threshold, languages = binding
    counts: Counter = Counter()
    for message in scan_message_morsel(
        graph,
        slab_kind,
        lo,
        hi,
        window=_bi18_window(binding),
        language=languages,
        lead=lead,
    ):
        if not message.content:
            continue
        if message.length >= length_threshold:
            continue
        counts[message.creator_id] += 1
    return counts


def _bi18_merge(
    graph: SocialGraph, partials: Sequence[Counter], binding: tuple
) -> list[Bi18Row]:
    per_person = Counter({person.id: 0 for person in scan_persons(graph)})
    for part in partials:
        per_person.update(part)
    histogram = Counter(per_person.values())
    rows = [
        Bi18Row(message_count, person_count)
        for message_count, person_count in histogram.items()
    ]
    # message_count is the histogram key, unique per row: total.
    return sorted(rows, key=lambda r: (-r.person_count, -r.message_count))


#: BI query number -> its morsel decomposition.  Queries not listed
#: here have no decomposable scan and always run serially.
MORSEL_PLANS: dict[int, MorselPlan] = {
    1: MorselPlan(1, None, _bi1_window, _bi1_partial, _bi1_merge),
    3: MorselPlan(3, None, _bi3_window, _bi3_partial, _bi3_merge),
    4: MorselPlan(4, "forum", None, _bi4_partial, _bi4_merge),
    6: MorselPlan(6, "tag", None, _bi6_partial, _bi6_merge, key=_bi6_key),
    9: MorselPlan(9, "forum", None, _bi9_partial, _bi9_merge),
    14: MorselPlan(14, "post", _bi14_window, _bi14_partial, _bi14_merge),
    18: MorselPlan(18, None, _bi18_window, _bi18_partial, _bi18_merge),
    21: MorselPlan(
        21, "person", None, _bi21_partial, _bi21_merge, key=_bi21_key
    ),
}
