"""Join-order differential for BI 11, 22, 23 and 25.

These four reads start from the few persons they are about — a
country's residents, or the persons on BI 25's shortest paths — and
reach Messages and likes through the creator and likes adjacency
(CP-2.1 rich join order, CP-3.3 scattered index access).  The oracles
below are the full-scan bodies the reads had before that rewrite, kept
verbatim as test-local functions.  Every curated binding must return
identical rows from both on four layouts of the same data — the live
store, its frozen snapshot, the index-ablated store, and a
``FreezeManager`` overlay view after half the insert/delete
microbatch stream — at two micro scale factors.
"""

from __future__ import annotations

import math
from collections import defaultdict

import pytest

from repro.driver.bi_driver import build_microbatches
from repro.engine import scan_likes, scan_messages
from repro.engine import sort_key, top_k
from repro.graph.delta import OverlaidGraph
from repro.graph.frozen import FreezeManager, freeze
from repro.graph.store import SocialGraph
from repro.params.curation import ParameterGenerator
from repro.queries.bi import bi11, bi22, bi23, bi25
from repro.queries.bi.q11 import INFO as INFO11, Bi11Row
from repro.queries.bi.q22 import INFO as INFO22, Bi22Row
from repro.queries.bi.q22 import KNOWS_SCORE, LIKE_CAP, REPLY_SCORE
from repro.queries.bi.q23 import INFO as INFO23, Bi23Row
from repro.queries.bi.q25 import INFO as INFO25, Bi25Row
from repro.queries.bi.q25 import COMMENT_REPLY_WEIGHT, POST_REPLY_WEIGHT
from repro.queries.common import all_shortest_paths
from repro.queries.interactive.deletes import ALL_DELETES
from repro.queries.interactive.updates import ALL_UPDATES
from repro.util.dates import date_to_datetime, month_of

# -- the full-scan oracles ----------------------------------------------------


def oracle_bi11(graph, country, blacklist):
    country_id = graph.country_id(country)
    country_persons = set(graph.persons_in_country(country_id))
    lowered = [word.lower() for word in blacklist]

    groups: dict[tuple[int, int], list[int]] = defaultdict(lambda: [0, 0])
    for comment in scan_messages(graph, kind="comment"):
        if comment.creator_id not in country_persons:
            continue
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
        INFO11.limit,
        key=lambda r: sort_key(
            (r.like_count, True), (r.person_id, False), (r.tag_name, False)
        ),
    )
    for (person_id, tag_id), (replies, likes) in groups.items():
        top.add(Bi11Row(person_id, graph.tags[tag_id].name, replies, likes))
    return top.result()


def oracle_bi22(graph, country1, country2):
    persons1 = set(graph.persons_in_country(graph.country_id(country1)))
    persons2 = set(graph.persons_in_country(graph.country_id(country2)))

    replied: dict[tuple[int, int], bool] = defaultdict(bool)
    likes: dict[tuple[int, int], int] = defaultdict(int)

    def pair_of(a: int, b: int) -> tuple[int, int] | None:
        if a in persons1 and b in persons2:
            return (a, b)
        if b in persons1 and a in persons2:
            return (b, a)
        return None

    for comment in scan_messages(graph, kind="comment"):
        target = graph.parent_of(comment).creator_id
        pair = pair_of(comment.creator_id, target)
        if pair is not None:
            replied[(comment.creator_id, target)] = True
    for like in scan_likes(graph):
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
        INFO22.limit,
        key=lambda r: sort_key(
            (r.score, True), (r.person1_id, False), (r.person2_id, False)
        ),
    )
    top.extend(best_per_city.values())
    return top.result()


def oracle_bi23(graph, country):
    home = graph.country_id(country)
    residents = set(graph.persons_in_country(home))

    groups: dict[tuple[int, int], int] = defaultdict(int)
    for message in scan_messages(graph):
        if message.creator_id not in residents:
            continue
        if message.country_id == home:
            continue
        groups[(message.country_id, month_of(message.creation_date))] += 1

    top = top_k(
        INFO23.limit,
        key=lambda r: sort_key(
            (r.message_count, True), (r.destination_name, False), (r.month, False)
        ),
    )
    for (destination, month), count in groups.items():
        top.add(Bi23Row(count, graph.places[destination].name, month))
    return top.result()


def _oracle_pair_weights(graph, start_ts, end_ts):
    weights: dict[tuple[int, int], float] = defaultdict(float)
    for comment in scan_messages(
        graph, window=(start_ts, end_ts), kind="comment"
    ):
        parent = graph.parent_of(comment)
        a, b = comment.creator_id, parent.creator_id
        if a == b:
            continue
        pair = (min(a, b), max(a, b))
        weights[pair] += (
            POST_REPLY_WEIGHT if not parent.is_comment else COMMENT_REPLY_WEIGHT
        )
    return weights


def oracle_bi25(graph, person1_id, person2_id, start_date, end_date):
    paths = all_shortest_paths(graph, person1_id, person2_id)
    if not paths:
        return []
    weights = _oracle_pair_weights(
        graph, date_to_datetime(start_date), date_to_datetime(end_date)
    )
    top = top_k(
        INFO25.limit,
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


#: BI number -> (the resident-first read, its full-scan oracle).
PAIRS = {
    11: (bi11, oracle_bi11),
    22: (bi22, oracle_bi22),
    23: (bi23, oracle_bi23),
    25: (bi25, oracle_bi25),
}

# -- the four layouts, at two scales -------------------------------------------


def _outcome(query, graph, binding):
    """A query's rows, or the error a stale binding caused."""
    try:
        return query(graph, *binding)
    except KeyError as exc:
        return ("KeyError", str(exc))


def _apply_batch(graph, batch):
    for insert in batch.inserts:
        try:
            ALL_UPDATES[insert.operation_id][0](graph, insert.params)
        except (KeyError, ValueError):
            pass
    for delete in batch.deletes:
        ALL_DELETES[delete.operation_id][0](graph, delete.params)


@pytest.fixture(scope="module", params=["tiny", "small"])
def layouts(request):
    """``(graphs, bindings)``: the four layouts of one generated network
    (the ``tiny`` or ``small`` session network) by name, and every
    curated binding of the four reads (deduplicated, curated on the
    bulk load)."""
    config = request.getfixturevalue(f"{request.param}_config")
    net = request.getfixturevalue(f"{request.param}_net")
    live = SocialGraph.from_data(net, until=net.cutoff)
    params = ParameterGenerator(live, config)
    bindings = {
        number: list(dict.fromkeys(tuple(b) for b in params.bi(number)))
        for number in PAIRS
    }
    churned = SocialGraph.from_data(net, until=net.cutoff)
    manager = FreezeManager(churned, compact_fraction=math.inf)
    manager.frozen()
    batches = build_microbatches(net)
    for batch in batches[: len(batches) // 2]:
        _apply_batch(churned, batch)
    overlaid = manager.frozen()
    assert isinstance(overlaid, OverlaidGraph)
    assert manager.overlay.tombstone_count("comments") > 0
    graphs = {
        "live": live,
        "frozen": freeze(live),
        "unindexed": SocialGraph.from_data(
            net, until=net.cutoff, use_indexes=False
        ),
        "overlaid": overlaid,
    }
    yield graphs, bindings
    manager.detach()


@pytest.mark.parametrize("layout", ["live", "frozen", "unindexed", "overlaid"])
@pytest.mark.parametrize("number", sorted(PAIRS))
def test_rows_match_the_full_scan_oracle(layouts, layout, number):
    graphs, bindings = layouts
    graph = graphs[layout]
    query, oracle = PAIRS[number]
    assert bindings[number]
    answered = 0
    for binding in bindings[number]:
        rows = _outcome(query, graph, binding)
        assert rows == _outcome(oracle, graph, binding), (
            f"BI {number} on {layout} diverged for {binding}"
        )
        answered += bool(rows) and rows[0] != "KeyError"
    assert answered, f"BI {number} on {layout}: every binding was empty"
