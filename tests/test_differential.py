"""Differential tests.

Two oracles:

* graph-algorithm queries cross-checked against networkx on the
  *generated* network (not hand-built cases);
* the indexed engine cross-checked against a naive full-scan reference:
  every BI and IC read must return identical rows on an indexed graph
  and a ``use_indexes=False`` graph holding the same data, including
  after a randomized interleaved insert/delete sequence (which exercises
  the index eviction paths).
"""

import networkx as nx
import pytest

from repro.datagen.delete_streams import build_delete_streams
from repro.datagen.update_streams import build_update_streams
from repro.engine import scan_messages
from repro.graph.store import SocialGraph
from repro.params.curation import ParameterGenerator
from repro.queries.bi import ALL_QUERIES, bi17, bi25
from repro.queries.interactive.complex import ALL_COMPLEX, ic13, ic14
from repro.queries.interactive.deletes import ALL_DELETES
from repro.queries.interactive.updates import ALL_UPDATES
from repro.util.dates import make_date, make_datetime
from repro.util.rng import DeterministicRng

from tests.builders import run_query


@pytest.fixture(scope="module")
def nx_graph(small_graph):
    g = nx.Graph()
    g.add_nodes_from(small_graph.persons)
    g.add_edges_from(
        (e.person1, e.person2) for e in small_graph.knows_edges
    )
    return g


class TestTriangles:
    def test_bi17_matches_networkx(self, small_graph, nx_graph):
        """Per-country triangle counts vs networkx on the subgraph."""
        for country in ("India", "China", "Germany"):
            country_id = small_graph.country_id(country)
            residents = set(small_graph.persons_in_country(country_id))
            sub = nx_graph.subgraph(residents)
            expected = sum(nx.triangles(sub).values()) // 3
            assert bi17(small_graph, country) == [(expected,)]

    def test_global_triangles_positive(self, nx_graph):
        # Homophily implies triangles exist in the generated graph.
        assert sum(nx.triangles(nx_graph).values()) > 0


class TestShortestPaths:
    def _pairs(self, small_graph):
        persons = sorted(small_graph.persons)
        return [
            (persons[i], persons[j])
            for i, j in [(0, 50), (3, 200), (10, 150), (7, 7), (2, 280)]
        ]

    def test_ic13_matches_networkx(self, small_graph, nx_graph):
        for a, b in self._pairs(small_graph):
            try:
                expected = nx.shortest_path_length(nx_graph, a, b)
            except nx.NetworkXNoPath:
                expected = -1
            assert ic13(small_graph, a, b) == [(expected,)]

    def test_ic14_path_set_matches_networkx(self, small_graph, nx_graph):
        for a, b in self._pairs(small_graph):
            if a == b:
                continue
            try:
                expected = sorted(
                    tuple(p) for p in nx.all_shortest_paths(nx_graph, a, b)
                )
            except nx.NetworkXNoPath:
                expected = []
            rows = ic14(small_graph, a, b)
            assert sorted(r.person_ids_in_path for r in rows) == expected

    def test_bi25_same_paths_as_ic14(self, small_graph):
        persons = sorted(small_graph.persons)
        a, b = persons[0], persons[120]
        window = (make_date(2010, 1, 1), make_date(2013, 1, 1))
        bi_paths = {r.person_ids_in_path for r in bi25(small_graph, a, b, *window)}
        ic_paths = {r.person_ids_in_path for r in ic14(small_graph, a, b)}
        assert bi_paths == ic_paths

    def test_bi25_full_window_weights_match_ic14(self, small_graph):
        """With the window covering the whole simulation, BI 25 weights
        must equal IC 14's (same weighting rule, no date filter)."""
        persons = sorted(small_graph.persons)
        a, b = persons[5], persons[210]
        window = (make_date(2009, 1, 1), make_date(2014, 1, 1))
        bi_rows = {r.person_ids_in_path: r.path_weight
                   for r in bi25(small_graph, a, b, *window)}
        ic_rows = {r.person_ids_in_path: r.path_weight
                   for r in ic14(small_graph, a, b)}
        assert bi_rows == ic_rows


def _apply_ops(graph: SocialGraph, ops: list) -> None:
    """Apply a write sequence the way the driver does: out-of-order or
    already-invalidated operations are skipped, identically on every
    graph the same sequence is applied to."""
    for kind, op in ops:
        try:
            if kind == "insert":
                ALL_UPDATES[op.operation_id][0](graph, op.params)
            else:
                ALL_DELETES[op.operation_id][0](graph, op.params)
        except (KeyError, ValueError):
            pass


@pytest.fixture(scope="module")
def engine_graph_pair(tiny_net):
    """(indexed, naive) graphs bulk-loaded from the same network, then
    mutated by one identical randomized interleaved insert/delete
    sequence."""
    indexed = SocialGraph.from_data(tiny_net, until=tiny_net.cutoff)
    naive = SocialGraph.from_data(
        tiny_net, until=tiny_net.cutoff, use_indexes=False
    )
    ops = [("insert", op) for op in build_update_streams(tiny_net)]
    ops += [("delete", op) for op in build_delete_streams(tiny_net)]
    ops.sort(key=lambda pair: pair[1].timestamp)
    DeterministicRng(4099, "differential").shuffle(ops)
    _apply_ops(indexed, ops)
    _apply_ops(naive, ops)
    return indexed, naive


@pytest.fixture(scope="module")
def engine_params(engine_graph_pair, tiny_config):
    indexed, _ = engine_graph_pair
    return ParameterGenerator(indexed, tiny_config)


class TestIndexedVersusNaive:
    """The engine's index paths against the full-scan reference."""

    def test_mutations_converged(self, engine_graph_pair):
        indexed, naive = engine_graph_pair
        assert not naive.use_indexes and indexed.use_indexes
        assert set(indexed.posts) == set(naive.posts)
        assert set(indexed.comments) == set(naive.comments)
        assert set(indexed.persons) == set(naive.persons)

    def test_every_bi_query_matches(self, engine_graph_pair, engine_params):
        indexed, naive = engine_graph_pair
        for number, (query, _) in sorted(ALL_QUERIES.items()):
            for binding in engine_params.bi(number, count=2):
                assert run_query(query, indexed, binding) == run_query(
                    query, naive, binding
                ), f"BI {number} diverged for {binding}"

    def test_every_ic_query_matches(self, engine_graph_pair, engine_params):
        indexed, naive = engine_graph_pair
        for number, (query, _) in sorted(ALL_COMPLEX.items()):
            for binding in engine_params.interactive(number, count=2):
                assert run_query(query, indexed, binding) == run_query(
                    query, naive, binding
                ), f"IC {number} diverged for {binding}"

    def test_window_scans_match_after_deletes(self, engine_graph_pair):
        """The live window filter returns exactly the full-scan rows,
        per kind, after deletes have evicted messages from the tables."""
        indexed, naive = engine_graph_pair
        windows = [
            (make_datetime(2010, 1, 1), make_datetime(2011, 7, 1)),
            (make_datetime(2011, 12, 5), make_datetime(2012, 1, 20)),
            (None, make_datetime(2011, 1, 1)),
            (make_datetime(2012, 6, 1), None),
        ]
        for (start, end), kind in [
            (window, kind)
            for window in windows
            for kind in (None, "post", "comment")
        ]:
            expected = {
                m.id
                for m in naive.messages()
                if (start is None or m.creation_date >= start)
                and (end is None or m.creation_date < end)
                and (kind is None or m.is_comment == (kind == "comment"))
            }
            got = {
                m.id
                for m in scan_messages(indexed, window=(start, end), kind=kind)
            }
            assert got == expected, (start, end, kind)

    def test_tag_postings_match_after_deletes(self, engine_graph_pair):
        indexed, naive = engine_graph_pair
        start, end = make_datetime(2010, 6, 1), make_datetime(2012, 6, 1)
        for tag_id in sorted(indexed.tags):
            expected = {
                m.id
                for m in naive.messages()
                if tag_id in m.tag_ids and start <= m.creation_date < end
            }
            got = {
                m.id
                for m in indexed.messages_with_tag_in_window(
                    tag_id, start, end
                )
            }
            assert got == expected, f"tag {tag_id}"


class TestDegreeConsistency:
    def test_store_degrees_match_networkx(self, small_graph, nx_graph):
        for pid in list(small_graph.persons)[:50]:
            assert len(small_graph.friends_of(pid)) == nx_graph.degree(pid)

    def test_connected_components_reasonable(self, nx_graph):
        """The correlated generator must produce a dominant component —
        a sanity property of the homophily windowing (it links the
        similarity-sorted array locally but passes overlap globally)."""
        components = sorted(
            (len(c) for c in nx.connected_components(nx_graph)), reverse=True
        )
        assert components[0] > 0.5 * sum(components)
