"""Tests for shared query helpers, cross-checked against networkx."""

import networkx as nx
import pytest

from repro.graph.store import SocialGraph
from repro.queries.common import (
    all_shortest_paths,
    knows_distances,
    shortest_path_length,
)

from tests.builders import GraphBuilder


def _nx_graph(graph: SocialGraph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(graph.persons)
    g.add_edges_from((e.person1, e.person2) for e in graph.knows_edges)
    return g


class TestKnowsDistances:
    def test_excludes_start(self):
        b = GraphBuilder()
        a = b.person()
        z = b.person()
        b.knows(a, z)
        assert a not in knows_distances(b.graph, a, 2)

    def test_matches_networkx(self, small_graph):
        g = _nx_graph(small_graph)
        start = next(iter(small_graph.persons))
        expected = {
            node: dist
            for node, dist in nx.single_source_shortest_path_length(
                g, start, cutoff=3
            ).items()
            if node != start
        }
        assert knows_distances(small_graph, start, 3) == expected

    def test_hop_limit(self):
        b = GraphBuilder()
        chain = [b.person() for _ in range(5)]
        for a, z in zip(chain, chain[1:]):
            b.knows(a, z)
        distances = knows_distances(b.graph, chain[0], 2)
        assert set(distances) == {chain[1], chain[2]}


class TestShortestPathLength:
    def test_matches_networkx_on_sampled_pairs(self, small_graph):
        g = _nx_graph(small_graph)
        persons = sorted(small_graph.persons)
        pairs = [(persons[i], persons[-(i + 1)]) for i in range(0, 40, 3)]
        for a, z in pairs:
            try:
                expected = nx.shortest_path_length(g, a, z)
            except nx.NetworkXNoPath:
                expected = -1
            assert shortest_path_length(small_graph, a, z) == expected, (a, z)

    def test_identity(self, small_graph):
        pid = next(iter(small_graph.persons))
        assert shortest_path_length(small_graph, pid, pid) == 0

    def test_unknown_nodes(self, small_graph):
        assert shortest_path_length(small_graph, -1, 0) == -1


class TestAllShortestPaths:
    def test_matches_networkx(self, small_graph):
        g = _nx_graph(small_graph)
        persons = sorted(small_graph.persons)
        checked = 0
        for offset in range(1, 60):
            a, z = persons[0], persons[offset]
            try:
                expected = sorted(nx.all_shortest_paths(g, a, z))
            except nx.NetworkXNoPath:
                expected = []
            assert all_shortest_paths(small_graph, a, z) == expected
            checked += 1
            if checked >= 15:
                break

    def test_identity_path(self, small_graph):
        pid = next(iter(small_graph.persons))
        assert all_shortest_paths(small_graph, pid, pid) == [[pid]]

    def test_paths_are_simple(self, small_graph):
        persons = sorted(small_graph.persons)
        paths = all_shortest_paths(small_graph, persons[0], persons[25])
        for path in paths:
            assert len(set(path)) == len(path)


class TestMessageLanguage:
    """BI 18's message language: a Comment takes its root Post's."""

    def test_post_language(self):
        b = GraphBuilder()
        p = b.person()
        f = b.forum(p)
        post = b.post(p, f, language="fr")
        assert b.graph.language_of_message(b.graph.posts[post]) == "fr"

    def test_comment_inherits_root_language(self):
        b = GraphBuilder()
        p = b.person()
        f = b.forum(p)
        post = b.post(p, f, language="ja")
        c1 = b.comment(p, post)
        c2 = b.comment(p, c1)
        assert b.graph.language_of_message(b.graph.comments[c2]) == "ja"
