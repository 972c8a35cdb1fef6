"""Helpers shared by the BI and Interactive query implementations."""

from __future__ import annotations

from repro.engine import expand
from repro.graph.store import SocialGraph


def knows_distances(
    graph: SocialGraph, start: int, max_hops: int
) -> dict[int, int]:
    """BFS over knows: person id -> shortest hop distance in [1, max_hops].

    The start person is excluded, matching every query that asks for
    "friends and friends of friends (excluding the start Person)".
    Level-synchronous expansion through the engine's expand() operator,
    which tallies the knows edges followed (CP-7.3).
    """
    distances: dict[int, int] = {start: 0}
    frontier = [start]
    depth = 0
    while frontier and depth < max_hops:
        depth += 1
        next_frontier: list[int] = []
        for _, friend in expand(frontier, graph.friends_of):
            if friend not in distances:
                distances[friend] = depth
                next_frontier.append(friend)
        frontier = next_frontier
    del distances[start]
    return distances


def shortest_path_length(graph: SocialGraph, source: int, target: int) -> int:
    """Length of the shortest knows path, -1 when disconnected, 0 if same.

    Bidirectional BFS — the strategy choke point CP-7.3 describes
    ("having reached the border of a search going in the opposite
    direction").
    """
    if source == target:
        return 0
    if source not in graph.persons or target not in graph.persons:
        return -1
    forward = {source: 0}
    backward = {target: 0}
    forward_frontier = [source]
    backward_frontier = [target]
    depth = 0
    while forward_frontier and backward_frontier:
        depth += 1
        # Expand the smaller frontier.
        if len(forward_frontier) <= len(backward_frontier):
            frontier, seen, other = forward_frontier, forward, backward
        else:
            frontier, seen, other = backward_frontier, backward, forward
        next_frontier: list[int] = []
        for node in frontier:
            for friend in graph.friends_of(node):
                if friend in other:
                    return seen[node] + 1 + other[friend]
                if friend not in seen:
                    seen[friend] = seen[node] + 1
                    next_frontier.append(friend)
        if frontier is forward_frontier:
            forward_frontier = next_frontier
        else:
            backward_frontier = next_frontier
    return -1


def all_shortest_paths(
    graph: SocialGraph, source: int, target: int
) -> list[list[int]]:
    """Every shortest knows path from source to target (inclusive ends)."""
    if source == target:
        return [[source]]
    # BFS layering, then backward enumeration over predecessor sets.
    predecessors: dict[int, list[int]] = {source: []}
    frontier = [source]
    found = False
    while frontier and not found:
        next_layer: dict[int, list[int]] = {}
        for node in frontier:
            for friend in graph.friends_of(node):
                if friend in predecessors:
                    continue
                next_layer.setdefault(friend, []).append(node)
        if target in next_layer:
            found = True
        predecessors.update(next_layer)
        frontier = list(next_layer)
    if not found:
        return []
    paths: list[list[int]] = []
    stack: list[tuple[int, list[int]]] = [(target, [target])]
    while stack:
        node, suffix = stack.pop()
        if node == source:
            paths.append(list(reversed(suffix)))
            continue
        for pred in predecessors[node]:
            stack.append((pred, suffix + [pred]))
    paths.sort()
    return paths
