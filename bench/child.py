"""The fresh interpreter of the ``restart`` workload.

Spawned (never forked) so it starts with nothing: it imports ``repro``,
materializes the shipped snapshot token, answers BI 1, reports that
row digest at once (the parent's ``cold_attach_s`` clock stops on its
receipt), then answers the other 24 queries and reports every digest
with its own clock stamps.  ``perf_counter`` is CLOCK_MONOTONIC on
Linux, so the parent may subtract its own stamps from these.
"""

from __future__ import annotations

import hashlib
import pickle
from time import perf_counter
from typing import Any


def digest(rows: Any) -> str:
    """A short stable digest of query rows (NamedTuples of primitives,
    whose ``repr`` is the same in every interpreter)."""
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def _timed(fn: Any, sink: list[float]) -> Any:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        started = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append(perf_counter() - started)
    return wrapper


def serve(conn: Any, token: bytes, bindings: dict[int, tuple],
          traced: bool) -> None:
    """Child entry point: ``bindings`` maps each BI number to the one
    binding to answer."""
    stamps = {"entered": perf_counter()}
    from repro.exec import snapshot as _snapshot  # noqa: F401 - unpickling
    from repro.graph import snapfile
    from repro.queries.bi import ALL_QUERIES

    stamps["imported"] = perf_counter()
    opened: list[float] = []
    rebuilt: list[float] = []
    if traced:
        snapfile.open_snapshot = _timed(snapfile.open_snapshot, opened)
        snapfile.rebuild_store = _timed(snapfile.rebuild_store, rebuilt)
    handle = pickle.loads(token).materialize()
    stamps["materialized"] = perf_counter()
    try:
        graph = handle.graph
        digests = {1: digest(ALL_QUERIES[1][0](graph, *bindings[1]))}
        stamps["first_query"] = perf_counter()
        conn.send(("first", digests[1]))
        for number in sorted(bindings):
            if number != 1:
                digests[number] = digest(
                    ALL_QUERIES[number][0](graph, *bindings[number]))
        stamps["first_pass"] = perf_counter()
        conn.send(("done", digests, stamps, {
            "open_attach_s": sum(opened),
            "rebuild_store_s": sum(rebuilt),
            "bytes_mapped": handle.bytes_mapped(),
        }))
    finally:
        handle.close()
        conn.close()
