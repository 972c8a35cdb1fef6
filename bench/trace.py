"""The ledger's own span recorder (traced runs only).

Spans are recorded from the benchmark's side of each layer boundary —
around calls into ``repro``'s public functions and registry entries —
so no reported layer number depends on a span inside ``src/``.  They
stay in memory until the run ends; :meth:`Tracer.write` then dumps one
Chrome-trace file per workload.

A span's *self time* is its duration minus the part of that interval
its child spans (and leaf timers) cover.  The root span of each round
has layer ``bench``: its self time is time inside the timed section
that no layer span claimed, i.e. the unattributed share.
"""

from __future__ import annotations

import functools
import json
import os
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator

#: Layer of the spans the benchmark opens around its own rounds.
ROOT_LAYER = "bench"
#: Name of the root span that delimits one round of a timed section.
ROUND = "round"


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "workload", "round")

    def __init__(self, name: str, layer: str, start: float, parent: int,
                 workload: str, round_id: int):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.workload = workload
        self.round = round_id

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class Tracer:
    """Records spans; ``workload``/``round`` tag every span opened while
    they are set, so the spans of one round share an identifier."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: (parent span, name, layer) -> [calls, seconds] for callables
        #: too hot to give a span each (stream writes: ~38 K per pass).
        self.leaves: dict[tuple[int, str, str], list[float]] = {}
        self._stack: list[int] = []
        self.workload = ""
        self.round = 0

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, layer, perf_counter(), parent,
                      self.workload, self.round)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._stack.pop()

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        """``fn`` with a span around every call."""
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name, layer):
                return fn(*args, **kwargs)
        return traced

    def wrap_leaf(self, fn: Callable, name: str, layer: str,
                  durations: list[float]) -> Callable:
        """``fn`` timed per call into ``durations`` and summed under the
        enclosing span, without a span object per call."""
        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                durations.append(elapsed)
                parent = self._stack[-1] if self._stack else -1
                cell = self.leaves.setdefault((parent, name, layer), [0, 0.0])
                cell[0] += 1
                cell[1] += elapsed
        return timed

    # -- analysis ----------------------------------------------------------

    def self_seconds(self) -> list[float]:
        """Self time of every span, in recording order."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent >= 0:
                children.setdefault(span.parent, []).append(
                    (span.start, span.end))
        leaf_seconds: dict[int, float] = {}
        for (parent, _, _), (_, seconds) in self.leaves.items():
            leaf_seconds[parent] = leaf_seconds.get(parent, 0.0) + seconds
        return [
            span.duration - _covered(children.get(index, []))
            - leaf_seconds.get(index, 0.0)
            for index, span in enumerate(self.spans)
        ]

    def layer_table(self, workload: str) -> dict[str, dict[str, float]]:
        """layer -> self seconds and span count inside ``workload``'s
        rounds (spans opened outside a round — set-up, the correctness
        gate — are left out)."""
        in_round = self._in_round(workload)
        table: dict[str, dict[str, float]] = {}
        for index, (span, self_s) in enumerate(
                zip(self.spans, self.self_seconds())):
            if index in in_round:
                row = table.setdefault(span.layer, {"self_s": 0.0, "spans": 0})
                row["self_s"] += self_s
                row["spans"] += 1
        for (parent, _, layer), (calls, seconds) in self.leaves.items():
            if parent in in_round:
                row = table.setdefault(layer, {"self_s": 0.0, "spans": 0})
                row["self_s"] += seconds
                row["spans"] += calls
        return table

    def _in_round(self, workload: str) -> set[int]:
        inside: set[int] = set()
        for index, span in enumerate(self.spans):
            if span.workload != workload:
                continue
            if span.parent in inside or (
                    span.parent < 0 and span.name == ROUND):
                inside.add(index)
        return inside

    def unattributed_pct(self, workload: str) -> float:
        """Share of ``workload``'s timed section inside no layer span."""
        table = self.layer_table(workload)
        total = sum(row["self_s"] for row in table.values())
        if not total:
            return 0.0
        return 100.0 * table.get(ROOT_LAYER, {"self_s": 0.0})["self_s"] / total

    def seconds(self, workload: str, names: tuple[str, ...],
                round_id: int | None = None) -> list[float]:
        """Durations of ``workload``'s spans called one of ``names``
        (in round ``round_id`` only, when given)."""
        return [span.duration for span in self.spans
                if span.workload == workload and span.name in names
                and (round_id is None or span.round == round_id)]

    # -- export ------------------------------------------------------------

    def chrome_trace(self, workload: str) -> dict:
        """``workload``'s spans as a Chrome-trace (``chrome://tracing``,
        Perfetto) document; leaf timers become one summed event each."""
        own = [(index, span) for index, span in enumerate(self.spans)
               if span.workload == workload]
        if not own:
            return {"traceEvents": []}
        origin = own[0][1].start
        selfs = self.self_seconds()
        pid = os.getpid()
        events = [
            {
                "name": span.name, "cat": span.layer, "ph": "X",
                "ts": round((span.start - origin) * 1e6, 1),
                "dur": round(span.duration * 1e6, 1),
                "pid": pid, "tid": 1,
                "args": {"workload": workload, "round": span.round,
                         "span": index, "parent": span.parent,
                         "self_us": round(selfs[index] * 1e6, 1)},
            }
            for index, span in own
        ]
        indices = {index for index, _ in own}
        for (parent, name, layer), (calls, seconds) in self.leaves.items():
            if parent in indices:
                events.append({
                    "name": name, "cat": layer, "ph": "X",
                    "ts": round((self.spans[parent].start - origin) * 1e6, 1),
                    "dur": round(seconds * 1e6, 1), "pid": pid, "tid": 2,
                    "args": {"workload": workload, "parent": parent,
                             "calls": calls, "summed": True},
                })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, directory: str, workloads: list[str]) -> list[str]:
        """Write ``trace_<workload>.json`` files; returns their paths."""
        os.makedirs(directory, exist_ok=True)
        paths = []
        for workload in workloads:
            path = os.path.join(directory, f"trace_{workload}.json")
            with open(path, "w") as handle:
                json.dump(self.chrome_trace(workload), handle)
            paths.append(path)
        return paths


class NullTracer:
    """The untraced run's tracer: every hook is a no-op, so the timed
    sections run the program's own callables unwrapped."""

    enabled = False
    workload = ""
    round = 0

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        yield None

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        return fn

    def wrap_leaf(self, fn: Callable, name: str, layer: str,
                  durations: list[float]) -> Callable:
        return fn
