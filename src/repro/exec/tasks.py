"""Task envelope and the task-kind registry.

A :class:`Task` is one unit of benchmark work: a submission ``index``
(the deterministic merge key), a ``kind`` naming a registered runner,
and a picklable ``payload``.  Kinds rather than raw callables keep tasks
cheap to ship over a pipe and runnable in a freshly spawned interpreter;
the generic ``call`` kind accepts any module-level callable where that
flexibility is worth the pickling constraint.

Runners receive ``(graph, context, *payload)`` where graph/context come
from the active :class:`~repro.exec.snapshot.SnapshotHandle`.  The
``bi_throughput`` runner tolerates delete-invalidated parameters: it
catches ``KeyError`` itself and returns a sentinel; any other exception
escapes to the pool, which retries the task once and then records the
failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.exec.snapshot import active

#: Terminal task states recorded by the pool.
STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"
STATUS_CRASHED = "crashed"


@dataclass(frozen=True)
class Task:
    """One schedulable unit of work."""

    #: Submission order — outcomes are merged back in this order, which
    #: is what makes a parallel run's merged result identical to serial.
    index: int
    kind: str
    payload: tuple = ()


@dataclass
class TaskOutcome:
    """What happened to one task (after any retry)."""

    index: int
    status: str = STATUS_OK
    value: Any = None
    #: Wall time of the recorded attempt (the timeout bound for
    #: ``timeout`` outcomes).
    duration: float = 0.0
    #: perf_counter at the start of the recorded attempt, read in the
    #: process that ran it (comparable with the parent's only where the
    #: clock is system-wide, as on Linux).
    started: float = 0.0
    attempts: int = 1
    worker: int = 0
    error: str | None = None
    #: Engine operator-counter deltas attributable to this task.
    counters: dict[str, int] = field(default_factory=dict)
    #: The task's kind, echoed back so parent-side telemetry can label
    #: its metrics without re-deriving the submission list.
    kind: str = ""
    #: Span trees captured while the task ran (tracing on only).
    spans: list = field(default_factory=list)
    #: Metrics-registry delta accumulated by this task in a worker
    #: process (``subtract_snapshot`` form); empty on a serial pool,
    #: whose updates land in the parent registry directly.
    metrics: dict = field(default_factory=dict)
    #: Profiler delta (stacks + timeline samples) accumulated by this
    #: task in a worker process (``subtract_profile`` form); empty on a
    #: serial pool, whose samples land in the parent profiler directly,
    #: and whenever profiling is disabled.
    profile: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


# -- task runners ----------------------------------------------------------


def _tally_read_path(graph: Any) -> None:
    """Count which storage layout actually served a read task.

    ``repro_frozen_path_total{path=...}``: ``overlay_merge`` when the
    task's graph is a delta-overlaid snapshot with outstanding writes,
    ``frozen_hit`` for a clean frozen snapshot, ``live_fallback``
    otherwise.  The driver-side split across the three is the cheapest
    way to confirm what a mixed read/write run actually did — e.g. that
    update microbatches kept reads on the overlay instead of forcing
    refreezes or falling back to the live store.
    """
    from repro.obs.metrics import registry

    overlay = getattr(graph, "delta_overlay", None)
    if overlay is not None and not overlay.is_empty():
        path = "overlay_merge"
    elif getattr(graph, "is_frozen", False):
        path = "frozen_hit"
    else:
        path = "live_fallback"
    registry().counter("repro_frozen_path_total", path=path).inc()


def _run_bi(graph: Any, context: dict, number: int, params: tuple) -> list:
    """One BI read; returns its rows (parameter errors propagate)."""
    from repro.queries.bi import ALL_QUERIES

    _tally_read_path(graph)
    return ALL_QUERIES[number][0](graph, *params)


def _run_bi_throughput(
    graph: Any, context: dict, number: int, params: tuple
) -> int:
    """One BI read of the throughput read block; returns the row count,
    or ``-1`` when a delete invalidated the curated parameters."""
    from repro.queries.bi import ALL_QUERIES

    _tally_read_path(graph)
    try:
        return len(ALL_QUERIES[number][0](graph, *params))
    except KeyError:
        return -1


def _run_stream(
    graph: Any, context: dict, stream_index: int, queries_per_stream: int
) -> int:
    """One concurrent query stream: a de-phased rotation through BI 1-25
    with rotating curated bindings from ``context["bindings"]``, like the
    official throughput test's distinct query streams."""
    bindings = context["bindings"]
    numbers = sorted(bindings)
    _tally_read_path(graph)
    executed = 0
    cursor = stream_index * 7  # de-phase the streams
    from repro.queries.bi import ALL_QUERIES

    for _ in range(queries_per_stream):
        number = numbers[cursor % len(numbers)]
        binding = bindings[number][cursor % len(bindings[number])]
        ALL_QUERIES[number][0](graph, *binding)
        executed += 1
        cursor += 1
    return executed


def _run_call(graph: Any, context: dict, fn: Callable, args: tuple = ()) -> Any:
    """Generic escape hatch: run ``fn(*args)``.  ``fn`` must be a
    module-level callable on a process pool (pipe pickling)."""
    return fn(*args)


def _run_bi_morsel(
    graph: Any,
    context: dict,
    number: int,
    slab_kind: str,
    lo: int,
    hi: int,
    lead: bool,
    params: tuple,
) -> Any:
    """One morsel of a decomposed BI read: the query's partial
    aggregate over rows ``[lo, hi)`` of one frozen scan slab.  The
    driver merges the partials in submission order
    (:mod:`repro.queries.bi.morsels`); ``lead`` marks the first morsel
    of each scan so per-scan counters are tallied exactly once."""
    from repro.queries.bi.morsels import MORSEL_PLANS

    from repro.obs.metrics import registry

    registry().counter(
        "repro_morsel_tasks_total", query=f"bi{number}"
    ).inc()
    _tally_read_path(graph)
    plan = MORSEL_PLANS[number]
    return plan.partial(graph, slab_kind, lo, hi, lead, params)


#: kind -> runner(graph, context, *payload).
TASK_KINDS: dict[str, Callable[..., Any]] = {
    "bi": _run_bi,
    "bi_morsel": _run_bi_morsel,
    "bi_throughput": _run_bi_throughput,
    "stream": _run_stream,
    "call": _run_call,
}


def run_task(task: Task) -> Any:
    """Execute one task against the active snapshot handle."""
    try:
        runner = TASK_KINDS[task.kind]
    except KeyError:
        raise LookupError(f"unknown task kind {task.kind!r}") from None
    snapshot = active()
    return runner(snapshot.graph, snapshot.context, *task.payload)
