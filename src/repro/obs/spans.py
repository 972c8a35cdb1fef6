"""Hierarchical span tracing: ``run → phase → operation → task → operator``.

A :class:`Span` is one timed region of a benchmark run; spans nest, and
the tree a run leaves behind is the trace the exporters serialize
(:mod:`repro.obs.exporters`).  Two creation styles exist because the
layers that emit spans have different shapes:

* ``with tracer().span(name, kind=...):`` — strictly nested regions
  (run, phase, operation, pool task).  The context manager pushes the
  span while the block runs, so anything opened inside becomes a child.
* ``tracer().open_span(name, kind="operator")`` — leaf spans for the
  engine's generator operators, which outlive the call that created
  them (a scan's span closes when the *consumer* exhausts or drops the
  generator).  Open spans attach to the current stack top at creation
  and never push, so lazy generators cannot corrupt the nesting of the
  strict layers.  :meth:`Span.close` is idempotent: a generator
  finalized late (by GC, after its task's capture ended) is a no-op.

The module-global tracer defaults to :class:`NullTracer`, whose
``span()`` returns one shared no-op context manager and whose
``enabled`` flag lets hot paths (the engine operators) skip span
construction entirely — with tracing disabled the per-operator cost is
one attribute check.

Clock: span timestamps read ``time.monotonic_ns()`` — the one module
allowed to, under the R1 observability carve-out (file waiver below).
Timestamps are *per-process*: spans captured in worker processes are
rebased onto the parent timeline when grafted (:func:`graft_outcomes`),
laying parallel tasks out sequentially so a parallel run's trace has
exactly the serial run's shape.
"""

# Span timestamps read the wall clock and are observability-only: they
# are emitted into traces/telemetry and never feed back into query results,
# scheduling decisions or any other benchmark semantics.

from __future__ import annotations

import time
from contextlib import AbstractContextManager, contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

#: Span kinds, outermost first (the hierarchy the exporters expect).
SPAN_KINDS = ("run", "phase", "operation", "task", "operator")


def now_us() -> int:
    """The tracer clock, in integer microseconds (monotonic, per process).

    Internal to ``repro.obs``: every other layer gets time *into* the
    telemetry through spans and histograms, never by calling the clock
    (a source scan in ``tests/test_boundaries.py`` holds that boundary).
    """
    return time.monotonic_ns() // 1_000


@dataclass
class Span:
    """One timed, attributed region of a run."""

    name: str
    kind: str
    start_us: int
    attrs: dict[str, Any] = field(default_factory=dict)
    children: "list[Span]" = field(default_factory=list)
    #: ``None`` while the span is open.
    duration_us: int | None = None

    @property
    def end_us(self) -> int:
        return self.start_us + (self.duration_us or 0)

    def close(self, end_us: int | None = None) -> None:
        """Close the span (idempotent; late double-closes are no-ops)."""
        if self.duration_us is None:
            if end_us is None:
                end_us = now_us()
            self.duration_us = max(0, end_us - self.start_us)

    def shift(self, delta_us: int) -> None:
        """Translate this span and its subtree by ``delta_us``."""
        self.start_us += delta_us
        for child in self.children:
            child.shift(delta_us)

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form (the ``telemetry.json`` span shape)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "start_us": self.start_us,
            "duration_us": self.duration_us or 0,
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }


class Tracer:
    """Collects a span tree for one process (or one captured task)."""

    enabled: bool = True

    def __init__(self) -> None:
        #: Top-level spans (usually exactly one ``run`` span).
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    # -- creation ----------------------------------------------------------

    def open_span(self, name: str, kind: str = "operator",
                  **attrs: Any) -> Span:
        """Create a leaf span under the current stack top, without
        pushing it; the caller closes it (engine operator style)."""
        span = Span(name=name, kind=kind, start_us=now_us(), attrs=attrs)
        self._attach(span)
        return span

    def span(self, name: str, kind: str = "operation",
             **attrs: Any) -> AbstractContextManager[Span | None]:
        """A strictly nested span covering the ``with`` block."""
        return self._span_cm(name, kind, attrs)

    @contextmanager
    def _span_cm(self, name: str, kind: str,
                 attrs: dict[str, Any]) -> Iterator[Span | None]:
        span = Span(name=name, kind=kind, start_us=now_us(), attrs=attrs)
        self._attach(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.close()
            if self._stack and self._stack[-1] is span:
                self._stack.pop()

    def _attach(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)

    # -- inspection / repair -----------------------------------------------

    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def finish_open(self) -> None:
        """Force-close every span still on the stack (exception unwind /
        end of a task capture); abandoned generator spans close too when
        they are finalized, idempotently."""
        while self._stack:
            self._stack.pop().close()

    def graft(self, span: Span) -> None:
        """Adopt an already-built span (tree) under the current top."""
        self._attach(span)


class NullTracer(Tracer):
    """The disabled tracer: every operation is a no-op."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null = _NullSpanContext()

    def open_span(self, name: str, kind: str = "operator",
                  **attrs: Any) -> Span:
        return _NULL_SPAN

    def span(self, name: str, kind: str = "operation",
             **attrs: Any) -> AbstractContextManager[Span | None]:
        return self._null

    def graft(self, span: Span) -> None:
        pass


class _NullSpanContext(AbstractContextManager["Span | None"]):
    """One shared, reusable no-op context manager (zero allocation per
    ``span()`` call on the disabled path)."""

    def __enter__(self) -> Span | None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


#: Shared closed span handed out by the disabled ``open_span``; closing
#: it again is a no-op, and it is never attached to anything.
_NULL_SPAN = Span(name="", kind="operator", start_us=0, duration_us=0)

_TRACER: Tracer = NullTracer()


def tracer() -> Tracer:
    """The process-global tracer (a :class:`NullTracer` when disabled)."""
    return _TRACER


def set_tracer(new: Tracer) -> Tracer:
    """Install ``new`` as the global tracer; returns the previous one."""
    global _TRACER
    previous = _TRACER
    _TRACER = new
    return previous


def tracing_enabled() -> bool:
    return _TRACER.enabled


def enable_tracing() -> Tracer:
    """Install (and return) a fresh live tracer."""
    fresh = Tracer()
    set_tracer(fresh)
    return fresh


def disable_tracing() -> None:
    set_tracer(NullTracer())


def span(name: str, kind: str = "operation",
         **attrs: Any) -> AbstractContextManager[Span | None]:
    """``tracer().span(...)`` — the one-liner the execution layers use."""
    return _TRACER.span(name, kind=kind, **attrs)


# -- task capture & grafting (the fork/process boundary) --------------------


@contextmanager
def task_capture(name: str, **attrs: Any) -> Iterator[list[Span]]:
    """Capture the spans of one pool task into a detached tree.

    Swaps a fresh :class:`Tracer` in for the duration of the block and
    yields a list that, at exit, holds the task's root span (with
    everything the task opened nested beneath it).  The executor ships
    that list across the process boundary inside the
    :class:`~repro.exec.tasks.TaskOutcome`; :func:`graft_outcomes`
    merges it back into the parent trace deterministically.
    """
    local = Tracer()
    previous = set_tracer(local)
    collected: list[Span] = []
    root = Span(name=name, kind="task", start_us=now_us(), attrs=attrs)
    local.roots.append(root)
    local._stack.append(root)
    try:
        yield collected
    finally:
        local.finish_open()
        set_tracer(previous)
        collected.extend(local.roots)


def synthesize_task_span(name: str, duration_us: int,
                         **attrs: Any) -> Span:
    """A task span built from outcome bookkeeping alone — what the pool
    grafts for a task whose tree never shipped (timeout, crash)."""
    return Span(
        name=name, kind="task", start_us=0, attrs=attrs,
        duration_us=max(0, duration_us),
    )


def graft_outcomes(name: str, task_spans: list[list[Span]],
                   kind: str = "operation", **attrs: Any) -> Span | None:
    """Merge per-task span trees under one new ``operation`` span.

    ``task_spans`` is one list per task, in submission order (each as
    captured by :func:`task_capture`, possibly in another process).
    Every tree is rebased onto the parent timeline and the tasks are
    laid out sequentially — worker-process clocks are not comparable
    with the parent's, and the sequential layout makes a parallel run's
    trace identical in shape (and layout) to a serial run's.

    Returns the new span (attached to the current trace), or ``None``
    when tracing is disabled.
    """
    trace = _TRACER
    if not trace.enabled:
        return None
    parent = trace.current()
    if parent is not None and parent.children:
        cursor = parent.children[-1].end_us
    elif parent is not None:
        cursor = parent.start_us
    else:
        cursor = now_us()
    operation = Span(name=name, kind=kind, start_us=cursor, attrs=attrs)
    total = 0
    for spans in task_spans:
        for task_span in spans:
            task_span.close()  # defensive: grafted trees must be closed
            task_span.shift(cursor + total - task_span.start_us)
            operation.children.append(task_span)
            total += task_span.duration_us or 0
    operation.duration_us = total
    trace.graft(operation)
    return operation
