"""Low-overhead sampling profiler with span-tagged collapsed stacks.

A background daemon thread wakes at a configurable rate (default
:data:`DEFAULT_PROFILE_HZ`) and samples every *other* thread's Python
stack via ``sys._current_frames()`` — no signals, no
``sys.setprofile``/``settrace`` hooks, so the profiled code runs
unmodified and the disabled path costs nothing at all (the profiler is
simply not running).  Each sample is collapsed to the classic
flamegraph form (``file.py:func;file.py:func ...``, root first) and,
when span tracing is live, prefixed with the active span path
(``span:run/operation/task/operator``) so a flamegraph folds cleanly by
benchmark phase.  Alongside the stacks, every tick records a
:class:`~repro.obs.timeline.ResourceTimeline` sample (CPU, RSS, GC,
snapshot/delta/morsel gauges).

Profiling starts only when asked for: :func:`enable_profiling` with
a rate (default :data:`DEFAULT_PROFILE_HZ`), which is what the CLI
``--profile DIR`` flag calls.

Crossing the process-pool boundary mirrors the metrics registry:
workers snapshot before a task, :func:`subtract_profile` after it, ship
the delta inside the :class:`~repro.exec.tasks.TaskOutcome`, and the
parent grafts the deltas in submission order
(:meth:`SamplingProfiler.merge`) — so a parallel run's profile is
structure-identical to a serial run's (sample *counts* differ; series
names and shape do not, which is what ``structure_of`` compares).

This module is the one sanctioned ``sys._current_frames`` caller in the
tree — a source scan in ``tests/test_boundaries.py`` holds that boundary.
"""

from __future__ import annotations

import os
import sys
import threading
from types import FrameType
from typing import Any, Mapping

from repro.obs.spans import tracer
from repro.obs.timeline import ResourceTimeline, subtract_timeline

#: Sampling rate used when profiling is requested without an explicit
#: rate (a prime, so the sampler cannot phase-lock with periodic work).
DEFAULT_PROFILE_HZ = 97.0

#: Deepest stack kept per sample; frames below the cut are dropped from
#: the root end (the leaf — where time is actually spent — survives).
MAX_STACK_DEPTH = 48


def _collapse(frame: FrameType | None) -> str:
    """One frame chain as a collapsed stack: root-first, ``;``-joined."""
    parts: list[str] = []
    while frame is not None and len(parts) < MAX_STACK_DEPTH:
        code = frame.f_code
        parts.append(
            f"{os.path.basename(code.co_filename)}:{code.co_name}"
        )
        frame = frame.f_back
    parts.reverse()
    return ";".join(parts)


class SamplingProfiler:
    """Samples all threads' stacks at ``hz`` from a daemon thread."""

    enabled = True

    def __init__(self, hz: float = DEFAULT_PROFILE_HZ,
                 timeline_capacity: int | None = None) -> None:
        if hz <= 0:
            raise ValueError("SamplingProfiler needs hz > 0; use "
                             "NullProfiler for the disabled state")
        self.hz = float(hz)
        #: collapsed stack -> number of times it was sampled.
        self.stacks: dict[str, int] = {}
        #: total sampling ticks taken (denominator for stack shares).
        self.samples = 0
        self.timeline = (
            ResourceTimeline(timeline_capacity)
            if timeline_capacity is not None else ResourceTimeline()
        )
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "SamplingProfiler":
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self.timeline.open()
            self._thread = threading.Thread(
                target=self._run, name="repro-profiler", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop sampling (idempotent; records one final timeline tick)."""
        self._stop.set()
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=5.0)
        self._thread = None
        self.timeline.close()

    def _run(self) -> None:
        interval = 1.0 / self.hz
        while not self._stop.wait(interval):
            self.sample()

    # -- sampling ----------------------------------------------------------

    def sample(self) -> None:
        """Take one sample of every other thread (one profiler tick)."""
        me = threading.get_ident()
        names = tuple(
            span.name for span in list(tracer()._stack)
        )
        tag = ("span:" + "/".join(names)) if names else ""
        frames = sys._current_frames()
        with self._lock:
            self.samples += 1
            for ident, frame in frames.items():
                if ident == me:
                    continue
                stack = _collapse(frame)
                if not stack:
                    continue
                if tag:
                    stack = tag + ";" + stack
                self.stacks[stack] = self.stacks.get(stack, 0) + 1
        self.timeline.record()

    # -- snapshot / merge (the cross-process currency) ---------------------

    def snapshot(self) -> dict[str, Any]:
        """JSON-able form (``telemetry.json``'s ``profile`` section)."""
        with self._lock:
            return {
                "hz": self.hz,
                "samples": self.samples,
                "stacks": dict(self.stacks),
                "timeline": self.timeline.snapshot(),
            }

    def merge(self, delta: Mapping[str, Any]) -> None:
        """Fold a worker's per-task profile delta into this profiler
        (stack counts add; timeline samples are rebased and appended).
        Called in submission order, like the metrics merge."""
        if not delta:
            return
        with self._lock:
            self.samples += int(delta.get("samples", 0))
            for stack, count in delta.get("stacks", {}).items():
                self.stacks[stack] = self.stacks.get(stack, 0) + count
        timeline = delta.get("timeline")
        if timeline:
            self.timeline.merge(timeline)


class NullProfiler(SamplingProfiler):
    """The disabled profiler: no thread, no samples, empty snapshot."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(hz=DEFAULT_PROFILE_HZ)
        self.hz = 0.0

    def start(self) -> "SamplingProfiler":
        return self

    def stop(self) -> None:
        pass

    def sample(self) -> None:
        pass

    def snapshot(self) -> dict[str, Any]:
        return {}

    def merge(self, delta: Mapping[str, Any]) -> None:
        pass


def subtract_profile(after: Mapping[str, Any],
                     before: Mapping[str, Any]) -> dict[str, Any]:
    """``after - before``: the per-task delta a worker ships (empty dict
    when nothing was sampled — kept falsy so outcomes stay small)."""
    if not after:
        return {}
    stacks: dict[str, int] = {}
    before_stacks = before.get("stacks", {})
    for stack, count in after.get("stacks", {}).items():
        fresh = count - before_stacks.get(stack, 0)
        if fresh:
            stacks[stack] = fresh
    samples = after.get("samples", 0) - before.get("samples", 0)
    timeline = subtract_timeline(
        after.get("timeline", {}), before.get("timeline", {})
    )
    if not samples and not stacks and not timeline:
        return {}
    delta: dict[str, Any] = {
        "hz": after.get("hz"),
        "samples": samples,
        "stacks": stacks,
    }
    if timeline:
        delta["timeline"] = timeline
    return delta


_PROFILER: SamplingProfiler = NullProfiler()


def profiler() -> SamplingProfiler:
    """The live process-global profiler (:class:`NullProfiler` when off)."""
    return _PROFILER


def set_profiler(new: SamplingProfiler) -> SamplingProfiler:
    """Install ``new`` as the global profiler; returns the previous one."""
    global _PROFILER
    previous = _PROFILER
    _PROFILER = new
    return previous


def profiling_enabled() -> bool:
    return _PROFILER.enabled


def enable_profiling(hz: float = DEFAULT_PROFILE_HZ) -> SamplingProfiler:
    """Install (and start) a fresh profiler sampling at ``hz``."""
    previous = set_profiler(SamplingProfiler(hz=hz))
    previous.stop()
    return _PROFILER.start()


def disable_profiling() -> None:
    """Stop the profiler (if running) and install a :class:`NullProfiler`."""
    set_profiler(NullProfiler()).stop()


__all__ = [
    "DEFAULT_PROFILE_HZ",
    "MAX_STACK_DEPTH",
    "NullProfiler",
    "SamplingProfiler",
    "disable_profiling",
    "enable_profiling",
    "profiler",
    "profiling_enabled",
    "set_profiler",
    "subtract_profile",
]
