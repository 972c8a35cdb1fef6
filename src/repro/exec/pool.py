"""The worker-pool scheduler behind every parallel benchmark run.

The LDBC SNB treats the multi-stream driver — strict scheduling,
deadlines, crash handling — as part of the benchmark itself, not an
implementation detail of one SUT.  :class:`WorkerPool` is that layer for
this reproduction:

* **Serial or process, nothing else** — the execution mode is derived
  from ``workers``: one worker runs the tasks inline in the calling
  process (``serial``), through the exact same task runners, which is
  what makes it a valid baseline; more than one runs one
  single-threaded OS process per worker (``process``) over a shared
  :class:`~repro.exec.snapshot.SnapshotHandle` (fork-inherited for the
  inline provider, attach-by-path for the mapped one), giving genuine
  parallelism and hard timeouts.  Workers see the graph as it was when
  :meth:`WorkerPool.run` started them, so a driver that interleaves
  writes with read blocks builds one pool per block, *after* the
  preceding writes.  Under ``fork`` that costs one fork per worker per
  block; under ``spawn`` the snapshot ships by value per block, so on
  spawn-only platforms keep ``workers=1`` for write-interleaved runs.
* **Bounded dispatch** — at most ``2 * workers`` tasks are pulled ahead
  of the workers, so a generator of tasks is consumed lazily and a slow
  pool never materializes an unbounded backlog.
* **Deadlines** — ``timeout`` seconds per task.  A process pool
  enforces it by terminating the worker; a serial pool applies it
  *softly* (the attempt runs to completion, then is classified), since
  the calling thread cannot be killed.
* **Retry-once-then-record** — a task that errors, times out, or loses
  its worker to a crash is retried exactly once; a second failure is
  recorded as a terminal :class:`~repro.exec.tasks.TaskOutcome` rather
  than raised, so one poisoned query cannot abort a benchmark run.
* **Crash recovery** — a worker process that dies mid-task is detected
  (EOF on its pipe / liveness check), its task is re-dispatched, and a
  replacement worker is spawned.
* **Deterministic merge** — outcomes are returned in task submission
  order and per-task engine counters are summed in that order, so a
  parallel run's merged :class:`PoolResult` is identical to a serial
  run's whenever the tasks themselves are deterministic (the spec's
  section 2.3.3 requirement, extended from datagen to execution).
* **Telemetry** — with tracing enabled (:mod:`repro.obs`), every task's
  span tree is captured (:func:`~repro.obs.spans.task_capture`),
  shipped back inside the :class:`~repro.exec.tasks.TaskOutcome`, and
  all trees are grafted under one ``pool`` span in submission order —
  so a parallel trace has exactly the serial trace's shape.  Process
  workers also ship their metrics-registry deltas, merged in the same
  order; with the sampling profiler on (:mod:`repro.obs.prof`), each
  worker runs its own sampler and ships per-task profile/timeline
  deltas, grafted in the same submission order.

Deadline bookkeeping uses ``time.monotonic()`` in two places,
``_ProcWorker.assign`` and ``WorkerPool._supervise``: they are the only
clock reads outside latency measurement and ``repro.obs`` that
``tests/test_boundaries.py`` allows — benchmark *semantics* must never
depend on them, and these do not: they only decide when a stuck worker
is killed.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import time
from collections import deque
from dataclasses import dataclass, field, replace
from multiprocessing import connection as mp_connection
from typing import Any, Iterable, Iterator

from repro.engine import reset_counters
from repro.engine.stats import merge_counters
from repro.exec.snapshot import InlineSnapshot, SnapshotHandle, activate
from repro.obs.metrics import registry, subtract_snapshot
from repro.obs.prof import (
    disable_profiling,
    enable_profiling,
    profiler,
    subtract_profile,
)
from repro.obs.spans import (
    Span,
    disable_tracing,
    graft_outcomes,
    synthesize_task_span,
    task_capture,
    tracer,
)
from repro.exec.tasks import (
    STATUS_CRASHED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    Task,
    TaskOutcome,
    run_task,
)

def start_method() -> str:
    """The process pool's start method: ``fork`` where the platform
    offers it (workers inherit the snapshot copy-on-write), else
    ``spawn`` (the snapshot ships by value).  Not a setting; tests
    patch this function to exercise the spawn path on Linux."""
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


@dataclass
class PoolResult:
    """Deterministically merged outcome of one pool run."""

    #: One outcome per task, in submission order.
    outcomes: list[TaskOutcome]
    elapsed: float
    workers: int
    backend: str
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    #: Engine operator counters summed over the per-task tallies.
    counters: dict[str, int] = field(default_factory=dict)

    def values(self) -> list[Any]:
        """Task return values in submission order (None for failures)."""
        return [outcome.value for outcome in self.outcomes]

    @property
    def failures(self) -> int:
        return sum(1 for outcome in self.outcomes if not outcome.ok)

    def stats_dict(self) -> dict[str, Any]:
        """The pool's own bookkeeping, for report ``exec`` sections."""
        return {
            "workers": self.workers,
            "backend": self.backend,
            "tasks": len(self.outcomes),
            "failures": self.failures,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "worker_crashes": self.crashes,
        }


def accumulate_exec_stats(total: dict, part: dict) -> dict:
    """Sum one pool run's :meth:`PoolResult.stats_dict` into a running
    ``exec`` record, for drivers that build one pool per read block;
    ``workers`` and ``backend`` stay those of the first pool."""
    if not total:
        total.update(part)
        return total
    for name in ("tasks", "failures", "retries", "timeouts", "worker_crashes"):
        total[name] += part[name]
    return total


@dataclass
class _RunStats:
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0


def _attempt(task: Task) -> "_ExecuteResult":
    try:
        return _ExecuteResult(run_task(task), STATUS_OK, None)
    except Exception as exc:  # retried once by the pool, then recorded
        return _ExecuteResult(
            None, STATUS_ERROR, f"{type(exc).__name__}: {exc}"
        )


def _execute(
    task: Task,
    worker: int,
    attempts: int,
    trace: bool = False,
    capture_metrics: bool = False,
    capture_profile: bool = False,
) -> TaskOutcome:
    """Run one attempt in the current process and classify it."""
    reset_counters()
    before = registry().snapshot() if capture_metrics else None
    before_profile = (
        profiler().snapshot()
        if capture_profile and profiler().enabled
        else None
    )
    spans: list[Span] = []
    started = time.perf_counter()
    if trace:
        with task_capture(
            f"{task.kind}[{task.index}]",
            task_kind=task.kind,
            index=task.index,
            worker=worker,
        ) as spans:
            value = _attempt(task)
    else:
        value = _attempt(task)
    duration = time.perf_counter() - started
    counters = reset_counters().as_dict(skip_zero=True)
    metrics = (
        subtract_snapshot(registry().snapshot(), before)
        if before is not None
        else {}
    )
    profile = (
        subtract_profile(profiler().snapshot(), before_profile)
        if before_profile is not None
        else {}
    )
    if spans:
        spans[0].attrs["status"] = value.status
        spans[0].attrs["attempts"] = attempts
    return TaskOutcome(
        index=task.index,
        status=value.status,
        value=value.value,
        duration=duration,
        started=started,
        attempts=attempts,
        worker=worker,
        error=value.error,
        counters=counters,
        kind=task.kind,
        spans=spans,
        metrics=metrics,
        profile=profile,
    )


@dataclass(frozen=True)
class _ExecuteResult:
    value: Any
    status: str
    error: str | None


def _worker_main(
    worker_id: int,
    conn: Any,
    payload: bytes | None,
    trace: bool = False,
    profile_hz: float | None = None,
) -> None:
    """Process-pool worker body: recv (task, attempt), send outcome."""
    if payload is not None:  # spawn start method: no fork inheritance
        # The payload is a pickled ShippedSnapshot: inline providers
        # carry the object graph itself; mapped providers carry buffer
        # coordinates and reattach the columns zero-copy here.
        activate(pickle.loads(payload).materialize())
    if not trace:
        # Fork children inherit the parent's live tracer; mute it so
        # uncaptured operator spans do not pile up in the worker's copy.
        disable_tracing()
    # A fork child inherits the parent's profiler object, but not its
    # sampling thread — retire it, then start a fresh per-worker
    # profiler when the parent asked for one.
    disable_profiling()
    if profile_hz:
        enable_profiling(profile_hz)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):  # pragma: no cover - parent vanished
            break
        if message is None:
            break
        task, attempt = message
        outcome = _execute(
            task,
            worker_id,
            attempt + 1,
            trace=trace,
            capture_metrics=True,
            capture_profile=bool(profile_hz),
        )
        try:
            conn.send(outcome)
        except (BrokenPipeError, OSError):  # pragma: no cover
            break
    conn.close()


class _ProcWorker:
    """One supervised worker process plus its command pipe."""

    def __init__(
        self,
        ctx: Any,
        worker_id: int,
        payload: bytes | None,
        trace: bool = False,
        profile_hz: float | None = None,
    ):
        self.worker_id = worker_id
        parent_conn, child_conn = ctx.Pipe()
        self.conn = parent_conn
        self.process = ctx.Process(
            target=_worker_main,
            args=(worker_id, child_conn, payload, trace, profile_hz),
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        #: (task, attempt) currently assigned, or None when idle.
        self.busy: tuple[Task, int] | None = None
        self.assigned_at = 0.0

    def assign(self, task: Task, attempt: int) -> None:
        self.conn.send((task, attempt))
        self.busy = (task, attempt)
        # Deadline bookkeeping only; never enters results.
        self.assigned_at = time.monotonic()

    def kill(self) -> None:
        self.process.terminate()
        self.process.join(timeout=5.0)
        self.conn.close()

    def stop(self) -> None:
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=5.0)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout=5.0)
        self.conn.close()


class WorkerPool:
    """Run tasks over N workers with deadlines, retries and recovery.

    ``workers=1`` (the default) executes serially in-process,
    anything above on one process per worker
    (:attr:`backend` reports which).  At most ``2 * workers`` tasks are
    pulled ahead of the workers.
    """

    def __init__(
        self,
        workers: int = 1,
        timeout: float | None = None,
        snapshot: SnapshotHandle | None = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        #: Reported label, derived: ``serial`` at one worker, else ``process``.
        self.backend = "serial" if workers == 1 else "process"
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive")
        self.timeout = timeout
        self.snapshot = snapshot if snapshot is not None else InlineSnapshot()

    # -- public surface ----------------------------------------------------

    def run(self, tasks: Iterable[Task]) -> PoolResult:
        """Execute all tasks; outcomes merge back in submission order."""
        stats = _RunStats()
        started = time.perf_counter()
        if self.workers == 1:
            outcomes = self._run_serial(tasks, stats)
        else:
            outcomes = self._run_process(tasks, stats)
        outcomes.sort(key=lambda outcome: outcome.index)
        for outcome in outcomes:  # worker-registry deltas, merge order fixed
            if outcome.metrics:
                registry().merge_snapshot(outcome.metrics)
        prof = profiler()
        if prof.enabled:
            for outcome in outcomes:  # worker profile deltas, same order
                if outcome.profile:
                    prof.merge(outcome.profile)
        self._record_metrics(outcomes, stats)
        self._graft_trace(outcomes)
        return PoolResult(
            outcomes=outcomes,
            elapsed=time.perf_counter() - started,
            workers=self.workers,
            backend=self.backend,
            retries=stats.retries,
            timeouts=stats.timeouts,
            crashes=stats.crashes,
            counters=merge_counters(o.counters for o in outcomes),
        )

    # -- telemetry ---------------------------------------------------------

    def _record_metrics(
        self, outcomes: list[TaskOutcome], stats: _RunStats
    ) -> None:
        """Parent-side pool metrics, emitted in submission order.  Every
        series is touched unconditionally so the set of series present
        does not depend on worker count or scheduling."""
        metrics = registry()
        metrics.gauge("repro_pool_workers").set(self.workers)
        metrics.counter("repro_pool_retries_total").inc(stats.retries)
        metrics.counter("repro_pool_timeouts_total").inc(stats.timeouts)
        metrics.counter("repro_pool_crashes_total").inc(stats.crashes)
        for outcome in outcomes:
            kind = outcome.kind or "task"
            metrics.counter(
                "repro_tasks_total", kind=kind, status=outcome.status
            ).inc()
            metrics.histogram("repro_task_seconds", kind=kind).observe(
                outcome.duration
            )

    def _graft_trace(self, outcomes: list[TaskOutcome]) -> None:
        """Attach one ``pool`` span holding every task's tree, in
        submission order; tasks without a captured tree (timeouts,
        crashes) get a synthesized span, so the trace shape stays
        deterministic."""
        if not tracer().enabled:
            return
        task_spans: list[list[Span]] = []
        for outcome in outcomes:
            if outcome.spans:
                task_spans.append(outcome.spans)
            else:
                kind = outcome.kind or "task"
                task_spans.append(
                    [
                        synthesize_task_span(
                            f"{kind}[{outcome.index}]",
                            int(outcome.duration * 1_000_000),
                            task_kind=kind,
                            index=outcome.index,
                            worker=outcome.worker,
                            status=outcome.status,
                        )
                    ]
                )
        graft_outcomes(
            "pool",
            task_spans,
            kind="operation",
            backend=self.backend,
            workers=self.workers,
            tasks=len(outcomes),
        )

    # -- serial ------------------------------------------------------------

    def _soft_guard(self, outcome: TaskOutcome) -> TaskOutcome:
        """Apply the soft deadline: an overlong successful attempt is
        reclassified as a timeout (its value and counters are dropped,
        matching the hard timeout, where they never existed)."""
        if (
            self.timeout is not None
            and outcome.status == STATUS_OK
            and outcome.duration > self.timeout
        ):
            # Spans are dropped with the value: the hard timeout kills
            # the worker before any tree could ship, and the soft path
            # must end in the same (synthesized-span) shape.
            return replace(
                outcome, status=STATUS_TIMEOUT, value=None, counters={},
                spans=[], profile={},
            )
        return outcome

    def _attempt_inline(self, task: Task, stats: _RunStats) -> TaskOutcome:
        """Retry-once-then-record for the serial pool."""
        trace = tracer().enabled
        outcome = self._soft_guard(_execute(task, 0, 1, trace=trace))
        if outcome.ok:
            return outcome
        stats.retries += 1
        if outcome.status == STATUS_TIMEOUT:
            stats.timeouts += 1
        retried = self._soft_guard(_execute(task, 0, 2, trace=trace))
        if retried.status == STATUS_TIMEOUT:
            stats.timeouts += 1
        return retried

    def _run_serial(
        self, tasks: Iterable[Task], stats: _RunStats
    ) -> list[TaskOutcome]:
        previous = activate(self.snapshot)
        try:
            return [self._attempt_inline(task, stats) for task in tasks]
        finally:
            activate(previous)

    # -- process ------------------------------------------------------------

    def _tick(self) -> float:
        if self.timeout is None:
            return 0.05
        return min(0.05, self.timeout / 5.0)

    def _run_process(
        self, tasks: Iterable[Task], stats: _RunStats
    ) -> list[TaskOutcome]:
        method = start_method()
        context = mp.get_context(method)
        payload = None
        if method != "fork":
            payload = pickle.dumps(self.snapshot.ship())
        # Fork inheritance: children see the handle activated here.
        previous = activate(self.snapshot)
        capture = tracer().enabled
        # Workers profile at the parent's rate and ship per-task deltas.
        profile_hz = profiler().hz if profiler().enabled else None
        workers = {}
        try:
            workers = {
                worker_id: _ProcWorker(
                    context, worker_id, payload, capture, profile_hz
                )
                for worker_id in range(self.workers)
            }
            return self._supervise(
                context, payload, workers, iter(tasks), stats, capture,
                profile_hz,
            )
        finally:
            for worker in workers.values():
                worker.stop()
            activate(previous)

    def _supervise(
        self,
        context: Any,
        payload: bytes | None,
        workers: dict[int, _ProcWorker],
        task_iter: Iterator[Task],
        stats: _RunStats,
        capture: bool = False,
        profile_hz: float | None = None,
    ) -> list[TaskOutcome]:
        backlog: deque[tuple[Task, int]] = deque()
        outcomes: list[TaskOutcome] = []
        exhausted = False

        def refill() -> None:
            nonlocal exhausted
            while not exhausted and len(backlog) < 2 * self.workers:
                try:
                    backlog.append((next(task_iter), 0))
                except StopIteration:
                    exhausted = True

        def settle(
            worker: _ProcWorker, status: str, error: str
        ) -> None:
            """Retry-or-record for a task whose worker was lost."""
            assert worker.busy is not None
            task, attempt = worker.busy
            worker.busy = None
            if attempt == 0:
                stats.retries += 1
                backlog.appendleft((task, 1))
            else:
                outcomes.append(
                    TaskOutcome(
                        index=task.index,
                        status=status,
                        duration=self.timeout or 0.0,
                        attempts=attempt + 1,
                        worker=worker.worker_id,
                        error=error,
                        kind=task.kind,
                    )
                )

        def respawn(worker: _ProcWorker) -> None:
            workers[worker.worker_id] = _ProcWorker(
                context, worker.worker_id, payload, capture, profile_hz
            )

        while True:
            refill()
            for worker in workers.values():
                if worker.busy is None and backlog:
                    task, attempt = backlog.popleft()
                    worker.assign(task, attempt)
            busy = [w for w in workers.values() if w.busy is not None]
            if not busy:
                if exhausted and not backlog:
                    break
                continue

            ready = mp_connection.wait(
                [worker.conn for worker in busy], timeout=self._tick()
            )
            by_conn = {worker.conn: worker for worker in busy}
            for conn in ready:
                worker = by_conn[conn]
                try:
                    outcome: TaskOutcome = conn.recv()
                except (EOFError, OSError):
                    # The worker died mid-task: recover and re-dispatch.
                    stats.crashes += 1
                    worker.kill()
                    settle(worker, STATUS_CRASHED, "worker process died")
                    respawn(worker)
                    continue
                assert worker.busy is not None
                finished_task, finished_attempt = worker.busy
                worker.busy = None
                if outcome.status == STATUS_ERROR and finished_attempt == 0:
                    stats.retries += 1
                    backlog.appendleft((finished_task, 1))
                else:
                    outcomes.append(outcome)

            # Deadline bookkeeping only; never enters results.
            now = time.monotonic()
            if self.timeout is not None:
                for worker in list(workers.values()):
                    if (
                        worker.busy is not None
                        and now - worker.assigned_at > self.timeout
                    ):
                        stats.timeouts += 1
                        worker.kill()
                        settle(
                            worker,
                            STATUS_TIMEOUT,
                            f"exceeded {self.timeout:.3f}s deadline",
                        )
                        respawn(worker)
            for worker in list(workers.values()):
                if worker.busy is not None and not worker.process.is_alive():
                    # Crash detected by liveness before the pipe EOF:
                    # drain a final message if one made it out.
                    if worker.conn.poll():
                        continue  # the wait() loop will pick it up
                    stats.crashes += 1
                    worker.kill()
                    settle(worker, STATUS_CRASHED, "worker process died")
                    respawn(worker)
        return outcomes
