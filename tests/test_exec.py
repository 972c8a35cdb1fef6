"""Tests for the process-parallel executor (``repro.exec``).

Covers the pool contract the benchmark relies on: serial and process
pools return identical merged results, the work queue is bounded, failures
follow retry-once-then-record, deadlines and worker crashes are
survived, and per-task engine counters merge deterministically.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.engine.stats import merge_counters
from repro.exec import (
    STATUS_CRASHED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    InlineSnapshot,
    Task,
    WorkerPool,
    activate,
    active,
    run_task,
)
from repro.exec.tasks import TASK_KINDS
from repro.graph.store import SocialGraph

# -- module-level task payloads (picklable for process workers) ------------


def _double(x):
    return 2 * x


def _fail_always():
    raise ValueError("nope")


def _fail_until_marker(marker):
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        raise ValueError("first attempt fails")
    return "recovered"


def _sleep_return(seconds, value):
    time.sleep(seconds)
    return value


def _touch(path):
    time.sleep(0.002)
    with open(path, "w"):
        pass
    return int(os.path.basename(path))


def _crash_until_marker(marker):
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os._exit(13)
    return "recovered"


def _crash_always():
    os._exit(13)


def _person_count():
    return len(active().graph.persons)


def _context_tag(graph, context):
    return context["tag"]


# Registered at import: fork-based workers inherit the registry.
TASK_KINDS["context_tag"] = _context_tag


def _call_tasks(specs):
    return [
        Task(index, "call", (fn, tuple(args)))
        for index, (fn, *args) in enumerate(specs)
    ]


# -- worker-count resolution ------------------------------------------------


class TestResolveWorkers:
    def test_default_is_serial(self):
        pool = WorkerPool()
        assert pool.workers == 1
        assert pool.backend == "serial"

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool(workers=0)
        with pytest.raises(TypeError):  # derived from workers, not an option
            WorkerPool(workers=2, backend="thread")
        with pytest.raises(TypeError):  # derived from workers, not an option
            WorkerPool(workers=2, queue_depth=1)
        with pytest.raises(ValueError):
            WorkerPool(workers=2, timeout=0)


# -- snapshot activation ----------------------------------------------------


class TestSnapshot:
    def test_activate_returns_previous(self):
        first = InlineSnapshot(context={"tag": "first"})
        second = InlineSnapshot(context={"tag": "second"})
        base = activate(first)
        try:
            assert active() is first
            assert activate(second) is first
            assert active() is second
        finally:
            activate(base)

    def test_run_task_reads_active_snapshot(self):
        base = activate(InlineSnapshot(context={"tag": "inline"}))
        try:
            assert run_task(Task(0, "context_tag")) == "inline"
        finally:
            activate(base)

    def test_unknown_kind_raises(self):
        with pytest.raises(LookupError, match="no-such-kind"):
            run_task(Task(0, "no-such-kind"))


# -- serial / process equivalence -------------------------------------------


class TestBackends:
    @pytest.mark.parametrize("backend,workers", [
        ("serial", 1), ("process", 3),
    ])
    def test_values_merge_in_submission_order(self, backend, workers):
        pool = WorkerPool(workers=workers)
        result = pool.run(
            _call_tasks([(_double, i) for i in range(17)])
        )
        assert result.values() == [2 * i for i in range(17)]
        assert [o.index for o in result.outcomes] == list(range(17))
        assert result.failures == 0
        assert result.backend == backend

    def test_workers_one_forces_serial(self):
        assert WorkerPool(workers=1).backend == "serial"
        assert WorkerPool(workers=4).backend == "process"

    def test_generator_input_with_small_queue_depth(self):
        """Twelve lazily generated tasks through the four-deep
        (``2 * workers``) dispatch queue."""
        pool = WorkerPool(workers=2)
        result = pool.run(
            Task(i, "call", (_double, (i,))) for i in range(12)
        )
        assert result.values() == [2 * i for i in range(12)]

    def test_snapshot_context_reaches_process_workers(self):
        pool = WorkerPool(
            workers=2,
            snapshot=InlineSnapshot(context={"tag": "shipped"}),
        )
        result = pool.run([Task(0, "context_tag"), Task(1, "context_tag")])
        assert result.values() == ["shipped", "shipped"]

    def test_each_pool_forks_after_the_writes_before_it(self, tiny_net):
        """What lets the drivers interleave writes with process read
        blocks: workers see the graph as of their pool's ``run``."""
        graph = SocialGraph.from_data(tiny_net)
        tasks = _call_tasks([(_person_count,), (_person_count,)])
        persons = len(graph.persons)
        snapshot = InlineSnapshot(graph)
        assert WorkerPool(workers=2, snapshot=snapshot).run(
            tasks
        ).values() == [persons, persons]
        graph.delete_person(next(iter(graph.persons)))
        assert WorkerPool(workers=2, snapshot=snapshot).run(
            tasks
        ).values() == [persons - 1, persons - 1]

    def test_bounded_queue_limits_lookahead(self, tmp_path):
        pulled: list[int] = []

        def generate():
            for i in range(20):
                pulled.append(i)
                # pulled-but-unfinished tasks never exceed the bound:
                # 2 * workers waiting + workers executing.
                assert len(pulled) - len(os.listdir(tmp_path)) <= 4 + 2
                yield Task(i, "call", (_touch, (str(tmp_path / str(i)),)))

        result = WorkerPool(workers=2).run(generate())
        assert result.values() == list(range(20))
        assert result.failures == 0

    def test_stats_dict_surface(self):
        result = WorkerPool(workers=1).run(_call_tasks([(_double, 3)]))
        stats = result.stats_dict()
        assert stats == {
            "workers": 1,
            "backend": "serial",
            "tasks": 1,
            "failures": 0,
            "retries": 0,
            "timeouts": 0,
            "worker_crashes": 0,
        }


# -- retry-once-then-record -------------------------------------------------


class TestRetry:
    @pytest.mark.parametrize("backend,workers", [
        ("serial", 1), ("process", 2),
    ])
    def test_persistent_error_recorded_after_one_retry(
        self, backend, workers
    ):
        pool = WorkerPool(workers=workers)
        result = pool.run(_call_tasks([(_fail_always,), (_double, 4)]))
        failed, succeeded = result.outcomes
        assert failed.status == STATUS_ERROR
        assert failed.attempts == 2
        assert "ValueError: nope" in failed.error
        assert succeeded.status == STATUS_OK and succeeded.value == 8
        assert result.retries == 1
        assert result.failures == 1

    @pytest.mark.parametrize("backend,workers", [
        ("serial", 1), ("process", 2),
    ])
    def test_transient_error_recovers_on_retry(
        self, backend, workers, tmp_path
    ):
        marker = str(tmp_path / f"fail-once-{backend}")
        pool = WorkerPool(workers=workers)
        result = pool.run(_call_tasks([(_fail_until_marker, marker)]))
        (outcome,) = result.outcomes
        assert outcome.status == STATUS_OK
        assert outcome.value == "recovered"
        assert outcome.attempts == 2
        assert result.retries == 1
        assert result.failures == 0


# -- deadlines --------------------------------------------------------------


class TestDeadlines:
    def test_process_hard_timeout_kills_worker(self):
        pool = WorkerPool(workers=2, timeout=0.25)
        started = time.perf_counter()
        result = pool.run(
            _call_tasks([(_sleep_return, 30.0, "late"), (_double, 5)])
        )
        assert time.perf_counter() - started < 10.0  # not 30s: killed
        late, on_time = result.outcomes
        assert late.status == STATUS_TIMEOUT
        assert late.attempts == 2
        assert late.value is None
        assert on_time.value == 10
        assert result.timeouts == 2  # both attempts timed out

    def test_soft_timeout_reclassifies_inline_attempt(self):
        pool = WorkerPool(workers=1, timeout=0.01)
        result = pool.run(
            _call_tasks([(_sleep_return, 0.05, "slow"), (_double, 2)])
        )
        slow, fast = result.outcomes
        assert slow.status == STATUS_TIMEOUT
        assert slow.value is None and slow.counters == {}
        assert fast.status == STATUS_OK and fast.value == 4
        assert result.timeouts == 2


# -- crash recovery ---------------------------------------------------------


class TestCrashRecovery:
    def test_crash_once_recovers(self, tmp_path):
        marker = str(tmp_path / "crash-once")
        pool = WorkerPool(workers=2)
        result = pool.run(
            _call_tasks([(_crash_until_marker, marker), (_double, 6)])
        )
        crashed, other = result.outcomes
        assert crashed.status == STATUS_OK
        assert crashed.value == "recovered"
        assert crashed.attempts == 2
        assert other.value == 12
        assert result.crashes >= 1
        assert result.failures == 0

    def test_persistent_crash_recorded(self):
        pool = WorkerPool(workers=2)
        result = pool.run(_call_tasks([(_crash_always,), (_double, 7)]))
        crashed, other = result.outcomes
        assert crashed.status == STATUS_CRASHED
        assert crashed.attempts == 2
        assert crashed.error == "worker process died"
        assert other.value == 14
        assert result.crashes == 2
        assert result.failures == 1


# -- engine-counter aggregation ---------------------------------------------


class TestCounters:
    def test_merge_counters_is_order_invariant_and_sorted(self):
        parts = [{"b": 2, "a": 1}, {"a": 3, "c": 5}]
        merged = merge_counters(parts)
        assert merged == {"a": 4, "b": 2, "c": 5}
        assert list(merged) == ["a", "b", "c"]
        assert merge_counters(reversed(parts)) == merged

    def test_serial_and_process_counters_identical(
        self, small_graph, small_params
    ):
        bindings = {n: small_params.bi(n, count=1) for n in (1, 3, 9, 12)}
        tasks = [
            Task(index, "bi", (number, tuple(bindings[number][0])))
            for index, number in enumerate(sorted(bindings))
        ]
        snapshot = InlineSnapshot(small_graph)
        serial = WorkerPool(workers=1, snapshot=snapshot).run(tasks)
        parallel = WorkerPool(workers=3, snapshot=snapshot).run(tasks)
        assert serial.values() == parallel.values()
        assert [o.counters for o in serial.outcomes] == [
            o.counters for o in parallel.outcomes
        ]
        assert serial.counters == parallel.counters
