"""The sampling profiler and resource timeline (``repro.obs.prof`` /
``repro.obs.timeline``).

The contracts under test mirror the metrics registry's: profiling
starts only through :func:`enable_profiling`, the delta algebra
(``subtract_profile`` / ``subtract_timeline``) is exact, workers ship
per-task deltas across the pool boundary and the parent grafts them in
submission order — so a parallel run's profile section is
structure-identical to a serial run's.  The disabled path
(``NullProfiler``) must add nothing at all: no thread, no samples, no
``profile`` section in the telemetry document.
"""

from __future__ import annotations

import time

import pytest

from repro.exec import Task, WorkerPool
from repro.obs import (
    DEFAULT_PROFILE_HZ,
    FIXED_SERIES,
    NullProfiler,
    ResourceTimeline,
    SamplingProfiler,
    disable_profiling,
    disable_tracing,
    enable_profiling,
    enable_tracing,
    profiler,
    profiling_enabled,
    reset_registry,
    span,
    structure_of,
    subtract_profile,
    subtract_timeline,
    telemetry_document,
    to_collapsed,
)


@pytest.fixture(autouse=True)
def _clean_profiler():
    """Every test starts and ends with profiling off."""
    disable_profiling()
    yield
    disable_profiling()
    disable_tracing()
    reset_registry()


def _spin(seconds):
    """Busy loop (module-level so the process backend can pickle it)."""
    deadline = time.perf_counter() + seconds
    total = 0
    while time.perf_counter() < deadline:
        total += 1
    return total


# ---------------------------------------------------------------------------
# Delta algebra — the cross-process currency
# ---------------------------------------------------------------------------


class TestSubtractProfile:
    def test_nothing_new_is_falsy(self):
        snap = {"hz": 97.0, "samples": 5, "stacks": {"a;b": 5},
                "timeline": {}}
        assert subtract_profile(snap, snap) == {}

    def test_empty_after_is_falsy(self):
        assert subtract_profile({}, {}) == {}

    def test_fresh_stacks_diffed(self):
        before = {"hz": 97.0, "samples": 3, "stacks": {"a;b": 3}}
        after = {"hz": 97.0, "samples": 7,
                 "stacks": {"a;b": 5, "a;c": 2}}
        delta = subtract_profile(after, before)
        assert delta["samples"] == 4
        assert delta["stacks"] == {"a;b": 2, "a;c": 2}
        assert delta["hz"] == 97.0

    def test_timeline_delta_carried(self):
        before = {"hz": 97.0, "samples": 0, "stacks": {},
                  "timeline": {"series": {
                      "cpu_seconds": {"samples": [[1.0, 0.5]], "total": 1},
                  }}}
        after = {"hz": 97.0, "samples": 1, "stacks": {"a": 1},
                 "timeline": {"series": {
                     "cpu_seconds": {"samples": [[1.0, 0.5], [2.0, 0.7]],
                                     "total": 2},
                 }}}
        delta = subtract_profile(after, before)
        assert delta["timeline"]["series"]["cpu_seconds"]["samples"] == [
            [2.0, 0.7]
        ]


class TestSubtractTimeline:
    def test_totals_drive_the_diff(self):
        before = {"series": {"x": {"samples": [[1.0, 1.0]], "total": 1}}}
        after = {"series": {"x": {"samples": [[1.0, 1.0], [2.0, 2.0],
                                              [3.0, 3.0]], "total": 3}}}
        delta = subtract_timeline(after, before)
        assert delta["series"]["x"]["samples"] == [[2.0, 2.0], [3.0, 3.0]]
        assert delta["series"]["x"]["total"] == 2

    def test_exact_across_ring_drops(self):
        # The ring kept only the last 2 samples but 5 were appended
        # since `before`: the totals, not the ring lengths, decide.
        before = {"series": {"x": {"samples": [[1.0, 1.0]], "total": 1}}}
        after = {"series": {"x": {"samples": [[5.0, 5.0], [6.0, 6.0]],
                                  "total": 6}}}
        delta = subtract_timeline(after, before)
        # 5 fresh appends, only 2 survive the ring; both are kept.
        assert delta["series"]["x"]["samples"] == [[5.0, 5.0], [6.0, 6.0]]

    def test_series_missing_from_after_omitted(self):
        before = {"series": {"gone": {"samples": [[1.0, 1.0]], "total": 1}}}
        assert subtract_timeline({"series": {}}, before) == {}

    def test_new_series_in_after_kept_whole(self):
        after = {"series": {"fresh": {"samples": [[1.0, 9.0]], "total": 1}}}
        delta = subtract_timeline(after, {})
        assert delta["series"]["fresh"]["samples"] == [[1.0, 9.0]]

    def test_nothing_new_returns_empty(self):
        snap = {"series": {"x": {"samples": [[1.0, 1.0]], "total": 1}}}
        assert subtract_timeline(snap, snap) == {}


class TestTimelineMergeRebase:
    def test_merge_rebases_onto_parent_end(self):
        parent = ResourceTimeline(capacity=16)
        parent._append("cpu_seconds", 100.0, 1.0)
        delta = {"series": {"cpu_seconds": {
            "samples": [[5.0, 2.0], [8.0, 3.0]], "total": 2,
        }}}
        parent.merge(delta)
        rows = parent.snapshot()["series"]["cpu_seconds"]["samples"]
        # Worker stamps 5.0/8.0 rebased as one block onto t=100.0 with
        # their 3 µs spacing preserved.
        assert rows == [[100.0, 1.0], [100.0, 2.0], [103.0, 3.0]]

    def test_merge_empty_delta_is_noop(self):
        parent = ResourceTimeline(capacity=4)
        parent.merge({})
        parent.merge({"series": {}})
        assert parent.snapshot()["series"] == {}

    def test_ring_capacity_bounds_series(self):
        line = ResourceTimeline(capacity=3)
        for tick in range(10):
            line._append("x", float(tick), float(tick))
        snap = line.snapshot()["series"]["x"]
        assert [row[0] for row in snap["samples"]] == [7.0, 8.0, 9.0]
        assert snap["total"] == 10


# ---------------------------------------------------------------------------
# The live sampler
# ---------------------------------------------------------------------------


class TestSamplingProfiler:
    def test_samples_busy_main_thread(self):
        prof = enable_profiling(hz=400.0)
        _spin(0.15)
        prof.stop()
        snap = prof.snapshot()
        assert snap["samples"] > 0
        assert any("_spin" in stack for stack in snap["stacks"])
        series = snap["timeline"]["series"]
        assert set(FIXED_SERIES) <= set(series)
        # CPU time is cumulative, so the series is non-decreasing.
        cpu = [value for _, value in series["cpu_seconds"]["samples"]]
        assert cpu == sorted(cpu)

    def test_samples_tagged_with_active_span_path(self):
        enable_tracing()
        prof = enable_profiling(hz=400.0)
        with span("power_test", kind="phase"):
            with span("bi[3]", kind="task"):
                _spin(0.15)
        prof.stop()
        tagged = [s for s in prof.snapshot()["stacks"]
                  if s.startswith("span:")]
        assert tagged, "no span-tagged stacks sampled"
        assert any("power_test/bi[3]" in s for s in tagged)

    def test_enable_without_env_uses_default(self):
        assert enable_profiling().hz == DEFAULT_PROFILE_HZ

    def test_stop_is_idempotent(self):
        prof = enable_profiling(hz=200.0)
        prof.stop()
        prof.stop()

    def test_rejects_non_positive_rate(self):
        with pytest.raises(ValueError):
            SamplingProfiler(hz=0)

    def test_collapsed_export(self):
        prof = enable_profiling(hz=400.0)
        _spin(0.1)
        prof.stop()
        text = to_collapsed({"profile": prof.snapshot()})
        assert text
        for line in text.splitlines():
            stack, _, count = line.rpartition(" ")
            assert stack and int(count) > 0


# ---------------------------------------------------------------------------
# The pool boundary: worker deltas graft in submission order
# ---------------------------------------------------------------------------


def _pool_profile(workers: int) -> dict:
    reset_registry()
    enable_profiling(hz=250.0)
    try:
        pool = WorkerPool(workers=workers)
        result = pool.run(
            Task(index, "call", (_spin, (0.12,))) for index in range(4)
        )
        assert all(o.status == "ok" for o in result.outcomes)
        return telemetry_document(configuration={"workers": workers})
    finally:
        disable_profiling()


class TestPoolBoundary:
    def test_parallel_profile_structure_matches_serial(self):
        serial = _pool_profile(1)
        parallel = _pool_profile(4)
        assert serial["profile"]["samples"] > 0
        assert parallel["profile"]["samples"] > 0
        assert structure_of(serial)["profile"] == \
            structure_of(parallel)["profile"]

    def test_worker_stacks_shipped_to_parent(self):
        parallel = _pool_profile(4)
        assert any(
            "_spin" in stack for stack in parallel["profile"]["stacks"]
        ), "worker-side samples never reached the parent profiler"


# ---------------------------------------------------------------------------
# The disabled path (CI runs `-k disabled` to hold this at zero)
# ---------------------------------------------------------------------------


class TestDisabledPath:
    def test_disabled_by_default(self):
        assert not profiling_enabled()
        assert isinstance(profiler(), NullProfiler)
        assert profiler().snapshot() == {}

    def test_disabled_pool_run_adds_zero_samples(self):
        reset_registry()
        pool = WorkerPool(workers=1)
        result = pool.run([Task(0, "call", (_spin, (0.05,)))])
        assert result.outcomes[0].status == "ok"
        assert result.outcomes[0].profile == {}
        assert profiler().snapshot() == {}
        assert profiler().samples == 0

    def test_disabled_telemetry_has_no_profile_section(self):
        reset_registry()
        document = telemetry_document(configuration={})
        assert "profile" not in document
        assert "profile" not in structure_of(document)

    def test_disabled_null_profiler_ignores_merges(self):
        prof = profiler()
        prof.merge({"samples": 3, "stacks": {"a": 3}})
        assert prof.snapshot() == {}
