"""Tests for the observability layer (``repro.obs``).

Three layers:

* unit tests per module — the span tree (both creation styles, the
  fork-boundary capture/graft cycle), the metrics registry (fixed-bucket
  merge algebra, the delta shipping format) and the exporters;
* differential telemetry — the executor's deterministic-merge guarantee
  extended to telemetry: ``structure_of(telemetry)`` is identical across
  worker counts, including the retry / timeout / crash
  paths;
* the disabled path — with tracing off (the default), runs produce
  byte-identical results to a traced run and leave no spans behind.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.core.api import SocialNetworkBenchmark
from repro.core.run import RunRequest
from repro.driver.bi_driver import power_test
from repro.exec import STATUS_CRASHED, STATUS_OK, STATUS_TIMEOUT, Task, WorkerPool
from repro.obs import (
    LATENCY_BUCKETS_SECONDS,
    TELEMETRY_VERSION,
    Histogram,
    MetricsRegistry,
    NullTracer,
    Span,
    Tracer,
    disable_tracing,
    enable_tracing,
    graft_outcomes,
    reset_registry,
    set_tracer,
    span,
    structure_of,
    subtract_snapshot,
    summarize_seconds,
    synthesize_task_span,
    task_capture,
    telemetry_document,
    to_chrome_trace,
    to_prometheus,
    tracer,
    tracing_enabled,
)


@pytest.fixture
def live_tracer():
    """A fresh enabled tracer + registry, restored afterwards."""
    reset_registry()
    trace = enable_tracing()
    yield trace
    disable_tracing()
    reset_registry()


@pytest.fixture(scope="module")
def small_bench():
    return SocialNetworkBenchmark.generate(num_persons=100, seed=42)


# -- module-level task payloads (picklable for process workers) ------------


def _double(x):
    return 2 * x


def _fail_until_marker(marker):
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        raise ValueError("first attempt fails")
    return "recovered"


def _sleep_return(seconds, value):
    time.sleep(seconds)
    return value


def _crash_always():
    os._exit(13)


def _call_tasks(specs):
    return [
        Task(index, "call", (fn, tuple(args)))
        for index, (fn, *args) in enumerate(specs)
    ]


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class TestSpans:
    def test_strict_nesting(self, live_tracer):
        with span("outer", kind="phase") as outer:
            with span("inner", kind="operation") as inner:
                pass
        assert [s.name for s in live_tracer.roots] == ["outer"]
        assert outer.children == [inner]
        assert outer.duration_us is not None
        assert inner.duration_us is not None

    def test_open_span_attaches_without_pushing(self, live_tracer):
        with span("op", kind="operation"):
            leaf = tracer().open_span("scan_messages", access="full")
            # The leaf did not become the stack top: a sibling opened
            # after it still nests under "op", not under the leaf.
            with span("child", kind="operation"):
                pass
            leaf.close()
        op = live_tracer.roots[0]
        assert [c.name for c in op.children] == ["scan_messages", "child"]
        assert leaf.duration_us is not None

    def test_close_is_idempotent(self, live_tracer):
        leaf = tracer().open_span("scan_persons")
        leaf.close(end_us=leaf.start_us + 7)
        leaf.close(end_us=leaf.start_us + 9999)
        assert leaf.duration_us == 7

    def test_exception_closes_open_spans(self, live_tracer):
        with pytest.raises(RuntimeError):
            with span("outer", kind="phase"):
                raise RuntimeError("boom")
        assert live_tracer.roots[0].duration_us is not None

    def test_null_tracer_is_inert(self):
        assert isinstance(tracer(), NullTracer)
        assert not tracing_enabled()
        with span("ignored", kind="phase") as nothing:
            assert nothing is None
        leaf = tracer().open_span("ignored")
        leaf.close()
        assert tracer().roots == []

    def test_task_capture_detaches_a_tree(self, live_tracer):
        with task_capture("bi[3]", worker=1) as collected:
            with span("step", kind="operation"):
                tracer().open_span("scan_forums").close()
        assert tracer() is live_tracer  # previous tracer restored
        (root,) = collected
        assert (root.name, root.kind) == ("bi[3]", "task")
        assert root.attrs["worker"] == 1
        assert [c.name for c in root.children] == ["step"]
        assert root.duration_us is not None
        assert live_tracer.roots == []  # nothing leaked into the parent

    def test_graft_outcomes_lays_tasks_out_sequentially(self, live_tracer):
        captured = []
        for index in range(3):
            with task_capture(f"bi[{index}]") as collected:
                time.sleep(0.001)
            captured.append(collected)
        with span("power_test", kind="phase"):
            grafted = graft_outcomes(
                "pool", captured, kind="operation", workers=2
            )
        assert grafted is not None
        tasks = grafted.children
        assert [t.name for t in tasks] == ["bi[0]", "bi[1]", "bi[2]"]
        for before, after in zip(tasks, tasks[1:]):
            assert after.start_us == before.end_us
        assert grafted.duration_us == sum(t.duration_us for t in tasks)

    def test_graft_outcomes_disabled_returns_none(self):
        assert graft_outcomes("pool", [[synthesize_task_span("t", 5)]]) is None

    def test_synthesized_span_shape(self):
        made = synthesize_task_span("ic[2]", 1234, worker=0, status="ok")
        assert (made.name, made.kind) == ("ic[2]", "task")
        assert made.duration_us == 1234
        assert made.children == []


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_and_gauge(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total", kind="a").inc()
        reg.counter("repro_x_total", kind="a").inc(2)
        reg.gauge("repro_pool_workers").set(4)
        snap = reg.snapshot()
        assert snap["counters"] == {'repro_x_total{kind="a"}': 3}
        assert snap["gauges"] == {"repro_pool_workers": 4}

    def test_label_order_does_not_split_series(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total", b="2", a="1").inc()
        reg.counter("repro_x_total", a="1", b="2").inc()
        assert reg.snapshot()["counters"] == {'repro_x_total{a="1",b="2"}': 2}

    def test_histogram_summary(self):
        hist = Histogram()
        for value in (0.002, 0.004):
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == 2
        assert summary["mean_ms"] == pytest.approx(3.0)
        assert summary["max_ms"] == pytest.approx(4.0)
        assert 2.0 <= summary["p50_ms"] <= 4.0

    def test_histogram_quantiles_clamped_to_observed_range(self):
        hist = Histogram()
        hist.observe(0.3)
        assert hist.quantile(0.0) == pytest.approx(0.3)
        assert hist.quantile(1.0) == pytest.approx(0.3)

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(0.5, 0.1))

    def test_merge_snapshot_is_addition(self):
        one, two = MetricsRegistry(), MetricsRegistry()
        for reg, values in ((one, (0.01, 0.2)), (two, (0.02,))):
            for value in values:
                reg.histogram("repro_task_seconds", kind="bi").observe(value)
            reg.counter("repro_tasks_total").inc(len(values))
        one.merge_snapshot(two.snapshot())
        snap = one.snapshot()
        assert snap["counters"]["repro_tasks_total"] == 3
        hist = snap["histograms"]['repro_task_seconds{kind="bi"}']
        assert hist["count"] == 3
        assert hist["sum"] == pytest.approx(0.23)
        assert hist["max"] == pytest.approx(0.2)
        assert hist["min"] == pytest.approx(0.01)

    def test_merge_rejects_mismatched_buckets(self):
        one, two = MetricsRegistry(), MetricsRegistry()
        one.histogram("repro_task_seconds").observe(0.01)
        two.histogram("repro_task_seconds", buckets=(1.0, 2.0)).observe(0.5)
        with pytest.raises(ValueError, match="bucket bounds differ"):
            one.merge_snapshot(two.snapshot())

    def test_subtract_snapshot_ships_only_deltas(self):
        reg = MetricsRegistry()
        reg.counter("repro_pool_retries_total").inc(5)
        reg.counter("repro_pool_timeouts_total").inc(1)
        before = reg.snapshot()
        reg.counter("repro_pool_retries_total").inc(2)
        reg.histogram("repro_task_seconds").observe(0.05)
        delta = subtract_snapshot(reg.snapshot(), before)
        assert delta["counters"] == {"repro_pool_retries_total": 2}
        assert list(delta["histograms"]) == ["repro_task_seconds"]
        assert delta["histograms"]["repro_task_seconds"]["count"] == 1

    def test_subtract_snapshot_labeled_histogram_bucketwise(self):
        reg = MetricsRegistry()
        hist = reg.histogram("repro_query_seconds", query="bi3")
        hist.observe(0.002)
        before = reg.snapshot()
        hist.observe(0.002)
        hist.observe(0.4)
        delta = subtract_snapshot(reg.snapshot(), before)
        key = 'repro_query_seconds{query="bi3"}'
        assert list(delta["histograms"]) == [key]
        diffed = delta["histograms"][key]
        assert diffed["count"] == 2
        assert diffed["sum"] == pytest.approx(0.402)
        # Bucket-wise: one fresh observation in the 2 ms bucket, one in
        # 0.4 s's bucket — the before-run observation is subtracted out.
        full = reg.snapshot()["histograms"][key]
        prior = before["histograms"][key]
        assert diffed["counts"] == [
            now - then for now, then in zip(full["counts"], prior["counts"])
        ]
        assert sum(diffed["counts"]) == 2

    def test_subtract_snapshot_labeled_histogram_unchanged_dropped(self):
        reg = MetricsRegistry()
        reg.histogram("repro_query_seconds", query="bi3").observe(0.002)
        snap = reg.snapshot()
        # Nothing observed since: the labeled series is absent from the
        # delta entirely, not shipped as an all-zero histogram.
        assert subtract_snapshot(reg.snapshot(), snap)["histograms"] == {}

    def test_subtract_snapshot_new_labeled_series_passes_whole(self):
        reg = MetricsRegistry()
        reg.histogram("repro_query_seconds", query="bi3").observe(0.002)
        before = reg.snapshot()
        reg.histogram("repro_query_seconds", query="bi18").observe(0.1)
        delta = subtract_snapshot(reg.snapshot(), before)
        key = 'repro_query_seconds{query="bi18"}'
        assert list(delta["histograms"]) == [key]
        assert delta["histograms"][key]["count"] == 1

    def test_summarize_seconds_keys(self):
        summary = summarize_seconds([0.001, 0.002, 0.003])
        assert set(summary) == {
            "count", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms"
        }
        assert summary["count"] == 3


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


def _sample_document():
    trace = Tracer()
    root = Span(name="bi:power", kind="run", start_us=100)
    task = Span(name="bi[0]", kind="task", start_us=110, attrs={"worker": 1})
    task.children.append(
        Span(name="scan_messages", kind="operator", start_us=120,
             attrs={"access": "full"}, duration_us=30)
    )
    task.duration_us = 50
    root.children.append(task)
    root.duration_us = 90
    trace.roots.append(root)
    metrics = MetricsRegistry()
    metrics.counter("repro_pool_retries_total").inc(2)
    metrics.gauge("repro_pool_workers").set(2)
    metrics.histogram("repro_query_seconds", query="bi1").observe(0.004)
    return telemetry_document(
        trace=trace, metrics=metrics, configuration={"workload": "bi"}
    )


class TestExporters:
    def test_telemetry_document_shape(self):
        document = _sample_document()
        assert document["telemetry_version"] == TELEMETRY_VERSION
        assert document["configuration"] == {"workload": "bi"}
        (root,) = document["spans"]
        assert (root["name"], root["kind"]) == ("bi:power", "run")
        assert root["children"][0]["children"][0]["attrs"]["access"] == "full"
        assert json.loads(json.dumps(document)) == document

    def test_structure_of_drops_timings_keeps_shape(self):
        document = _sample_document()
        skeleton = structure_of(document)
        assert skeleton["spans"] == [
            ["bi:power", "run", [["bi[0]", "task",
                                  [["scan_messages", "operator", []]]]]]
        ]
        assert skeleton["counters"] == ["repro_pool_retries_total"]
        assert skeleton["histograms"] == {
            'repro_query_seconds{query="bi1"}': list(LATENCY_BUCKETS_SECONDS)
        }
        # Same shape, different timings/counts -> identical structure.
        other = _sample_document()
        other["spans"][0]["duration_us"] = 12345
        assert structure_of(other) == skeleton

    def test_chrome_trace_events(self):
        events = to_chrome_trace(_sample_document())["traceEvents"]
        assert events[0]["ph"] == "M"  # process_name metadata
        spans = [e for e in events if e["ph"] == "X"]
        assert [e["name"] for e in spans] == [
            "bi:power", "bi[0]", "scan_messages"
        ]
        task = spans[1]
        assert task["tid"] == 2  # worker 1 -> lane 2
        assert task["ts"] == 110 and task["dur"] == 50

    def test_prometheus_exposition(self):
        text = to_prometheus(_sample_document()["metrics"])
        assert "# TYPE repro_pool_retries_total counter" in text
        assert "repro_pool_retries_total 2" in text
        assert "# TYPE repro_pool_workers gauge" in text
        assert "# TYPE repro_query_seconds histogram" in text
        assert 'repro_query_seconds_bucket{query="bi1",le="+Inf"} 1' in text
        assert 'repro_query_seconds_count{query="bi1"} 1' in text
        # Cumulative buckets: the le="0.005" bucket already holds the
        # single 4 ms observation.
        assert 'repro_query_seconds_bucket{query="bi1",le="0.005"} 1' in text

    def test_prometheus_help_lines(self):
        text = to_prometheus(_sample_document()["metrics"])
        lines = text.splitlines()
        # Every series family gets a HELP line immediately before its
        # TYPE line, as the exposition format specifies.
        for family in ("repro_pool_retries_total", "repro_pool_workers",
                       "repro_query_seconds"):
            help_index = lines.index(next(
                line for line in lines
                if line.startswith(f"# HELP {family} ")
            ))
            assert lines[help_index + 1].startswith(f"# TYPE {family} ")
            # Non-empty help text after the family name.
            assert lines[help_index].split(None, 3)[3].strip()

    def test_prometheus_label_values_escaped(self):
        metrics = MetricsRegistry()
        metrics.counter(
            "repro_x_total", path='a\\b', note='say "hi"\nbye'
        ).inc()
        text = to_prometheus(metrics.snapshot())
        assert (
            'repro_x_total{note="say \\"hi\\"\\nbye",path="a\\\\b"} 1'
            in text
        )
        # The escaped exposition stays one line per sample.
        assert all(
            line.startswith("#") or " " in line
            for line in text.splitlines() if line
        )


# ---------------------------------------------------------------------------
# Differential telemetry: structure identical across worker counts
# ---------------------------------------------------------------------------


def _traced(run):
    """Run ``run()`` under a fresh tracer + registry; return (result,
    telemetry document)."""
    reset_registry()
    enable_tracing()
    try:
        result = run()
        return result, telemetry_document()
    finally:
        disable_tracing()
        reset_registry()


class TestTelemetryParity:
    def test_power_test_serial_vs_process(self, small_bench):
        """The acceptance criterion: telemetry.json is structurally
        identical between ``--workers 1`` and ``--workers 4``."""
        def run_with(workers):
            return _traced(lambda: power_test(
                small_bench.graph, small_bench.params,
                small_bench.scale_factor, workers=workers,
            ))

        serial_result, serial_doc = run_with(1)
        parallel_result, parallel_doc = run_with(4)
        assert structure_of(parallel_doc) == structure_of(serial_doc)
        assert parallel_result.operator_stats == serial_result.operator_stats
        # The trace actually covers the hierarchy, down to operators.
        def kinds(spans):
            for node in spans:
                yield node["kind"]
                yield from kinds(node["children"])
        assert {"phase", "operation", "task", "operator"} <= set(
            kinds(serial_doc["spans"])
        )

    def test_run_envelope_attaches_structurally_stable_telemetry(
        self, small_bench, tmp_path
    ):
        def run_with(workers):
            def go():
                report = small_bench.run(
                    RunRequest(workload="bi", mode="power", workers=workers)
                )
                return report.telemetry
            reset_registry()
            enable_tracing()
            try:
                return go()
            finally:
                disable_tracing()
                reset_registry()

        doc_w1 = run_with(1)
        doc_w4 = run_with(4)
        assert doc_w1["telemetry_version"] == TELEMETRY_VERSION
        skeleton_w1, skeleton_w4 = structure_of(doc_w1), structure_of(doc_w4)
        # The worker count is configuration, not structure.
        assert skeleton_w1["spans"] == skeleton_w4["spans"]
        assert skeleton_w1["counters"] == skeleton_w4["counters"]
        assert skeleton_w1["histograms"] == skeleton_w4["histograms"]

    def test_retry_timeout_crash_paths_are_structure_stable(self, tmp_path):
        """Failure tasks synthesize/capture the same task-span skeleton
        whatever the worker count (process x2 vs x4 — ``workers=1``
        would run serially, with soft deadlines and no crashes)."""
        def run_with(workers, label):
            marker = str(tmp_path / f"retry-{label}")
            tasks = _call_tasks([
                (_double, 3),
                (_fail_until_marker, marker),
                (_sleep_return, 30.0, "late"),
                (_crash_always,),
            ])
            pool = WorkerPool(workers=workers, timeout=0.5)
            return _traced(lambda: pool.run(tasks))

        result_2, doc_2 = run_with(2, "two")
        result_4, doc_4 = run_with(4, "four")
        assert structure_of(doc_2) == structure_of(doc_4)
        for result in (result_2, result_4):
            statuses = [o.status for o in result.outcomes]
            assert statuses == [
                STATUS_OK, STATUS_OK, STATUS_TIMEOUT, STATUS_CRASHED
            ]
        # Every task appears in the trace, in submission order, under
        # one pool operation span — failures included.
        (pool_span,) = doc_2["spans"]
        assert pool_span["name"] == "pool"
        assert [t["name"] for t in pool_span["children"]] == [
            "call[0]", "call[1]", "call[2]", "call[3]"
        ]
        # The retried task records both attempts.
        assert pool_span["children"][1]["attrs"]["attempts"] == 2

    def test_pool_metrics_series_exist_whatever_the_outcome(self, tmp_path):
        _, document = _traced(
            lambda: WorkerPool(workers=2).run(
                _call_tasks([(_double, 1), (_double, 2)])
            )
        )
        counters = document["metrics"]["counters"]
        for name in ("repro_pool_retries_total", "repro_pool_timeouts_total",
                     "repro_pool_crashes_total"):
            assert counters[name] == 0
        assert counters['repro_tasks_total{kind="call",status="ok"}'] == 2
        assert document["metrics"]["gauges"]["repro_pool_workers"] == 2
        assert (
            document["metrics"]["histograms"]
            ['repro_task_seconds{kind="call"}']["count"] == 2
        )


# ---------------------------------------------------------------------------
# The disabled path (CI runs this leg with ``-k disabled``)
# ---------------------------------------------------------------------------


class TestDisabledTracer:
    def test_disabled_tracer_results_identical_to_traced(self, small_bench):
        """Tracing must not change what the benchmark computes: the
        traced and untraced power tests agree byte-for-byte on rows and
        operator counters (runtimes naturally differ)."""
        assert not tracing_enabled()
        untraced = power_test(
            small_bench.graph, small_bench.params, small_bench.scale_factor
        )
        traced, _document = _traced(lambda: power_test(
            small_bench.graph, small_bench.params, small_bench.scale_factor
        ))
        assert traced.operator_stats == untraced.operator_stats
        assert sorted(traced.runtimes) == sorted(untraced.runtimes)

    def test_disabled_run_leaves_no_spans(self, small_bench):
        assert isinstance(tracer(), NullTracer)
        report = small_bench.run(RunRequest(workload="bi", mode="power"))
        assert tracer().roots == []
        # The telemetry document still exists (metrics are always on)
        # but carries no spans.
        assert report.telemetry["spans"] == []

    def test_disabled_operator_path_allocates_nothing(self):
        from repro.engine.operators import _operator_span

        assert _operator_span("scan_messages", access="full") is None
