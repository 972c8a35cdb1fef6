"""``repro.obs`` — run telemetry: span tracing, metrics, exporters.

The observability layer the VLDB 2022 analysis methodology presumes:
hierarchical spans (``run → phase → operation → task → operator``)
threaded through the driver, the executor pool and the engine; a
process-global metrics registry of counters/gauges/fixed-bucket latency
histograms; and exporters producing a versioned ``telemetry.json``, a
Perfetto-loadable Chrome trace and a Prometheus text exposition.

Tracing is off by default (:class:`~repro.obs.spans.NullTracer`;
near-zero overhead on every instrumented path) and enabled per run by
the CLI ``--trace`` flag.  The metrics registry is always on.

See ``docs/OBSERVABILITY.md`` for the span model, the metric naming
scheme and how to read the exports.
"""

from repro.obs.exporters import (
    TELEMETRY_VERSION,
    structure_of,
    telemetry_document,
    to_chrome_trace,
    to_collapsed,
    to_prometheus,
)
from repro.obs.metrics import (
    LATENCY_BUCKETS_SECONDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry,
    reset_registry,
    subtract_snapshot,
    summarize_seconds,
)
from repro.obs.prof import (
    DEFAULT_PROFILE_HZ,
    NullProfiler,
    SamplingProfiler,
    disable_profiling,
    enable_profiling,
    profiler,
    profiling_enabled,
    set_profiler,
    subtract_profile,
)
from repro.obs.spans import (
    SPAN_KINDS,
    NullTracer,
    Span,
    Tracer,
    disable_tracing,
    enable_tracing,
    graft_outcomes,
    set_tracer,
    span,
    synthesize_task_span,
    task_capture,
    tracer,
    tracing_enabled,
)
from repro.obs.timeline import (
    FIXED_SERIES,
    MIRRORED_PREFIXES,
    ResourceTimeline,
    subtract_timeline,
)

__all__ = [
    "DEFAULT_PROFILE_HZ",
    "FIXED_SERIES",
    "LATENCY_BUCKETS_SECONDS",
    "MIRRORED_PREFIXES",
    "SPAN_KINDS",
    "TELEMETRY_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullProfiler",
    "NullTracer",
    "ResourceTimeline",
    "SamplingProfiler",
    "Span",
    "Tracer",
    "disable_profiling",
    "disable_tracing",
    "enable_profiling",
    "enable_tracing",
    "graft_outcomes",
    "profiler",
    "profiling_enabled",
    "registry",
    "reset_registry",
    "set_profiler",
    "set_tracer",
    "span",
    "structure_of",
    "subtract_profile",
    "subtract_snapshot",
    "subtract_timeline",
    "summarize_seconds",
    "synthesize_task_span",
    "task_capture",
    "telemetry_document",
    "to_chrome_trace",
    "to_collapsed",
    "to_prometheus",
    "tracer",
    "tracing_enabled",
]
