"""Telemetry exporters: ``telemetry.json``, Chrome trace, Prometheus.

Three machine-readable views of one run's telemetry:

* :func:`telemetry_document` — the versioned ``telemetry.json``
  combining the span tree and the metrics snapshot.  Its *structure*
  (span names/kinds/nesting, metric series names, bucket bounds) is
  deterministic across worker counts; only timing values differ —
  :func:`structure_of` computes exactly that comparable form, and the
  differential tests assert ``structure_of(w1) == structure_of(w4)``.
* :func:`to_chrome_trace` — Chrome trace-event JSON (``traceEvents``
  with complete ``"X"`` events), loadable in Perfetto / ``chrome://tracing``.
* :func:`to_prometheus` — the Prometheus text exposition format
  (``# HELP``/``# TYPE`` headers, escaped label values), with
  ``_bucket{le=...}`` series per histogram so p50/p95/p99 are derivable
  by any Prometheus-compatible consumer.
* :func:`to_collapsed` — the profiler's stacks in collapsed-stack text
  (one ``stack count`` line per stack), the input format of
  ``flamegraph.pl`` / speedscope / inferno.

When the sampling profiler is live, :func:`telemetry_document` attaches
its snapshot as a ``profile`` section and :func:`to_chrome_trace`
renders its resource timeline as Perfetto counter tracks (``"C"``
events) alongside the span events.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.obs.metrics import MetricsRegistry, registry
from repro.obs.prof import profiler
from repro.obs.spans import Tracer, tracer
from repro.obs.timeline import FIXED_SERIES

#: Version stamp of the telemetry.json layout; bump on shape changes.
TELEMETRY_VERSION = 1


def telemetry_document(
    trace: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    configuration: Mapping[str, Any] | None = None,
    profile: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """The versioned run-telemetry document (defaults to the globals).

    The ``profile`` section appears only when the sampling profiler is
    enabled (or an explicit ``profile`` mapping is passed) — the
    disabled path adds nothing to the document.
    """
    trace = trace if trace is not None else tracer()
    metrics = metrics if metrics is not None else registry()
    document = {
        "telemetry_version": TELEMETRY_VERSION,
        "configuration": dict(configuration or {}),
        "spans": [span.to_dict() for span in trace.roots],
        "metrics": metrics.snapshot(),
    }
    if profile is None and profiler().enabled:
        profile = profiler().snapshot()
    if profile:
        document["profile"] = dict(profile)
    return document


def _span_structure(span: Mapping[str, Any]) -> list[Any]:
    return [
        span["name"],
        span["kind"],
        [_span_structure(child) for child in span["children"]],
    ]


def structure_of(document: Mapping[str, Any]) -> dict[str, Any]:
    """The scheduling-invariant skeleton of a telemetry document.

    Keeps span names/kinds/tree shape, metric series names and
    histogram bucket bounds; drops every timing- or placement-dependent
    value (timestamps, durations, counts, worker attributes).  Two runs
    of the same workload must agree on this form whatever their worker
    count — the executor's deterministic-merge guarantee, extended from
    results to telemetry.
    """
    metrics = document.get("metrics", {})
    skeleton: dict[str, Any] = {
        "telemetry_version": document.get("telemetry_version"),
        "spans": [_span_structure(span) for span in document.get("spans", ())],
        "counters": sorted(metrics.get("counters", {})),
        "gauges": sorted(metrics.get("gauges", {})),
        "histograms": {
            key: list(data["buckets"])
            for key, data in sorted(metrics.get("histograms", {}).items())
        },
    }
    profile = document.get("profile")
    if profile is not None:
        # Sample counts and stack contents are timing-dependent; the
        # scheduling-invariant part of a profile is its rate and which
        # fixed timeline series were recorded (the mirrored registry
        # gauges appear only when the run publishes them, so they are
        # excluded like other placement-dependent values).
        timeline = profile.get("timeline", {}).get("series", {})
        skeleton["profile"] = {
            "hz": profile.get("hz"),
            "timeline_series": sorted(set(timeline) & set(FIXED_SERIES)),
        }
    return skeleton


# -- Chrome trace-event JSON ------------------------------------------------

#: Span kind -> Chrome trace category (Perfetto's grouping/filter key).
_CATEGORIES = {
    "run": "run",
    "phase": "phase",
    "operation": "operation",
    "task": "task",
    "operator": "operator",
}


def _flatten_events(span: Mapping[str, Any], pid: int,
                    events: list[dict[str, Any]]) -> None:
    tid = int(span["attrs"].get("worker", 0)) + 1
    events.append(
        {
            "name": span["name"],
            "cat": _CATEGORIES.get(span["kind"], span["kind"]),
            "ph": "X",
            "ts": span["start_us"],
            "dur": span["duration_us"],
            "pid": pid,
            "tid": tid,
            "args": dict(span["attrs"]),
        }
    )
    for child in span["children"]:
        _flatten_events(child, pid, events)


def to_chrome_trace(document: Mapping[str, Any]) -> dict[str, Any]:
    """Chrome trace-event JSON for one telemetry document.

    Every span becomes a complete (``"X"``) duration event.  All spans
    share one process; a span's ``worker`` attribute (pool tasks) picks
    its thread lane, so parallel work fans out visually while the
    sequential rebasing done at graft time keeps the timeline readable.
    When the document carries a ``profile`` section, each resource
    timeline series additionally becomes a Perfetto counter track
    (``"C"`` events) under the same process, so CPU/RSS/GC ride the
    same timeline as the spans.
    Load the file in https://ui.perfetto.dev or ``chrome://tracing``.
    """
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "repro benchmark"},
        }
    ]
    for span in document.get("spans", ()):
        _flatten_events(span, 1, events)
    profile = document.get("profile") or {}
    for name, data in sorted(profile.get("timeline", {}).get("series", {}).items()):
        for stamp, value in data.get("samples", ()):
            events.append(
                {
                    "name": name,
                    "ph": "C",
                    "ts": stamp,
                    "pid": 1,
                    "tid": 0,
                    "args": {name: value},
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- collapsed stacks (flamegraph input) ------------------------------------


def to_collapsed(document: Mapping[str, Any]) -> str:
    """The profile's stacks in collapsed-stack text: one
    ``frame;frame;... count`` line per distinct stack, sorted — feed it
    to ``flamegraph.pl``, speedscope or inferno.  Accepts either a full
    telemetry document or a bare ``profile`` section; returns an empty
    string when there is no profile."""
    profile = document.get("profile", document)
    stacks = profile.get("stacks", {}) if profile else {}
    return "".join(
        f"{stack} {count}\n" for stack, count in sorted(stacks.items())
    )


# -- Prometheus text exposition ---------------------------------------------


def _split_series(key: str) -> tuple[str, str]:
    """``name{labels}`` -> (name, "{labels}" or "")."""
    brace = key.find("{")
    if brace < 0:
        return key, ""
    return key[:brace], key[brace:]


def _merge_labels(label_part: str, extra: str) -> str:
    """Insert one extra ``k="v"`` pair into a serialized label set."""
    if not label_part:
        return "{" + extra + "}"
    return label_part[:-1] + "," + extra + "}"


def _format_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


#: Help strings for the well-known series families; anything else gets
#: the generic fallback (the exposition format wants *a* HELP line per
#: family, not prose for every future series).
_HELP_TEXTS: dict[str, str] = {
    "repro_operation_seconds": "Driver per-operation latency.",
    "repro_query_seconds": "Power-test per-query latency.",
    "repro_task_seconds": "Pool task wall time.",
    "repro_tasks_total": "Pool task outcomes by kind and status.",
    "repro_pool_retries_total": "Pool task retries.",
    "repro_pool_timeouts_total": "Pool task deadline expiries.",
    "repro_pool_crashes_total": "Pool worker crashes.",
    "repro_pool_workers": "Resolved worker count.",
    "repro_frozen_bytes": "Frozen-snapshot footprint per column family.",
    "repro_frozen_freezes_total": "Frozen snapshots built.",
    "repro_frozen_path_total": "Read tasks by snapshot serving path.",
    "repro_delta_rows": "Delta-overlay insert rows outstanding.",
    "repro_delta_tombstones": "Delta-overlay tombstones outstanding.",
    "repro_delta_compactions_total": "Overlay-into-snapshot compactions.",
    "repro_snapshot_bytes_mapped": "Column bytes served zero-copy.",
    "repro_snapshot_attaches_total": "Snapshot attach events.",
    "repro_snapshot_fallback_total": "Mapped-snapshot requests served inline.",
    "repro_morsel_tasks_total": "Scan morsel tasks dispatched per query.",
}

_GENERIC_HELP = "repro benchmark telemetry series (docs/OBSERVABILITY.md)."


def _escape_help(text: str) -> str:
    """HELP text escaping per the exposition format."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def to_prometheus(snapshot: Mapping[str, Any]) -> str:
    """Render a metrics snapshot in the text exposition format."""
    lines: list[str] = []
    typed: set[str] = set()

    def type_line(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            help_text = _HELP_TEXTS.get(name, _GENERIC_HELP)
            lines.append(f"# HELP {name} {_escape_help(help_text)}")
            lines.append(f"# TYPE {name} {kind}")

    for key, value in snapshot.get("counters", {}).items():
        name, _ = _split_series(key)
        type_line(name, "counter")
        lines.append(f"{key} {value}")
    for key, value in snapshot.get("gauges", {}).items():
        name, _ = _split_series(key)
        type_line(name, "gauge")
        lines.append(f"{key} {_format_value(value)}")
    for key, data in snapshot.get("histograms", {}).items():
        name, labels = _split_series(key)
        type_line(name, "histogram")
        cumulative = 0
        for bound, count in zip(data["buckets"], data["counts"]):
            cumulative += count
            series = _merge_labels(labels, f'le="{bound}"')
            lines.append(f"{name}_bucket{series} {cumulative}")
        cumulative += data["counts"][len(data["buckets"])]
        series = _merge_labels(labels, 'le="+Inf"')
        lines.append(f"{name}_bucket{series} {cumulative}")
        lines.append(f"{name}_sum{labels} {_format_value(data['sum'])}")
        lines.append(f"{name}_count{labels} {data['count']}")
    return "\n".join(lines) + "\n"


__all__ = [
    "TELEMETRY_VERSION",
    "structure_of",
    "telemetry_document",
    "to_chrome_trace",
    "to_collapsed",
    "to_prometheus",
]
