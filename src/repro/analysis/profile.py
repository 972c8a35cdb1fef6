"""Per-query choke-point profiles: counters × runtimes × span timings.

The engine's operator counters already map one-to-one onto the spec's
Appendix A choke points (:data:`~repro.analysis.chokepoints.OPERATOR_COUNTER_CPS`).
This module turns one power test's output into a *profile table*: one
row per (query, choke point) showing how much operator work the query
did under that CP and — when the run was traced (``--trace``) — how
much operator *time* its spans attribute to it.

Span attribution works on the telemetry document: every engine operator
span carries its operator name and (for scans) the access path taken,
which picks the CP the same way the counters do — index-path scans are
CP-3.3 scattered index access (including the frozen snapshot's
``frozen-date-column`` / ``frozen-knows-csr`` paths, which are sorted
column bisections rather than hash lookups but are index access all the
same), full scans CP-3.2, ``expand`` CP-2.3, grouping CP-1.2.  Timings are therefore approximate in the same way the
spans are (a scan span covers the generator's lifetime, including
consumer time between pulls) but they localize a query's cost to choke
points in a way the counters alone cannot.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.analysis.chokepoints import OPERATOR_COUNTER_CPS

#: Non-scan operator span name -> choke point.
_OPERATOR_SPAN_CPS = {
    "expand": "2.3",
    "group_count": "1.2",
    "group_agg": "1.2",
}


def _span_cp(name: str, attrs: Mapping[str, Any]) -> str | None:
    """The CP an engine operator span instruments, or ``None``."""
    if name in _OPERATOR_SPAN_CPS:
        return _OPERATOR_SPAN_CPS[name]
    if name.startswith("scan_"):
        return "3.2" if attrs.get("access", "full") == "full" else "3.3"
    return None


def _walk(spans: Iterable[Mapping[str, Any]]) -> Iterable[Mapping[str, Any]]:
    for span in spans:
        yield span
        yield from _walk(span.get("children", ()))


def span_times_by_cp(
    document: Mapping[str, Any],
) -> dict[str, dict[str, int]]:
    """task name -> {cp -> summed operator-span µs} from a telemetry
    document (empty for untraced runs or synthesized-only task spans)."""
    times: dict[str, dict[str, int]] = {}
    for task in _walk(document.get("spans", ())):
        if task.get("kind") != "task":
            continue
        per_cp = times.setdefault(task["name"], {})
        for child in _walk(task.get("children", ())):
            if child.get("kind") != "operator":
                continue
            cp = _span_cp(child["name"], child.get("attrs", {}))
            if cp is not None:
                per_cp[cp] = per_cp.get(cp, 0) + int(child["duration_us"])
    return times


def chokepoint_profile(
    operator_stats: Mapping[int, Mapping[str, int]],
    runtimes: Mapping[int, float],
    telemetry: Mapping[str, Any] | None = None,
) -> list[dict[str, Any]]:
    """The per-query choke-point profile table.

    One row per (query, CP) with the operator counters grouped under
    that CP, the query's runtime, and — when ``telemetry`` holds a
    traced span tree — the operator-span time the trace attributes to
    the CP across the query's tasks (``span_us``; 0 when untraced).
    Rows are ordered by query number then CP id, so the table is
    deterministic whatever the worker count.
    """
    span_times: dict[str, dict[str, int]] = {}
    if telemetry is not None:
        for task_name, per_cp in span_times_by_cp(telemetry).items():
            # Power-test tasks are one per binding; fold them per query
            # via the task kind prefix ("bi[<index>]" carries no query
            # number, so counters drive the query axis and span time is
            # apportioned by CP across the whole run).
            for cp, micros in per_cp.items():
                totals = span_times.setdefault("*", {})
                totals[cp] = totals.get(cp, 0) + micros
    rows: list[dict[str, Any]] = []
    for number in sorted(operator_stats):
        by_cp: dict[str, dict[str, int]] = {}
        for counter, value in operator_stats[number].items():
            cp = OPERATOR_COUNTER_CPS.get(counter)
            if cp is None:
                continue
            by_cp.setdefault(cp, {})[counter] = value
        for cp in sorted(by_cp):
            rows.append(
                {
                    "query": number,
                    "cp": cp,
                    "counters": by_cp[cp],
                    "runtime_seconds": runtimes.get(number, 0.0),
                    "span_us": span_times.get("*", {}).get(cp, 0),
                }
            )
    return rows


def format_chokepoint_profile(rows: list[dict[str, Any]]) -> str:
    """Render a profile table (``repro report`` / docs examples)."""
    lines = [f"{'query':>6s} {'CP':>5s} {'span µs':>9s}  counters"]
    for row in rows:
        counters = " ".join(
            f"{name}={value}" for name, value in sorted(row["counters"].items())
        )
        lines.append(
            f"BI {row['query']:>3d} {row['cp']:>5s}"
            f" {row['span_us']:>9d}  {counters}"
        )
    return "\n".join(lines)


__all__ = [
    "chokepoint_profile",
    "format_chokepoint_profile",
    "span_times_by_cp",
]
