"""The metrics registry: named counters, gauges and latency histograms.

Naming scheme (documented in ``docs/OBSERVABILITY.md``):

* every metric is ``repro_<subsystem>_<what>`` with Prometheus-style
  unit suffixes — ``_total`` for counters, ``_seconds`` for latency
  histograms;
* labels are passed as keyword arguments (``histogram("repro_task_seconds",
  kind="bi")``) and become part of the series identity, serialized as
  ``name{k="v",...}`` in snapshots and the text exposition.

Histograms use **fixed buckets** (:data:`LATENCY_BUCKETS_SECONDS` by
default) so that per-worker histograms merge by plain bucket-count
addition — the same commutative-sum property the engine's operator
counters rely on — and p50/p95/p99 are derived from the bucket counts
(linear interpolation inside the bucket, exact tracked ``max``/``min``
as clamps).  Quantiles are therefore estimates with bucket-width
resolution, which is what fixed buckets trade for mergeability.

Like :mod:`repro.engine.stats`, the registry is process-global and
always on — integer adds are cheap enough to leave unconditionally
enabled, and (unlike the per-query operator counters, which the
executor resets around every task) it is **never reset during a run**,
so work done between queries (write batches, compactions) keeps
its counts.  Worker processes accumulate into their own copy; the
executor ships per-task *deltas* back and merges them into the parent
registry (:meth:`MetricsRegistry.merge_snapshot`).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Iterable, Mapping

#: Default latency buckets, in seconds (upper bounds; +Inf is implicit).
LATENCY_BUCKETS_SECONDS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: One lock for all mutation: metric updates are coarse (per query /
#: per task, never per row), so contention is negligible and the thread
#: backend's concurrent increments stay exact.
_LOCK = threading.Lock()


def _escape_label_value(value: Any) -> str:
    """Label-value escaping per the Prometheus exposition format:
    backslash, double-quote and newline are escaped (in that order, so
    the escape character itself survives)."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def series_key(name: str, labels: Mapping[str, Any]) -> str:
    """The canonical series identity: ``name{k="v",...}``, label-sorted
    (doubles as the Prometheus exposition series name, so label values
    carry the exposition format's escaping)."""
    if not labels:
        return name
    inner = ",".join(
        f'{key}="{_escape_label_value(labels[key])}"' for key in sorted(labels)
    )
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        with _LOCK:
            self.value += amount


class Gauge:
    """A last-write-wins instantaneous value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        with _LOCK:
            self.value = value


class Histogram:
    """A fixed-bucket latency histogram with derived quantiles."""

    __slots__ = ("buckets", "counts", "sum", "count", "max", "min")

    def __init__(self, buckets: tuple[float, ...] = LATENCY_BUCKETS_SECONDS):
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ValueError("histogram buckets must be strictly increasing")
        self.buckets = tuple(buckets)
        #: One count per finite bucket plus the +Inf overflow bucket.
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0
        self.max = 0.0
        self.min: float | None = None

    def observe(self, value: float) -> None:
        with _LOCK:
            self.counts[bisect_left(self.buckets, value)] += 1
            self.sum += value
            self.count += 1
            if value > self.max:
                self.max = value
            if self.min is None or value < self.min:
                self.min = value

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile in [0, 1] (0.0 when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                lower = self.buckets[index - 1] if index > 0 else 0.0
                upper = (
                    self.buckets[index]
                    if index < len(self.buckets)
                    else self.max
                )
                fraction = (rank - cumulative) / bucket_count
                estimate = lower + (upper - lower) * max(0.0, min(1.0, fraction))
                low_clamp = self.min if self.min is not None else 0.0
                return max(low_clamp, min(estimate, self.max))
            cumulative += bucket_count
        return self.max

    def summary(self) -> dict[str, float]:
        """count / mean / p50 / p95 / p99 / max, in milliseconds where
        the metric is a latency (the only histogram kind we keep)."""
        mean = self.sum / self.count if self.count else 0.0
        return {
            "count": float(self.count),
            "mean_ms": 1000.0 * mean,
            "p50_ms": 1000.0 * self.quantile(0.50),
            "p95_ms": 1000.0 * self.quantile(0.95),
            "p99_ms": 1000.0 * self.quantile(0.99),
            "max_ms": 1000.0 * self.max,
        }


class MetricsRegistry:
    """All metric series of one process, keyed by serialized identity."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- creation (get-or-create, stable per identity) ---------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        key = series_key(name, labels)
        found = self._counters.get(key)
        if found is None:
            with _LOCK:
                found = self._counters.setdefault(key, Counter())
        return found

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = series_key(name, labels)
        found = self._gauges.get(key)
        if found is None:
            with _LOCK:
                found = self._gauges.setdefault(key, Gauge())
        return found

    def histogram(self, name: str,
                  buckets: tuple[float, ...] = LATENCY_BUCKETS_SECONDS,
                  **labels: Any) -> Histogram:
        key = series_key(name, labels)
        found = self._histograms.get(key)
        if found is None:
            with _LOCK:
                found = self._histograms.setdefault(key, Histogram(buckets))
        return found

    # -- snapshots (the cross-process merge currency) ----------------------

    def snapshot(self) -> dict[str, Any]:
        """The registry as a JSON-able document (``telemetry.json``'s
        ``metrics`` section and the executor's shipping format)."""
        with _LOCK:
            return {
                "counters": {
                    key: counter.value
                    for key, counter in sorted(self._counters.items())
                },
                "gauges": {
                    key: gauge.value
                    for key, gauge in sorted(self._gauges.items())
                },
                "histograms": {
                    key: {
                        "buckets": list(hist.buckets),
                        "counts": list(hist.counts),
                        "sum": hist.sum,
                        "count": hist.count,
                        "max": hist.max,
                        "min": hist.min,
                    }
                    for key, hist in sorted(self._histograms.items())
                },
            }

    def merge_snapshot(self, snap: Mapping[str, Any]) -> None:
        """Fold a snapshot (typically a per-task delta from a worker)
        into this registry: counters and histogram buckets add, gauges
        take the incoming value.  Addition is commutative, so merged
        totals do not depend on worker scheduling."""
        for key, value in snap.get("counters", {}).items():
            counter = self._counter_by_key(key)
            counter.inc(value)
        for key, value in snap.get("gauges", {}).items():
            self._gauge_by_key(key).set(value)
        for key, data in snap.get("histograms", {}).items():
            hist = self._histogram_by_key(key, tuple(data["buckets"]))
            if hist.buckets != tuple(data["buckets"]):
                raise ValueError(
                    f"histogram {key!r} bucket bounds differ; fixed "
                    "buckets are what makes histograms mergeable"
                )
            with _LOCK:
                for index, count in enumerate(data["counts"]):
                    hist.counts[index] += count
                hist.sum += data["sum"]
                hist.count += data["count"]
                hist.max = max(hist.max, data["max"])
                if data["min"] is not None:
                    hist.min = (
                        data["min"] if hist.min is None
                        else min(hist.min, data["min"])
                    )

    def _counter_by_key(self, key: str) -> Counter:
        with _LOCK:
            return self._counters.setdefault(key, Counter())

    def _gauge_by_key(self, key: str) -> Gauge:
        with _LOCK:
            return self._gauges.setdefault(key, Gauge())

    def _histogram_by_key(self, key: str,
                          buckets: tuple[float, ...]) -> Histogram:
        with _LOCK:
            return self._histograms.setdefault(key, Histogram(buckets))


def subtract_snapshot(after: Mapping[str, Any],
                      before: Mapping[str, Any]) -> dict[str, Any]:
    """``after - before``, per series: the per-task delta a worker ships
    (series absent from ``before`` pass through whole; unchanged series
    are dropped, keeping the shipped payload minimal)."""
    delta: dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
    before_counters = before.get("counters", {})
    for key, value in after.get("counters", {}).items():
        changed = value - before_counters.get(key, 0)
        if changed:
            delta["counters"][key] = changed
    before_gauges = before.get("gauges", {})
    for key, value in after.get("gauges", {}).items():
        if key not in before_gauges or before_gauges[key] != value:
            delta["gauges"][key] = value
    before_hists = before.get("histograms", {})
    for key, data in after.get("histograms", {}).items():
        prior = before_hists.get(key)
        if prior is None:
            if data["count"]:
                delta["histograms"][key] = data
            continue
        count = data["count"] - prior["count"]
        if not count:
            continue
        delta["histograms"][key] = {
            "buckets": data["buckets"],
            "counts": [
                now - then
                for now, then in zip(data["counts"], prior["counts"])
            ],
            "sum": data["sum"] - prior["sum"],
            "count": count,
            "max": data["max"],
            "min": data["min"],
        }
    return delta


def summarize_seconds(durations: Iterable[float]) -> dict[str, float]:
    """Latency summary of a duration list through a fixed-bucket
    histogram — the one quantile path every report uses (replacing the
    per-report ad-hoc index arithmetic)."""
    hist = Histogram()
    for value in durations:
        hist.observe(value)
    return hist.summary()


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The live process-global registry."""
    return _REGISTRY


def reset_registry() -> MetricsRegistry:
    """Install a fresh global registry (run isolation for the CLI and
    tests); returns the previous one."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = MetricsRegistry()
    return previous
