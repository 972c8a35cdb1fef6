"""Workload execution (spec sections 3.4 and 6.2).

The :class:`Driver` executes a schedule against a :class:`SocialGraph`:

* updates are applied through IU 1-8;
* complex reads run IC 1-14 with their scheduled parameters;
* after each complex read a **short-read sequence** is issued — person
  centric (IS 1, IS 2, IS 3) or message centric (IS 4 - IS 7) depending
  on the complex read type — with parameters taken from the results of
  previously executed reads; after each sequence another one follows
  with a decaying probability.  The same RNG seed makes the workload
  deterministic across executions, as the spec requires.

Simulation time maps to wall-clock time through the Time Compression
Ratio: ``wall_gap = sim_gap * tcr``.  A TCR of 0 replays as fast as
possible; a negative, infinite or NaN TCR is a ``ValueError``.  Every
operation is logged with its scheduled and actual start time; the §6.2
validity rule (95 % of queries start within 1 second of schedule) is
evaluated over the log.

The replay is one serial loop in schedule order: writes, complex reads
and their short-read sequences all run in the calling process against
the live store.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from repro.core.run import RunReport
from repro.driver.scheduler import ScheduledOperation
from repro.driver.transactions import apply_write
from repro.graph.store import SocialGraph
from repro.obs.metrics import registry, summarize_seconds
from repro.obs.spans import span
from repro.queries.interactive.complex import ALL_COMPLEX
from repro.queries.interactive.short import ALL_SHORT
from repro.util.rng import DeterministicRng

#: Complex reads whose results contain message ids -> message-centric
#: short-read sequences; all others are person centric.
_MESSAGE_CENTRIC = frozenset({2, 7, 8, 9})
#: Probability of issuing another short-read sequence after one finishes,
#: multiplied by itself after every sequence (decaying, per spec 3.4).
SHORT_SEQUENCE_PROBABILITY = 0.5

_PERSON_FIELDS = ("person_id", "friend_id", "zombie_id", "person1_id")
_MESSAGE_FIELDS = ("message_id", "comment_id", "comment_or_post_id", "post_id")


@dataclass(slots=True)
class ResultsLogEntry:
    """One line of the ``results_log.csv`` the auditing rules require."""

    operation: str
    scheduled_start: float
    actual_start: float
    duration: float
    result_count: int

    @property
    def start_delay(self) -> float:
        return self.actual_start - self.scheduled_start


def _record_log_metrics(log: list[ResultsLogEntry]) -> None:
    """Feed the finished log into the metrics registry, in log order:
    one ``repro_operation_seconds`` histogram per operation name (the
    telemetry counterpart of :meth:`DriverReport.per_operation_stats`)."""
    metrics = registry()
    for entry in log:
        metrics.histogram(
            "repro_operation_seconds", operation=entry.operation
        ).observe(entry.duration)


@dataclass
class DriverReport(RunReport):
    """Aggregated outcome of a benchmark run."""

    log: list[ResultsLogEntry]
    wall_seconds: float

    @property
    def total_operations(self) -> int:
        return len(self.log)

    @property
    def invalidated_reads(self) -> int:
        """Complex reads whose parameters a delete invalidated."""
        return sum(1 for e in self.log if e.result_count < 0)

    @property
    def throughput(self) -> float:
        """Operations per wall-clock second."""
        if self.wall_seconds <= 0:
            return float("inf")
        return len(self.log) / self.wall_seconds

    def on_time_fraction(self, tolerance: float = 1.0) -> float:
        """Fraction of operations starting within ``tolerance`` seconds
        of schedule (the §6.2 validity rule uses 1 second / 95 %)."""
        if not self.log:
            return 1.0
        on_time = sum(1 for e in self.log if e.start_delay < tolerance)
        return on_time / len(self.log)

    @property
    def is_valid_run(self) -> bool:
        return self.on_time_fraction() >= 0.95

    def per_operation_stats(self) -> dict[str, dict[str, float]]:
        """operation -> {count, mean_ms, p50_ms, p95_ms, p99_ms, max_ms}.

        Summaries come from :func:`repro.obs.metrics.summarize_seconds`
        — the same fixed-bucket histogram every telemetry consumer sees
        — so count/mean/max are exact and the quantiles carry the
        documented bucket resolution."""
        buckets: dict[str, list[float]] = {}
        for entry in self.log:
            buckets.setdefault(entry.operation, []).append(entry.duration)
        return {
            operation: summarize_seconds(durations)
            for operation, durations in sorted(buckets.items())
        }

    def summary_dict(self) -> dict:
        """The driver's results-summary document (spec §6.2 mentions a
        results summary next to the results log)."""
        return {
            "workload": "interactive",
            "mode": "driver",
            "total_operations": self.total_operations,
            "wall_seconds": self.wall_seconds,
            "throughput_ops_per_second": self.throughput,
            "on_time_fraction": self.on_time_fraction(),
            "valid_run": self.is_valid_run,
            "invalidated_reads": self.invalidated_reads,
            "per_operation": self.per_operation_stats(),
        }

    def write_results_log(self, path) -> None:
        """Write ``results_log.csv`` (spec §6.2, the driver's ``-rl``
        output): operation, scheduled/actual start, duration, rows."""
        import csv

        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, delimiter="|")
            writer.writerow(
                ["operation", "scheduled_start_time", "actual_start_time",
                 "duration", "result_count"]
            )
            for entry in self.log:
                writer.writerow(
                    [entry.operation, f"{entry.scheduled_start:.6f}",
                     f"{entry.actual_start:.6f}", f"{entry.duration:.6f}",
                     entry.result_count]
                )

    # write_results_dir is inherited from RunReport: it writes
    # configuration.json, results_summary.json and (through the
    # write_results_log override above) results_log.csv.

    def format_table(self) -> str:
        lines = [
            f"{'operation':14s} {'count':>7s} {'mean ms':>9s} {'p95 ms':>9s} {'max ms':>9s}"
        ]
        for operation, row in self.per_operation_stats().items():
            lines.append(
                f"{operation:14s} {row['count']:7.0f} {row['mean_ms']:9.3f}"
                f" {row['p95_ms']:9.3f} {row['max_ms']:9.3f}"
            )
        lines.append(
            f"total {self.total_operations} ops in {self.wall_seconds:.2f}s"
            f" -> {self.throughput:.0f} ops/s;"
            f" on-time(1s) {100 * self.on_time_fraction():.1f}%"
        )
        return "\n".join(lines)


class Driver:
    """Executes a schedule, growing the graph and logging every query."""

    def __init__(
        self,
        graph: SocialGraph,
        time_compression_ratio: float = 0.0,
        seed: int = 1234,
    ):
        if not 0 <= time_compression_ratio < math.inf:
            raise ValueError(
                "time_compression_ratio must be finite and >= 0, got "
                f"{time_compression_ratio!r}"
            )
        self.graph = graph
        self.tcr = time_compression_ratio
        self.rng = DeterministicRng(seed, "driver")

    def run(
        self,
        schedule: list[ScheduledOperation],
        warmup_reads: int = 0,
    ) -> DriverReport:
        """Execute the schedule.

        ``warmup_reads`` complex reads are executed before the clock
        starts (spec §6.2's warmup phase): the first bindings of the
        schedule's read operations run unlogged, warming the process
        without mutating the graph.
        """
        if warmup_reads:
            warmed = 0
            for op in schedule:
                if op.kind != "complex":
                    continue
                ALL_COMPLEX[op.number][0](self.graph, *op.params)
                warmed += 1
                if warmed >= warmup_reads:
                    break
        with span("driver", kind="phase", operations=len(schedule),
                  tcr=self.tcr):
            report = self._run_paced(schedule)
        _record_log_metrics(report.log)
        return report

    def _run_paced(self, schedule: list[ScheduledOperation]) -> DriverReport:
        """Serial schedule replay (paced when ``tcr > 0``)."""
        log: list[ResultsLogEntry] = []
        run_start = time.perf_counter()
        if schedule:
            sim_origin = schedule[0].due

        for op in schedule:
            scheduled_wall = (
                run_start + (op.due - sim_origin) / 1000.0 * self.tcr
            )
            now = time.perf_counter()
            if self.tcr > 0 and now < scheduled_wall:
                time.sleep(scheduled_wall - now)
            if op.kind in ("update", "delete"):
                self._apply_write(op, scheduled_wall, log)
            else:
                name = f"IC {op.number}"
                runner = ALL_COMPLEX[op.number][0]
                actual = time.perf_counter()
                with span(name, kind="operation", query=op.number):
                    try:
                        result = runner(self.graph, *op.params)
                        rows = len(result)
                    except KeyError:
                        # A delete invalidated a curated parameter (e.g.
                        # the start person was removed); logged as -1 rows.
                        result = []
                        rows = -1
                finished = time.perf_counter()
                log.append(
                    ResultsLogEntry(
                        name, scheduled_wall, actual, finished - actual, rows
                    )
                )
                self._run_short_sequences(op.number, result, log)
        return DriverReport(log=log, wall_seconds=time.perf_counter() - run_start)

    def _apply_write(
        self,
        op: ScheduledOperation,
        scheduled_wall: float,
        log: list[ResultsLogEntry],
    ) -> None:
        """Apply one IU/DEL operation and log it; a write that an
        earlier delete invalidated (the official driver skips it) is
        logged as -1 rows."""
        prefix = "IU" if op.kind == "update" else "DEL"
        name = f"{prefix} {op.number}"
        actual = time.perf_counter()
        with span(name, kind="operation", write=op.number):
            rows = 1 if apply_write(self.graph, op.params) else -1
        finished = time.perf_counter()
        log.append(
            ResultsLogEntry(
                name, scheduled_wall, actual, finished - actual, rows
            )
        )

    # -- short reads --------------------------------------------------------

    def _extract_ids(self, rows: list, fields: tuple[str, ...]) -> list[int]:
        ids = []
        for row in rows:
            row_fields = getattr(row, "_fields", ())
            for candidate in fields:
                if candidate in row_fields:
                    ids.append(getattr(row, candidate))
                    break
        return ids

    def _run_short_sequences(
        self, complex_number: int, rows: list, log: list[ResultsLogEntry]
    ) -> None:
        message_centric = complex_number in _MESSAGE_CENTRIC
        probability = 1.0  # the first sequence is always issued
        while self.rng.random() < probability:
            probability = (
                SHORT_SEQUENCE_PROBABILITY
                if probability == 1.0
                else probability * SHORT_SEQUENCE_PROBABILITY
            )
            if message_centric:
                ids = self._extract_ids(rows, _MESSAGE_FIELDS)
                ids = [i for i in ids if self.graph.has_message(i)]
                if not ids:
                    return
                message_id = self.rng.choice(ids)
                rows = self._run_short_set((4, 5, 6, 7), message_id, log)
            else:
                ids = self._extract_ids(rows, _PERSON_FIELDS)
                ids = [i for i in ids if i in self.graph.persons]
                if not ids:
                    return
                person_id = self.rng.choice(ids)
                rows = self._run_short_set((1, 2, 3), person_id, log)
            if not rows:
                return

    def _run_short_set(
        self, numbers: tuple[int, ...], entity_id: int, log: list[ResultsLogEntry]
    ) -> list:
        collected: list = []
        for number in numbers:
            runner = ALL_SHORT[number][0]
            started = time.perf_counter()
            try:
                result = runner(self.graph, entity_id)
            except KeyError:
                # The entity's context was deleted between the producing
                # read and this short read (e.g. its forum).
                result = []
            finished = time.perf_counter()
            log.append(
                ResultsLogEntry(
                    f"IS {number}", started, started, finished - started,
                    len(result),
                )
            )
            collected.extend(result)
        return collected
