"""BI workload execution modes (the VLDB 2022 evaluation methodology).

The BI workload is benchmarked in two modes:

* **Power test** — every read query runs with curated parameters on a
  frozen snapshot; the score aggregates per-query times with a geometric
  mean (so no single query dominates):

      power @ SF = 3600 * SF / geometric_mean(runtime_seconds)

* **Throughput test** — simulation time is partitioned into write
  *microbatches* (one simulated day each, containing that day's inserts
  and deletes); after each batch the read mix runs against the updated
  snapshot.  The score is the total number of operations per elapsed
  second and the per-batch latency profile.

All three tests execute through the :mod:`repro.exec` worker pool
(``workers=1`` is the inline serial baseline, anything above one
process per worker), so they share one scheduling/deadline/retry layer
and their parallel runs merge deterministically:

* the power test and the concurrent read test run one pool over an
  immutable fork-shared snapshot;
* the throughput test builds one pool per read block, *after* the
  block's write microbatch, so its workers fork from the freshly
  written state.  Under ``spawn`` each block ships its view by value
  instead: on spawn-only platforms keep ``workers=1`` for
  write-interleaved runs.

Every result class derives from :class:`repro.core.run.RunReport`, so
``summary_dict()`` / ``format_table()`` / ``write_results_dir()`` are
available on all of them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from repro.core.run import DEFAULT_STREAMS, RunReport
from repro.datagen.delete_streams import DeleteOperation, build_delete_streams
from repro.datagen.generator import SocialNetworkData
from repro.datagen.update_streams import UpdateOperation, build_update_streams
from repro.driver.transactions import apply_write
from repro.engine import merge_counters, reset_counters
from repro.exec import (
    InlineSnapshot,
    SnapshotConfig,
    Task,
    WorkerPool,
    accumulate_exec_stats,
    provide_snapshot,
)
from repro.graph.frozen import FreezeManager, freeze
from repro.graph.store import SocialGraph
from repro.obs.metrics import registry
from repro.obs.spans import span
from repro.params.curation import ParameterGenerator
from repro.queries.bi import ALL_QUERIES
from repro.queries.bi.morsels import MORSEL_PLANS
from repro.util.dates import MILLIS_PER_DAY


@dataclass
class PowerTestResult(RunReport):
    """Per-query runtimes of one pass over BI 1-25."""

    #: query number -> runtime in seconds.
    runtimes: dict[int, float]
    scale_factor: float
    #: query number -> engine operator counters (non-zero only); every
    #: counter name maps to a spec choke-point id through
    #: ``repro.analysis.chokepoints.OPERATOR_COUNTER_CPS``.  For
    #: parallel runs these are the per-worker tallies merged per query —
    #: identical to a serial run's.
    operator_stats: dict[int, dict[str, int]] = field(default_factory=dict)
    #: Worker-pool bookkeeping (workers, backend, retries, timeouts, …).
    exec_stats: dict = field(default_factory=dict)

    @property
    def geometric_mean(self) -> float:
        values = [max(t, 1e-9) for t in self.runtimes.values()]
        return math.exp(sum(math.log(v) for v in values) / len(values))

    @property
    def power_score(self) -> float:
        """power @ SF, the paper's headline metric."""
        return 3600.0 * self.scale_factor / self.geometric_mean

    def summary_dict(self) -> dict:
        return {
            "workload": "bi",
            "mode": "power",
            "scale_factor": self.scale_factor,
            "geometric_mean_seconds": self.geometric_mean,
            "power_score": self.power_score,
            "runtimes_seconds": {str(n): t for n, t in sorted(self.runtimes.items())},
            "operator_stats": {
                str(n): stats for n, stats in sorted(self.operator_stats.items())
            },
            "exec": self.exec_stats,
        }

    def format_table(self) -> str:
        lines = [f"{'query':8s} {'runtime ms':>11s}  operators"]
        for number, runtime in sorted(self.runtimes.items()):
            counters = self.operator_stats.get(number, {})
            summary = " ".join(
                f"{name}={value}" for name, value in counters.items()
            )
            lines.append(f"BI {number:<5d} {1000 * runtime:11.3f}  {summary}")
        lines.append(
            f"geomean {1000 * self.geometric_mean:.3f} ms ->"
            f" power@SF {self.power_score:.1f}"
        )
        return "\n".join(lines)

    def chokepoint_profile(self) -> list[dict]:
        """The per-query choke-point profile: operator-counter work
        grouped by spec CP, joined with runtimes — and, when telemetry
        is attached (``--trace``), with per-operator span timings.  See
        :func:`repro.analysis.profile.chokepoint_profile`."""
        from repro.analysis.profile import chokepoint_profile

        return chokepoint_profile(
            self.operator_stats, self.runtimes, self.telemetry
        )


def power_test(
    graph: SocialGraph,
    params: ParameterGenerator,
    scale_factor: float,
    bindings_per_query: int = 1,
    workers: int = 1,
    timeout: float | None = None,
    snapshot: SnapshotConfig = SnapshotConfig(),
) -> PowerTestResult:
    """Run every BI read and score the snapshot.

    Alongside each runtime, the engine's per-operator counters (rows
    scanned, access path taken, heap activity) are captured per query
    and mapped to the spec's choke points.

    ``workers > 1`` runs the queries on a process pool over the
    fork-shared snapshot; per-binding runtimes come from each worker's
    own clock and operator counters merge per query, so the merged
    result has exactly the structure (and, runtimes aside, the content)
    of a serial pass.  ``timeout`` bounds each query execution; a query
    that exceeds it is retried once and then recorded with the deadline
    as its runtime (see ``exec_stats``).

    ``snapshot`` is the typed way to configure the read phase (the
    ``SnapshotConfig`` threaded from :class:`repro.core.run.RunRequest`):
    ``freeze`` whether the store is frozen up front (default on — the
    power test is a pure read phase, and results are identical either
    way, the frozen differential suite enforces it); ``provider`` how
    process workers obtain the snapshot (``inline`` fork/pickle, or the
    zero-copy ``mmap_file`` mapped columns); and
    ``morsel_size`` opts heavy scans into morsel-driven parallelism:
    with process workers, each binding of a query with a registered
    :data:`~repro.queries.bi.morsels.MORSEL_PLANS` entry is split into
    fixed-size slab morsels dispatched across the pool and merged
    deterministically in the parent — its runtime is the slowest morsel
    plus the merge, its operator counters the morsels' merged tallies
    (identical to the serial scan's).
    """
    read_graph = freeze(graph) if snapshot.freeze else graph
    morselized = snapshot.morsel_size is not None and workers > 1
    numbers = sorted(ALL_QUERIES)
    bindings = {n: params.bi(n, count=bindings_per_query) for n in numbers}
    tasks: list[Task] = []
    #: (number, binding, first task index, task count, plan | None)
    entries: list[tuple] = []
    for number in numbers:
        plan = MORSEL_PLANS.get(number) if morselized else None
        for binding in bindings[number]:
            binding = tuple(binding)
            if plan is not None:
                assert snapshot.morsel_size is not None
                ranges = plan.ranges(read_graph, binding, snapshot.morsel_size)
                if len(ranges) > 1:
                    start = len(tasks)
                    for index, (kind, lo, hi) in enumerate(ranges):
                        tasks.append(Task(
                            len(tasks),
                            "bi_morsel",
                            (number, kind, lo, hi, index == 0, binding),
                        ))
                    entries.append((number, binding, start, len(ranges), plan))
                    continue
            tasks.append(Task(len(tasks), "bi", (number, binding)))
            entries.append((number, binding, len(tasks) - 1, 1, None))
    handle = provide_snapshot(read_graph, config=snapshot)
    try:
        with span("power_test", kind="phase", queries=len(numbers),
                  bindings=len(entries)):
            pool = WorkerPool(
                workers=workers, timeout=timeout, snapshot=handle,
            )
            merged = pool.run(tasks)
    finally:
        handle.close()

    metrics = registry()
    durations: dict[int, list[float]] = {n: [] for n in numbers}
    counter_shares: dict[int, list[dict]] = {n: [] for n in numbers}
    for number, binding, start, count, plan in entries:
        share = merged.outcomes[start:start + count]
        if plan is None:
            duration = share[0].duration
        else:
            # The binding's wall-clock under perfect overlap: its
            # slowest morsel plus the parent-side merge.  The merge's
            # own operator work (final hash aggregation, any person
            # scan) tallies in the parent, so capture it like the pool
            # captures each task's — the binding's merged counters then
            # equal the serial query's exactly.
            partials = [o.value for o in share if o.value is not None]
            merge_start = time.perf_counter()
            reset_counters()
            plan.merge(read_graph, partials, binding)
            merge_tally = reset_counters().as_dict(skip_zero=True)
            duration = (
                max(o.duration for o in share)
                + time.perf_counter() - merge_start
            )
            counter_shares[number].append(merge_tally)
        metrics.histogram(
            "repro_query_seconds", query=f"bi{number}"
        ).observe(duration)
        durations[number].append(duration)
        counter_shares[number].extend(o.counters for o in share)
    runtimes = {
        n: sum(values) / len(values) for n, values in durations.items()
    }
    operator_stats = {
        n: merge_counters(shares) for n, shares in counter_shares.items()
    }
    return PowerTestResult(
        runtimes=runtimes,
        scale_factor=scale_factor,
        operator_stats=operator_stats,
        exec_stats=merged.stats_dict(),
    )


def run_morselized(
    graph: SocialGraph,
    number: int,
    binding: tuple,
    pool: WorkerPool,
    morsel_size: int = 65536,
) -> list:
    """Run one BI query morsel-parallel on ``pool`` and return its rows
    (row-identical to the serial query; the pool's snapshot must hold
    ``graph``).  Used by the parallel-scan benchmark and tests; the
    power test inlines the same decomposition for its batched runs."""
    plan = MORSEL_PLANS[number]
    binding = tuple(binding)
    ranges = plan.ranges(graph, binding, morsel_size)
    merged = pool.run(
        Task(index, "bi_morsel", (number, kind, lo, hi, index == 0, binding))
        for index, (kind, lo, hi) in enumerate(ranges)
    )
    partials = [o.value for o in merged.outcomes if o.value is not None]
    return plan.merge(graph, partials, binding)


@dataclass
class Microbatch:
    """One simulated day of writes."""

    day_start: int
    inserts: list[UpdateOperation] = field(default_factory=list)
    deletes: list[DeleteOperation] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.inserts) + len(self.deletes)


def build_microbatches(
    net: SocialNetworkData, include_deletes: bool = True
) -> list[Microbatch]:
    """Partition the update (and delete) streams into daily batches."""
    batches: dict[int, Microbatch] = {}

    def batch_for(timestamp: int) -> Microbatch:
        day = timestamp // MILLIS_PER_DAY
        if day not in batches:
            batches[day] = Microbatch(day_start=day * MILLIS_PER_DAY)
        return batches[day]

    for op in build_update_streams(net):
        batch_for(op.timestamp).inserts.append(op)
    if include_deletes:
        for op in build_delete_streams(net):
            batch_for(op.timestamp).deletes.append(op)
    return [batches[day] for day in sorted(batches)]


@dataclass
class ThroughputTestResult(RunReport):
    """Outcome of the microbatch throughput test."""

    batch_seconds: list[float]
    read_seconds: list[float]
    operations: int
    elapsed: float
    #: Worker-pool bookkeeping summed over all read blocks.
    exec_stats: dict = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        return self.operations / self.elapsed if self.elapsed else float("inf")

    def summary_dict(self) -> dict:
        return {
            "workload": "bi",
            "mode": "throughput",
            "microbatches": len(self.batch_seconds),
            "operations": self.operations,
            "elapsed_seconds": self.elapsed,
            "throughput_ops_per_second": self.throughput,
            "exec": self.exec_stats,
        }

    def format_table(self) -> str:
        mean_batch = (
            1000 * sum(self.batch_seconds) / len(self.batch_seconds)
            if self.batch_seconds
            else 0.0
        )
        mean_reads = (
            1000 * sum(self.read_seconds) / len(self.read_seconds)
            if self.read_seconds
            else 0.0
        )
        return (
            f"{len(self.batch_seconds)} microbatches,"
            f" mean write batch {mean_batch:.2f} ms,"
            f" mean read block {mean_reads:.2f} ms,"
            f" {self.operations} ops in {self.elapsed:.2f}s"
            f" -> {self.throughput:.0f} ops/s"
        )


@dataclass
class ConcurrentTestResult(RunReport):
    """Outcome of the multi-stream concurrent read test."""

    streams: int
    queries_per_stream: int
    elapsed: float
    #: Engine operator counters merged across all worker processes.
    operator_counters: dict[str, int] = field(default_factory=dict)
    #: Worker-pool bookkeeping (backend, retries, timeouts, crashes).
    exec_stats: dict = field(default_factory=dict)

    @property
    def total_queries(self) -> int:
        return self.streams * self.queries_per_stream

    @property
    def throughput(self) -> float:
        return self.total_queries / self.elapsed if self.elapsed else float("inf")

    def summary_dict(self) -> dict:
        return {
            "workload": "bi",
            "mode": "concurrent",
            "streams": self.streams,
            "queries_per_stream": self.queries_per_stream,
            "total_queries": self.total_queries,
            "elapsed_seconds": self.elapsed,
            "throughput_queries_per_second": self.throughput,
            "operator_counters": self.operator_counters,
            "exec": self.exec_stats,
        }

    def format_table(self) -> str:
        return (
            f"{self.streams} streams x {self.queries_per_stream} queries ="
            f" {self.total_queries} in {self.elapsed:.2f}s"
            f" -> {self.throughput:.0f} q/s"
        )


def concurrent_read_test(
    graph: SocialGraph,
    params: ParameterGenerator,
    streams: int = DEFAULT_STREAMS,
    queries_per_stream: int = 25,
    workers: int | None = None,
    timeout: float | None = None,
    snapshot: SnapshotConfig = SnapshotConfig(),
) -> ConcurrentTestResult:
    """The multi-stream read throughput test (CP-6, "Parallelism and
    Concurrency"): ``streams`` concurrent clients each run a de-phased
    rotation of BI reads against the same read-only snapshot.

    Runs on the :mod:`repro.exec` process pool over the fork-shared
    snapshot (``workers`` defaults to one process per stream); each
    stream is one task, so per-stream deadlines, retry-once and crash
    recovery all apply.  Engine operator counters accumulate in each
    worker process and merge into :attr:`ConcurrentTestResult.operator_counters`.

    ``snapshot`` configures the read phase like :func:`power_test`'s:
    ``freeze`` defaults on (a pure read phase over an immutable snapshot
    is exactly what the frozen layout is for), and the mapped providers
    serve every stream's columns from one shared buffer instead of
    fork-inherited pages.
    """
    if streams <= 0 or queries_per_stream <= 0:
        raise ValueError("streams and queries_per_stream must be positive")
    read_graph = freeze(graph) if snapshot.freeze else graph
    bindings = {n: params.bi(n, count=3) for n in sorted(ALL_QUERIES)}
    handle = provide_snapshot(
        read_graph, context={"bindings": bindings}, config=snapshot
    )
    try:
        pool = WorkerPool(
            workers=streams if workers is None else workers,
            timeout=timeout,
            snapshot=handle,
        )
        with span("concurrent_read_test", kind="phase", streams=streams,
                  queries_per_stream=queries_per_stream):
            merged = pool.run(
                Task(index, "stream", (index, queries_per_stream))
                for index in range(streams)
            )
    finally:
        handle.close()
    for outcome in merged.outcomes:
        registry().histogram("repro_stream_seconds").observe(outcome.duration)
    if not merged.failures:
        executed = sum(outcome.value for outcome in merged.outcomes)
        assert executed == streams * queries_per_stream
    return ConcurrentTestResult(
        streams=streams,
        queries_per_stream=queries_per_stream,
        elapsed=merged.elapsed,
        operator_counters=merged.counters,
        exec_stats=merged.stats_dict(),
    )


def throughput_test(
    graph: SocialGraph,
    params: ParameterGenerator,
    batches: list[Microbatch],
    reads_per_batch: int = 5,
    workers: int = 1,
    timeout: float | None = None,
    snapshot: SnapshotConfig = SnapshotConfig(),
) -> ThroughputTestResult:
    """Alternate write microbatches with blocks of BI reads.

    ``reads_per_batch`` BI queries (rotating through BI 1-25 with
    rotating curated bindings) run after each batch, emulating the
    refresh-then-analyse loop of the paper's throughput test.

    Writes always apply serially in the calling process (they mutate
    the live graph); each read block then runs through a fresh
    :mod:`repro.exec` pool — inline for ``workers=1``, otherwise process
    workers forked after the block's writes, so every worker reads the
    post-write view.  ``timeout`` is therefore a hard per-read deadline
    at ``workers > 1`` (worker killed, read retried once, then
    recorded) and a soft one at ``workers=1``.  Under the ``spawn``
    start method each block ships its view by value — correct but slow;
    on spawn-only platforms keep ``workers=1``.  Reads invalidated by
    deletes count as operations with a ``-1`` row marker, exactly as in
    a serial run.

    ``snapshot.freeze`` (default on, like :func:`power_test`): the live
    store stays the write path, and each read block runs against the
    :class:`~repro.graph.frozen.FreezeManager`'s merge-on-read view —
    one initial freeze, then a delta-overlaid snapshot that absorbs
    each microbatch's writes, with a threshold-triggered compaction
    refreeze once the overlay outgrows ``snapshot.compact_fraction`` of
    the base snapshot (:mod:`repro.graph.delta`; default 0.25).  No
    per-microbatch refreezes:
    overlay maintenance and any compactions are part of the measured
    run, exactly like an incremental index refresh would be.  Pass
    ``compact_fraction=0.0`` to restore the old refreeze-every-batch
    behaviour (the benchmark baseline).
    """
    manager = (
        FreezeManager(graph, compact_fraction=snapshot.compact_fraction)
        if snapshot.freeze
        else None
    )
    batch_seconds: list[float] = []
    read_seconds: list[float] = []
    operations = 0
    read_cursor = 0
    numbers = sorted(ALL_QUERIES)
    bindings = {n: params.bi(n, count=3) for n in numbers}
    exec_stats: dict = {}

    metrics = registry()
    started = time.perf_counter()
    try:
        with span("throughput_test", kind="phase", microbatches=len(batches),
                  reads_per_batch=reads_per_batch):
            for batch_index, batch in enumerate(batches):
                with span(f"batch[{batch_index}]", kind="operation",
                          writes=batch.size):
                    write_start = time.perf_counter()
                    for write in (*batch.inserts, *batch.deletes):
                        apply_write(graph, write)
                    batch_seconds.append(time.perf_counter() - write_start)
                    metrics.histogram("repro_batch_write_seconds").observe(
                        batch_seconds[-1]
                    )
                    operations += batch.size

                    tasks = []
                    for _ in range(reads_per_batch):
                        number = numbers[read_cursor % len(numbers)]
                        binding = bindings[number][
                            read_cursor % len(bindings[number])
                        ]
                        tasks.append(
                            Task(
                                len(tasks),
                                "bi_throughput",
                                (number, tuple(binding)),
                            )
                        )
                        read_cursor += 1
                    read_graph = graph if manager is None else manager.frozen()
                    # Always inline: the view changes every block, so a
                    # mapped provider would re-serialize it per block;
                    # forked workers inherit it for free.
                    pool = WorkerPool(
                        workers=workers,
                        timeout=timeout,
                        snapshot=InlineSnapshot(read_graph),
                    )
                    block = pool.run(tasks)
                    read_seconds.append(block.elapsed)
                    metrics.histogram("repro_read_block_seconds").observe(
                        block.elapsed
                    )
                    operations += len(tasks)
                    accumulate_exec_stats(exec_stats, block.stats_dict())
    finally:
        if manager is not None:
            manager.detach()
    return ThroughputTestResult(
        batch_seconds=batch_seconds,
        read_seconds=read_seconds,
        operations=operations,
        elapsed=time.perf_counter() - started,
        exec_stats=exec_stats,
    )
