"""The ledger's metric and workload dictionary.

``BENCHMARK.json`` at the repository root is generated from this module
and the workload table of ``bench/workloads.py`` (``python
bench/metrics.py`` prints it; ``bench/test_ledger.py`` checks the two
agree).  Every value a run reports is the median of its samples.  Three
groups of metrics:

* :data:`END_TO_END` — measured with tracing off and defined on *every*
  workload, because the benchmark contract reports each end-to-end
  metric for each workload.  These carry the regression bounds the
  driver enforces.
* :data:`SPECIFIC` — end-to-end metrics only some workloads can produce
  (a read-block percentile needs read blocks).  The ledger prints and
  tracks them, and ``bench/compare.py`` judges them with the bounds
  here, but they cannot go into ``BENCHMARK.json``.
* :data:`PER_LAYER` — from the traced run; layer = ``repro`` module.
  ``moves`` names the (end-to-end metric, workload) pairs a change to
  that layer should move; every other pairing predicts "no change".
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field

#: Timed seconds of one run (``--seconds``).  The contract's cap is 92
#: runs inside 3 420 s, preparation and correctness gate included.
RUN_SECONDS = 20

#: In place of workload names: every workload.
EVERY = ("*",)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    definition: str
    #: Share of the parent's median by which the metric may worsen.
    bound: float | None = None
    #: The workloads (of ``bench/workloads.py``) that produce it.
    workloads: tuple[str, ...] = EVERY
    #: Per-layer only: (end-to-end metric, workload) pairs it should move.
    moves: tuple[tuple[str, str], ...] = field(default=())

    def on(self, workload: str) -> bool:
        return self.workloads == EVERY or workload in self.workloads


def _on(metric: str, *workloads: str) -> tuple[tuple[str, str], ...]:
    return tuple((metric, workload) for workload in workloads or EVERY)


END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower",
           "wall time of the run's untimed preparation: generate, stream "
           "building, initial load, curation, freeze",
           bound=0.25),
    Metric("peak_rss_mb", "MiB", "lower",
           "ru_maxrss of the benchmark process plus that of its largest "
           "child (pool workers, the restart interpreter)",
           bound=0.10),
    Metric("round_s", "s", "lower",
           "median wall time of one round of the timed section: one "
           "power_test call (power, pool), one throughput_test call "
           "(refresh), one load-to-recovered iteration (restart)",
           bound=0.25),
    Metric("ops_s", "ops/s", "higher",
           "operations / round wall, median over rounds; operations "
           "are 75 query executions (power, pool), writes + reads "
           "(refresh), 25 cold queries + 1000 durable writes (restart)",
           bound=0.25),
    Metric("geomean_ms", "ms", "lower",
           "geometric mean over the workload's operation kinds of the "
           "per-kind median latency: BI 1-25 (power, pool: power@SF = "
           "3600*SF/this), {write batch, read block} (refresh), {load, "
           "snapshot write, cold attach, recover} (restart)",
           bound=0.25),
    Metric("total_ms", "ms", "lower",
           "sum of those per-kind medians (power: dominated by the six "
           "heaviest queries; restart: bytes to a recovered store)",
           bound=0.25),
)

SPECIFIC: tuple[Metric, ...] = (
    Metric("load_s", "s", "lower",
           "from_data + ParameterGenerator + 25x3 bindings + freeze: data "
           "in memory to a snapshot ready to serve, once per iteration "
           "(elsewhere it happens once, inside setup_s)",
           bound=0.25, workloads=("restart",)),
    Metric("write_ops_s", "ops/s", "higher",
           "writes applied / sum of batch_seconds, median over passes",
           bound=0.25, workloads=("refresh",)),
    Metric("read_block_p50_ms", "ms", "lower",
           "median of read_seconds over every read block of every pass",
           bound=0.25, workloads=("refresh",)),
    Metric("read_block_p90_ms", "ms", "lower",
           "p90 of the same samples: overlay growth, compaction stalls",
           bound=0.25, workloads=("refresh",)),
    Metric("snapshot_write_s", "s", "lower",
           "MmapFileSnapshot construction: write_snapshot to a file, "
           "flush, map it back",
           bound=0.25, workloads=("restart",)),
    Metric("cold_attach_s", "s", "lower",
           "parent clock from Process.start() (spawn) to receipt of "
           "BI 1's row digest from the child",
           bound=0.25, workloads=("restart",)),
    Metric("recover_s", "s", "lower",
           "recover(dir) after crash() with 1000 committed writes past "
           "the checkpoint",
           bound=0.25, workloads=("restart",)),
    Metric("snapfile_mb", "MiB", "lower",
           "size of the written snapfile (exact for a seed)",
           bound=0.10, workloads=("restart",)),
)


def _layer(name: str, unit: str, better: str, definition: str,
           moves: tuple[tuple[str, str], ...]) -> Metric:
    return Metric(name, unit, better, definition, moves=moves)


_QUERY_MOVES = _on("geomean_ms", "power") + _on("total_ms", "power")
_REFRESH_READS = _on("read_block_p50_ms", "refresh")
_ENGINE = _on("total_ms", "power")
_POOL = _on("round_s", "pool")
_ATTACH = _on("cold_attach_s", "restart")
_RECOVER = _on("recover_s", "restart")
_LOAD = _on("load_s", "restart") + _on("setup_s")
_FREEZE = _LOAD + _on("round_s", "power", "pool")

PER_LAYER: tuple[Metric, ...] = (
    # datagen -> setup_s everywhere
    _layer("datagen.generate_s", "s", "lower",
           "generate(DatagenConfig(num_persons, seed))", _on("setup_s")),
    _layer("datagen.persons_s", "s", "lower",
           "generate_persons inside generate", _on("setup_s")),
    _layer("datagen.knows_s", "s", "lower",
           "generate_knows inside generate", _on("setup_s")),
    _layer("datagen.activity_s", "s", "lower",
           "generate_activity inside generate", _on("setup_s")),
    _layer("datagen.update_streams_s", "s", "lower",
           "build_update_streams(net)", _on("setup_s", "refresh", "restart")),
    _layer("datagen.delete_streams_s", "s", "lower",
           "build_delete_streams(net)", _on("setup_s", "refresh")),
    _layer("datagen.nodes", "count", "lower",
           "net.node_count(), exact for a seed", _on("setup_s")),
    _layer("datagen.edges", "count", "lower",
           "net.edge_count(), exact for a seed", _on("setup_s")),
    # graph.store
    _layer("graph.store.load_s", "s", "lower",
           "SocialGraph.from_data(net, until=cutoff)", _LOAD),
    _layer("graph.store.load_rows_s", "rows/s", "higher",
           "dynamic rows loaded / load_s", _LOAD),
    _layer("graph.store.insert_us_p50", "us", "lower",
           "median ALL_UPDATES[n] call during a refresh pass",
           _on("write_ops_s", "refresh")),
    _layer("graph.store.delete_us_p50", "us", "lower",
           "median ALL_DELETES[n] call during a refresh pass",
           _on("write_ops_s", "refresh")),
    _layer("graph.store.delete_ms_max", "ms", "lower",
           "slowest cascading delete of a refresh pass",
           _on("write_ops_s", "refresh")),
    _layer("graph.store.live_pass_ms", "ms", "lower",
           "one 25-query pass on the unfrozen store (also the "
           "correctness pass); guards the parked Interactive driver",
           _REFRESH_READS),
    # params
    _layer("params.curate_s", "s", "lower",
           "ParameterGenerator(graph, config) + 25x3 bindings",
           _LOAD + _on("round_s", "power", "pool")),
    # graph.frozen
    _layer("graph.frozen.freeze_s", "s", "lower", "freeze(graph)", _FREEZE),
    _layer("graph.frozen.bytes", "bytes", "lower",
           "sum of FrozenGraph.footprint()", _FREEZE),
    _layer("graph.frozen.manager_frozen_us_p50", "us", "lower",
           "median FreezeManager.frozen() call of a refresh pass",
           _REFRESH_READS),
    _layer("graph.frozen.freezes", "count", "lower",
           "repro_frozen_freezes_total over one refresh pass",
           _REFRESH_READS),
    _layer("graph.frozen.path_frozen_hit", "count", "higher",
           "reads of a refresh pass served by a clean snapshot",
           _REFRESH_READS),
    _layer("graph.frozen.path_overlay_merge", "count", "higher",
           "reads of a refresh pass served by merge-on-read",
           _REFRESH_READS),
    _layer("graph.frozen.path_live_fallback", "count", "lower",
           "reads of a refresh pass that fell back to the live store",
           _REFRESH_READS),
    # graph.delta -> refresh only; zero on the other workloads' own rounds
    _layer("graph.delta.rows_peak", "count", "lower",
           "largest overlay.total_rows() seen at a read block",
           _on("read_block_p90_ms", "refresh") + _on("write_ops_s", "refresh")),
    _layer("graph.delta.tombstones_peak", "count", "lower",
           "largest summed tombstone count seen at a read block",
           _on("read_block_p90_ms", "refresh") + _on("write_ops_s", "refresh")),
    _layer("graph.delta.compactions", "count", "lower",
           "repro_delta_compactions_total over one refresh pass",
           _on("read_block_p90_ms", "refresh") + _on("write_ops_s", "refresh")),
    _layer("graph.delta.compact_ms_total", "ms", "lower",
           "time inside FreezeManager.compact over one refresh pass",
           _on("read_block_p90_ms", "refresh") + _on("write_ops_s", "refresh")),
    # graph.snapfile
    _layer("graph.snapfile.write_s", "s", "lower",
           "snapfile.write_snapshot inside provider construction",
           _on("snapshot_write_s", "restart") + _POOL),
    _layer("graph.snapfile.bytes", "bytes", "lower",
           "size of the snapshot file", _on("snapfile_mb", "restart") + _POOL),
    _layer("graph.snapfile.entities_bytes", "bytes", "lower",
           "size of its __entities__ section",
           _on("snapfile_mb", "restart") + _POOL),
    _layer("graph.snapfile.open_attach_ms", "ms", "lower",
           "snapfile.open_snapshot in the spawned child", _ATTACH),
    _layer("graph.snapfile.rebuild_store_s", "s", "lower",
           "snapfile.rebuild_store in the spawned child", _ATTACH),
    # exec.snapshot
    _layer("exec.snapshot.provide_s", "s", "lower",
           "provide_snapshot inside a pool power pass", _POOL),
    _layer("exec.snapshot.ship_bytes", "bytes", "lower",
           "pickled size of the token ship() sends", _POOL + _ATTACH),
    _layer("exec.snapshot.bytes_mapped", "bytes", "lower",
           "bytes the provider maps", _POOL),
    _layer("exec.snapshot.fallbacks", "count", "lower",
           "repro_snapshot_fallback_total over one pool pass", _POOL),
    _layer("exec.snapshot.materialize_s", "s", "lower",
           "ShippedSnapshot.materialize() in the spawned child", _ATTACH),
    _layer("exec.snapshot.leaked_files", "count", "lower",
           "snapshot files or shm segments left after the run; must be 0",
           _POOL + _on("snapshot_write_s", "restart")),
    # exec.pool -> pool only
    _layer("exec.pool.run_s", "s", "lower",
           "WorkerPool.run inside a pool power pass", _POOL),
    _layer("exec.pool.task_busy_s", "s", "lower",
           "sum of task durations on the workers' own clocks", _POOL),
    _layer("exec.pool.overhead_s", "s", "lower",
           "run_s - task_busy_s / workers", _POOL),
    _layer("exec.pool.tasks", "count", "lower", "tasks per pass", _POOL),
    _layer("exec.pool.morsel_tasks", "count", "lower",
           "bi_morsel tasks per pass", _POOL),
    _layer("exec.pool.retries", "count", "lower", "task retries", _POOL),
    _layer("exec.pool.timeouts", "count", "lower", "task timeouts", _POOL),
    _layer("exec.pool.crashes", "count", "lower", "worker crashes", _POOL),
    _layer("exec.pool.efficiency", "ratio", "higher",
           "task_busy_s / (workers * run_s)", _POOL),
    _layer("exec.pool.speedup_vs_serial", "x", "higher",
           "serial power pass wall / pool power pass wall", _POOL),
    # engine: counters of one serial pass, then kernels on fixed inputs
    *(
        _layer(f"engine.{name}", "count", "lower",
               f"summed operator_stats['{name}'] of one serial pass", _ENGINE)
        for name in (
            "rows_scanned", "index_scans", "full_scans", "edges_expanded",
            "groups_created", "heap_inserts", "heap_rejections",
            "heap_evictions",
        )
    ),
    _layer("engine.rows_scanned_per_result_row", "ratio", "lower",
           "rows_scanned / result rows of the same pass", _ENGINE),
    _layer("engine.scan_messages.frozen_rows_s", "rows/s", "higher",
           "scan_messages over the middle half of the simulation, drained, "
           "on the frozen snapshot", _ENGINE),
    _layer("engine.scan_messages.overlay_rows_s", "rows/s", "higher",
           "the same scan through the overlay after half the stream",
           _REFRESH_READS),
    _layer("engine.scan_messages.live_rows_s", "rows/s", "higher",
           "the same scan on the live store", _REFRESH_READS),
    _layer("engine.expand.frozen_edges_s", "edges/s", "higher",
           "expand(all persons, frozen.friends_of), drained", _ENGINE),
    _layer("engine.expand.live_edges_s", "edges/s", "higher",
           "expand(all persons, graph.friends_of), drained", _REFRESH_READS),
    _layer("engine.group_count.keys_s", "keys/s", "higher",
           "group_count over every message's creator id", _ENGINE),
    _layer("engine.top_k.rows_s", "rows/s", "higher",
           "top_k(100) fed every message", _ENGINE),
    # queries.bi
    *(
        _layer(f"queries.bi.q{number:02d}.p50_ms", "ms", "lower",
               f"median PowerTestResult.runtimes[{number}] over serial passes",
               _QUERY_MOVES)
        for number in range(1, 26)
    ),
    _layer("queries.bi.heavy6_share", "ratio", "lower",
           "share of the six largest per-query medians in their sum",
           _on("total_ms", "power")),
    _layer("queries.bi.result_rows", "count", "lower",
           "rows returned by one serial pass, exact for a seed",
           _on("total_ms", "power")),
    _layer("queries.bi.morsels.merge_ms", "ms", "lower",
           "time inside MorselPlan.merge over one pool pass", _POOL),
    # driver.bi_driver
    _layer("driver.bi_driver.power_overhead_ms", "ms", "lower",
           "serial pass wall - freeze - bindings - sum of task durations",
           _on("round_s", "power")),
    _layer("driver.bi_driver.write_s", "s", "lower",
           "sum of batch_seconds of one refresh pass", _on("ops_s", "refresh")),
    _layer("driver.bi_driver.read_s", "s", "lower",
           "sum of read_seconds of one refresh pass", _on("ops_s", "refresh")),
    _layer("driver.bi_driver.read_block_overhead_ms", "ms", "lower",
           "median read block elapsed - sum of its task durations",
           _on("ops_s", "refresh")),
    _layer("driver.bi_driver.invalidated_reads", "count", "lower",
           "reads of one refresh pass answered -1 after a delete; "
           "exact for a seed", _on("ops_s", "refresh")),
    # driver.recovery
    _layer("driver.recovery.checkpoint_s", "s", "lower",
           "DurableSut construction: the initial pickle checkpoint", _RECOVER),
    _layer("driver.recovery.checkpoint_bytes", "bytes", "lower",
           "size of checkpoint.pickle", _RECOVER),
    _layer("driver.recovery.durable_write_us_p50", "us", "lower",
           "median DurableSut.apply of the 1000 WAL-logged writes", _RECOVER),
    _layer("driver.recovery.wal_bytes_per_write", "bytes", "lower",
           "size of wal.log / writes", _RECOVER),
    _layer("driver.recovery.replayed_writes", "count", "lower",
           "writes recover() reports, must equal the writes committed",
           _RECOVER),
    # process: child-side stamps of the restart interpreter
    _layer("process.spawn_ms", "ms", "lower",
           "Process.start() to the child's entry point", _ATTACH),
    _layer("process.import_ms", "ms", "lower",
           "importing repro in the child", _ATTACH),
    _layer("process.first_query_ms", "ms", "lower",
           "BI 1 on the freshly attached graph", _ATTACH),
    _layer("process.first_pass_ms", "ms", "lower",
           "BI 1-25 on the freshly attached graph",
           _on("round_s", "restart")),
    # obs: properties of the measurement itself, per workload run
    _layer("obs.trace_overhead_pct", "%", "lower",
           "traced vs untraced median round wall of the run's workload",
           _on("round_s")),
    _layer("obs.unattributed_pct", "%", "lower",
           "share of the run's timed section inside no layer span; the "
           "ledger fails above 10", _on("round_s")),
)


def benchmark_json(workloads: dict) -> dict:
    """The contract document the driver reads; ``workloads`` is the
    table of ``bench/workloads.py``."""
    return {
        "command": ["python3", "bench/ledger.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": workload.why}
            for name, workload in workloads.items()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:1] = [root, os.path.join(root, "src")]
    from bench.workloads import WORKLOADS

    print(json.dumps(benchmark_json(WORKLOADS), indent=2))
