"""Experiment DELT — the delta overlay vs refreeze-per-microbatch.

The update-heavy claim of the merge-on-read snapshot lifecycle: under
the BI throughput cadence (daily write microbatch, then a block of BI
reads), serving reads from a :class:`~repro.graph.delta.OverlaidGraph`
must beat rebuilding the frozen columns after every batch by at least
2x — while returning exactly the same rows.  The baseline is the same
:class:`~repro.graph.frozen.FreezeManager` pinned to
``compact_fraction=0.0``, which degenerates to the pre-delta
refreeze-on-any-write behaviour, so the two runs differ *only* in the
snapshot lifecycle.
"""

from __future__ import annotations

import math
import time

from repro.driver.bi_driver import build_microbatches
from repro.exec.snapshot import SnapshotConfig
from repro.graph.frozen import FreezeManager
from repro.graph.store import SocialGraph
from repro.params.curation import ParameterGenerator
from repro.queries.bi import ALL_QUERIES
from repro.queries.interactive.deletes import ALL_DELETES
from repro.queries.interactive.updates import ALL_UPDATES


def _apply_batch(graph, batch):
    for insert in batch.inserts:
        try:
            ALL_UPDATES[insert.operation_id][0](graph, insert.params)
        except (KeyError, ValueError):
            pass
    for delete in batch.deletes:
        ALL_DELETES[delete.operation_id][0](graph, delete.params)


def _run_mix(base_net, compact_fraction, reads_per_batch=6):
    """One update-heavy throughput pass: apply every daily microbatch,
    read a rotating BI mix from ``manager.frozen()`` after each, and
    collect every row so the two lifecycles can be diffed exactly."""
    graph = SocialGraph.from_data(base_net, until=base_net.cutoff)
    params = ParameterGenerator(graph, base_net.config)
    manager = FreezeManager(graph, compact_fraction=compact_fraction)
    numbers = sorted(ALL_QUERIES)
    bindings = {n: params.bi(n, count=2) for n in numbers}
    rows_log: list = []
    cursor = 0
    start = time.perf_counter()
    try:
        manager.frozen()  # the initial freeze, part of the measured run
        for batch in build_microbatches(base_net):
            _apply_batch(graph, batch)
            view = manager.frozen()
            for _ in range(reads_per_batch):
                number = numbers[cursor % len(numbers)]
                binding = bindings[number][cursor % len(bindings[number])]
                try:
                    rows_log.append(ALL_QUERIES[number][0](view, *binding))
                except KeyError:
                    rows_log.append(("invalidated", number))
                cursor += 1
    finally:
        manager.detach()
    elapsed = time.perf_counter() - start
    return rows_log, elapsed, manager


def test_delta_overlay_speedup(base_net):
    """Overlay lifecycle vs refreeze-per-microbatch: identical rows,
    >=2x faster end to end."""
    overlay_rows, overlay_elapsed, overlay_mgr = _run_mix(
        base_net, compact_fraction=math.inf
    )
    baseline_rows, baseline_elapsed, baseline_mgr = _run_mix(
        base_net, compact_fraction=0.0
    )
    assert overlay_rows == baseline_rows, (
        "the overlay merge view must return exactly the baseline's rows"
    )
    assert overlay_mgr.freezes == 1
    assert baseline_mgr.freezes > 1  # one refreeze per dirty batch
    speedup = baseline_elapsed / overlay_elapsed
    print(
        f"\noverlay {overlay_elapsed:.2f} s ({overlay_mgr.freezes} freezes),"
        f" refreeze-per-batch {baseline_elapsed:.2f} s"
        f" ({baseline_mgr.freezes} freezes) -> {speedup:.2f}x"
    )
    assert speedup >= 2.0


def test_default_threshold_compacts_but_stays_ahead(base_net):
    """At the default compaction threshold the lifecycle may fold the
    overlay back a few times, but never once per batch — the point of
    thresholding — and still returns the baseline's rows."""
    rows, elapsed, manager = _run_mix(
        base_net, compact_fraction=SnapshotConfig().compact_fraction
    )
    baseline_rows, _, _ = _run_mix(base_net, compact_fraction=math.inf)
    assert rows == baseline_rows
    batches = len(build_microbatches(base_net))
    assert manager.freezes - 1 == manager.compactions
    assert manager.freezes < batches / 2
    print(
        f"\ndefault threshold: {manager.freezes} freezes"
        f" ({manager.compactions} compactions) over {batches} batches"
        f" in {elapsed:.2f} s"
    )
