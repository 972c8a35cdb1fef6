"""Experiment MORSEL — morsel-driven parallel scans over a shared
snapshot.

One heavy BI query (the BI 1 posting summary and the BI 18 histogram —
both whole-history message scans) is split into fixed-size slab morsels
dispatched across the process pool, with the columns served zero-copy
from a mapped snapshot instead of fork-duplicated object pages.  Rows
must be identical to the serial query at every morsel size; the
speedup claim only binds where real cores exist.
"""

from __future__ import annotations

import os
import statistics
import time

from repro.driver.bi_driver import run_morselized
from repro.exec import SnapshotConfig, WorkerPool, provide_snapshot
from repro.graph.frozen import freeze
from repro.params.curation import ParameterGenerator
from repro.queries.bi import ALL_QUERIES
from repro.queries.bi.morsels import MORSEL_PLANS

_ROUNDS = 5
_MORSEL_SIZE = 2048


def _median_seconds(fn, rounds=_ROUNDS):
    samples = []
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def test_morsel_scan_matches_serial_and_speeds_up(base_net):
    from repro.graph.store import SocialGraph

    graph = SocialGraph.from_data(base_net, until=base_net.cutoff)
    frozen = freeze(graph)
    params = ParameterGenerator(graph, base_net.config)
    workers = min(4, os.cpu_count() or 1)

    handle = provide_snapshot(
        frozen, config=SnapshotConfig(provider="mmap_file")
    )
    try:
        pool = WorkerPool(workers=workers, snapshot=handle)
        for number in sorted(MORSEL_PLANS):
            query = ALL_QUERIES[number][0]
            binding = tuple(params.bi(number, count=1)[0])
            serial_rows = query(frozen, *binding)
            morsel_rows = run_morselized(
                frozen, number, binding, pool, morsel_size=_MORSEL_SIZE
            )
            assert morsel_rows == serial_rows, f"bi{number}"

            serial_s = _median_seconds(lambda: query(frozen, *binding))
            morsel_s = _median_seconds(
                lambda: run_morselized(
                    frozen, number, binding, pool,
                    morsel_size=_MORSEL_SIZE,
                )
            )
            speedup = serial_s / morsel_s if morsel_s else float("inf")
            print(
                f"\nBI {number}: serial {1000 * serial_s:.2f} ms,"
                f" morselized {1000 * morsel_s:.2f} ms"
                f" ({speedup:.2f}x, {workers} workers,"
                f" {os.cpu_count()} cpus)"
            )
            # Dispatch overhead dominates at micro scale on small
            # hosts; the speedup claim binds only with real cores.
            if (os.cpu_count() or 1) >= 4:
                assert speedup > 1.0, f"bi{number}"
    finally:
        handle.close()


def test_mapped_power_test_matches_inline(base_net):
    """The whole power test over a mapped snapshot with morsels on is
    row- and counter-identical to the serial inline baseline."""
    from repro.driver.bi_driver import power_test
    from repro.graph.store import SocialGraph

    graph = SocialGraph.from_data(base_net, until=base_net.cutoff)
    params = ParameterGenerator(graph, base_net.config)
    serial = power_test(graph, params, 0.1, workers=1)
    mapped = power_test(
        graph, params, 0.1, workers=min(4, os.cpu_count() or 1) or 2,
        snapshot=SnapshotConfig(provider="mmap_file", morsel_size=_MORSEL_SIZE),
    )
    assert mapped.operator_stats == serial.operator_stats
