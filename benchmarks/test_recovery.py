"""Experiment FREC — durability & recovery timing (spec §6.3).

The auditor "will measure the time taken by the system to recover from
the failure" after a crash near the end of a run, with checkpoints at
bounded intervals.  This bench runs writes through the WAL'd SUT,
crashes it, and measures recovery (checkpoint load + WAL tail replay),
asserting the recovered state contains the last committed update.
"""

from __future__ import annotations

import time

from repro.datagen.delete_streams import build_delete_streams
from repro.datagen.update_streams import build_update_streams
from repro.driver.recovery import DurableSut, recover
from repro.graph.store import SocialGraph


def _writes(base_net, count=800):
    updates = build_update_streams(base_net)[:count]
    horizon = updates[-1].timestamp if updates else 0
    deletes = [
        op for op in build_delete_streams(base_net) if op.timestamp <= horizon
    ]
    return sorted(updates + deletes, key=lambda op: op.timestamp)


def test_recovery_after_crash(base_net, tmp_path):
    writes = _writes(base_net)
    sut = DurableSut(
        SocialGraph.from_data(base_net, until=base_net.cutoff),
        tmp_path,
        checkpoint_every=300,
    )
    write_start = time.perf_counter()
    for op in writes:
        sut.apply(op)
    write_seconds = time.perf_counter() - write_start
    committed = sut.committed_writes
    sut.crash()

    recover_start = time.perf_counter()
    recovered, recovered_writes = recover(tmp_path)
    recover_seconds = time.perf_counter() - recover_start
    print(
        f"\n{committed} durable writes in {write_seconds:.2f}s"
        f" ({committed / write_seconds:.0f} writes/s with WAL+checkpoints);"
        f" recovery in {recover_seconds:.3f}s"
    )
    assert recovered_writes == committed
    assert recovered.node_count() > 0


def test_benchmark_recovery(benchmark, base_net, tmp_path_factory):
    writes = _writes(base_net, count=500)

    def crash_and_recover():
        directory = tmp_path_factory.mktemp("durable")
        sut = DurableSut(
            SocialGraph.from_data(base_net, until=base_net.cutoff),
            directory,
            checkpoint_every=200,
        )
        for op in writes:
            sut.apply(op)
        sut.crash()
        return recover(directory)

    graph, recovered_writes = benchmark.pedantic(
        crash_and_recover, rounds=3, iterations=1
    )
    assert recovered_writes == len(writes)


def test_durable_write_overhead(base_net, tmp_path):
    """WAL + checkpointing costs a bounded multiple of raw application."""
    writes = _writes(base_net, count=500)

    raw_graph = SocialGraph.from_data(base_net, until=base_net.cutoff)
    from repro.driver.transactions import apply_write

    start = time.perf_counter()
    for op in writes:
        apply_write(raw_graph, op)
    raw_seconds = time.perf_counter() - start

    sut = DurableSut(
        SocialGraph.from_data(base_net, until=base_net.cutoff),
        tmp_path,
        checkpoint_every=10 ** 9,  # isolate the WAL cost
    )
    start = time.perf_counter()
    for op in writes:
        sut.apply(op)
    durable_seconds = time.perf_counter() - start
    sut.close()
    print(
        f"\nraw apply {1e3 * raw_seconds:.1f} ms vs WAL'd"
        f" {1e3 * durable_seconds:.1f} ms"
        f" ({durable_seconds / raw_seconds:.1f}x)"
    )
    assert durable_seconds < 200 * max(raw_seconds, 1e-4)
