"""Experiment FTHR — driver throughput and the §6.2 validity rule.

Measures workload throughput (ops/s at TCR 0, i.e. as fast as the SUT
allows) and verifies that a paced run (positive TCR) meets the auditing
rule: 95 % of operations start within 1 second of schedule.  The
driver replays serially; the parallel-executor tests check the BI
read paths' deterministic-merge guarantee (a ``workers=4`` run produces
results identical to serial) and — on machines with enough cores — the
speedup the process pool is for.
"""

from __future__ import annotations

import os

from repro.core.api import SocialNetworkBenchmark
from repro.datagen.update_streams import build_update_streams
from repro.driver.bi_driver import concurrent_read_test, power_test
from repro.driver.mix import frequencies_for_scale_factor
from repro.driver.runner import Driver
from repro.driver.scheduler import Scheduler
from repro.graph.store import SocialGraph
from repro.params.curation import ParameterGenerator


def _build(base_net, max_updates=None):
    graph = SocialGraph.from_data(base_net, until=base_net.cutoff)
    params = ParameterGenerator(graph, base_net.config)
    updates = build_update_streams(base_net)
    if max_updates:
        updates = updates[:max_updates]
    parameters = {n: params.interactive(n, count=5) for n in range(1, 15)}
    schedule = Scheduler(
        updates, frequencies_for_scale_factor(1.0), parameters
    ).build()
    return graph, schedule


def test_benchmark_full_workload(benchmark, base_net):
    def run():
        graph, schedule = _build(base_net, max_updates=600)
        return Driver(graph, time_compression_ratio=0.0, seed=3).run(schedule)

    report = benchmark.pedantic(run, rounds=3, iterations=1)
    print(f"\n{report.format_table()}")
    assert report.total_operations > 600


def test_throughput_reported(base_net):
    graph, schedule = _build(base_net, max_updates=600)
    report = Driver(graph, time_compression_ratio=0.0, seed=3).run(schedule)
    print(f"\nthroughput: {report.throughput:.0f} ops/s")
    assert report.throughput > 100


def test_on_time_rule_under_pacing(base_net):
    """With a TCR that leaves headroom, the run must be valid (>=95 %
    of operations within 1 s of schedule)."""
    graph, schedule = _build(base_net, max_updates=60)
    sim_span_ms = schedule[-1].due - schedule[0].due
    tcr = 100.0 / max(sim_span_ms, 1)  # compress to ~100 ms of wall time
    report = Driver(graph, time_compression_ratio=tcr, seed=3).run(schedule)
    print(f"\non-time fraction: {report.on_time_fraction():.3f}")
    assert report.is_valid_run


def test_facade_driver_smoke(base_net):
    bench = SocialNetworkBenchmark(base_net)
    report = bench.run_driver(max_updates=150)
    assert report.total_operations >= 150


def test_parallel_read_throughput_scales(base_graph, base_params):
    """The process pool's q/s: identical merged counters always; the
    >=2x speedup claim only holds where 4 real cores exist."""
    serial = concurrent_read_test(
        base_graph, base_params, streams=4, queries_per_stream=12, workers=1
    )
    parallel = concurrent_read_test(
        base_graph, base_params, streams=4, queries_per_stream=12, workers=4
    )
    assert parallel.operator_counters == serial.operator_counters
    assert parallel.total_queries == serial.total_queries
    speedup = parallel.throughput / serial.throughput
    print(
        f"\nserial {serial.throughput:.0f} q/s, parallel"
        f" {parallel.throughput:.0f} q/s ({speedup:.2f}x,"
        f" {os.cpu_count()} cpus)"
    )
    if (os.cpu_count() or 1) >= 4:
        assert speedup >= 2.0


def test_parallel_power_test_is_deterministic(base_graph, base_params):
    serial = power_test(base_graph, base_params, 1.0, workers=1)
    parallel = power_test(base_graph, base_params, 1.0, workers=4)
    assert parallel.operator_stats == serial.operator_stats
    assert parallel.exec_stats["failures"] == 0
