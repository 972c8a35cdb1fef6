"""Experiment FROZ — the columnar frozen snapshot vs the live store.

Two claims:

* the reply-expand-heavy BI 18 (every Comment resolved to its root Post
  through the reply chain, then language-filtered and aggregated) runs
  at least 2x faster on a :class:`FrozenGraph` — the root-ordinal and
  dictionary-encoded language columns replace per-row chain walks;
* a full power-test pass over BI 1-25 does the same per-operator work
  frozen as live (the differential suite proves the rows identical
  exhaustively); both elapsed times are printed — at this scale the
  one-off freeze cost is comparable to the whole pass, so aggregate
  time is not asserted.
"""

from __future__ import annotations

import time

from repro.driver.bi_driver import power_test
from repro.exec.snapshot import SnapshotConfig
from repro.graph.frozen import freeze
from repro.queries.bi import ALL_QUERIES


def _median_seconds(fn, rounds: int = 5) -> float:
    samples = sorted(fn() for _ in range(rounds))
    return samples[len(samples) // 2]


def test_frozen_expand_heavy_speedup(base_graph, base_params):
    """BI 18 frozen vs live: identical rows, >=2x faster frozen."""
    query = ALL_QUERIES[18][0]
    bindings = base_params.bi(18, count=2)
    frozen = freeze(base_graph)

    def run(graph):
        def once() -> float:
            start = time.perf_counter()
            for binding in bindings:
                query(graph, *binding)
            return time.perf_counter() - start

        return once

    for binding in bindings:
        assert query(frozen, *binding) == query(base_graph, *binding)
    live_median = _median_seconds(run(base_graph))
    frozen_median = _median_seconds(run(frozen))
    speedup = live_median / frozen_median
    print(
        f"\nBI 18 live {1000 * live_median:.2f} ms,"
        f" frozen {1000 * frozen_median:.2f} ms ({speedup:.2f}x)"
    )
    assert speedup >= 2.0


def test_frozen_power_test_smoke(base_graph, base_params):
    """A full BI 1-25 pass, frozen vs live: same per-query operator
    work (minus the two arrival-order-sensitive heap-churn counters)."""

    def run(freeze: bool):
        start = time.perf_counter()
        report = power_test(
            base_graph, base_params, 1.0, workers=1,
            snapshot=SnapshotConfig(freeze=freeze),
        )
        return report, time.perf_counter() - start

    live_report, live_elapsed = run(False)
    frozen_report, frozen_elapsed = run(True)

    def order_invariant(stats):
        return {
            number: {
                name: value
                for name, value in counter_map.items()
                if name not in ("heap_evictions", "heap_rejections")
            }
            for number, counter_map in stats.items()
        }

    assert order_invariant(frozen_report.operator_stats) == order_invariant(
        live_report.operator_stats
    )
    print(
        f"\npower test live {live_elapsed:.2f} s"
        f" (geomean {1000 * live_report.geometric_mean:.2f} ms),"
        f" frozen {frozen_elapsed:.2f} s"
        f" (geomean {1000 * frozen_report.geometric_mean:.2f} ms)"
    )
