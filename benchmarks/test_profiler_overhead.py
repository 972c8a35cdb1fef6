"""Experiment PROF — sampling-profiler overhead on the BI power smoke.

The profiler's design budget is < 5% wall-clock overhead at the default
97 Hz: sampling happens on one background thread via
``sys._current_frames()`` — no ``setprofile``/``settrace`` hooks, so
the benchmarked code runs unmodified and the only costs are the
sampler's own CPU slices and the GIL it briefly holds per tick.  This
experiment measures it directly: alternating unprofiled / profiled
power-test passes, overhead asserted under the budget.
"""

from __future__ import annotations

import time

from repro.driver.bi_driver import power_test
from repro.obs import disable_profiling, enable_profiling

PROFILE_HZ = 97.0
ROUNDS = 7
OVERHEAD_BUDGET = 0.05


def test_profiler_overhead_under_budget(base_graph, base_params):
    disable_profiling()

    def once():
        start = time.perf_counter()
        power_test(base_graph, base_params, 1.0, workers=1)
        return time.perf_counter() - start

    once()  # warm-up: caches and lazy imports paid before either mode

    plain: list[float] = []
    profiled: list[float] = []
    samples = 0
    try:
        for _ in range(ROUNDS):
            disable_profiling()
            plain.append(once())
            prof = enable_profiling(PROFILE_HZ)
            profiled.append(once())
            samples += prof.snapshot()["samples"]
            disable_profiling()
    finally:
        disable_profiling()

    plain_median = sorted(plain)[ROUNDS // 2]
    profiled_median = sorted(profiled)[ROUNDS // 2]
    # Best-vs-best for the budget assertion: minima are the established
    # noise-robust estimator for "how fast can this go" — scheduler and
    # cache interference only ever add time, and on a small host that
    # noise (±5-10% between passes) would swamp the sub-1% true
    # overhead if medians were compared.  Medians are still printed.
    overhead = max(0.0, min(profiled) / min(plain) - 1.0)
    print(
        f"\npower smoke unprofiled {1000 * plain_median:.1f} ms,"
        f" profiled@{PROFILE_HZ:g}Hz {1000 * profiled_median:.1f} ms"
        f" (best-vs-best +{100 * overhead:.1f}%, {samples} samples)"
    )
    assert samples > 0, "profiler took no samples during profiled rounds"
    assert overhead < OVERHEAD_BUDGET, (
        f"profiling overhead {100 * overhead:.1f}% exceeds the"
        f" {100 * OVERHEAD_BUDGET:.0f}% budget"
    )
