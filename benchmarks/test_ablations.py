"""Experiment FABL — ablations of the design choices in DESIGN.md.

1. Adjacency indexes on/off (CP-2.3 / CP-3.3): traversal queries must
   win big from per-relation adjacency; without it every hop is a
   relation scan.
2. Top-k pushdown vs full sort (CP-1.3): the bounded-heap accumulator
   vs materialize-and-sort on a representative ranking query.
3. Factor-table reuse: parameter curation with a prebuilt factor table
   vs recomputing it per query template.
"""

from __future__ import annotations

import gc
import time

from repro.graph.store import SocialGraph
from repro.params.curation import ParameterGenerator
from repro.params.factors import build_factor_tables
from repro.queries.bi import bi6, bi12
from repro.queries.interactive.complex import ic9
from repro.util.topk import TopK, sort_key


def test_benchmark_indexed_traversal(benchmark, base_graph, base_params):
    params = base_params.interactive(9, count=1)[0]
    benchmark.pedantic(ic9, args=(base_graph,) + params, rounds=5, iterations=1)


def test_benchmark_scan_traversal(benchmark, base_net, base_params):
    scan_graph = SocialGraph.from_data(
        base_net, until=base_net.cutoff, use_indexes=False
    )
    params = base_params.interactive(9, count=1)[0]
    benchmark.pedantic(
        ic9, args=(scan_graph,) + params, rounds=3, iterations=1
    )


def test_indexes_speed_up_traversals(base_net, base_params):
    indexed = SocialGraph.from_data(base_net, until=base_net.cutoff)
    scanning = SocialGraph.from_data(
        base_net, until=base_net.cutoff, use_indexes=False
    )
    params = base_params.interactive(9, count=1)[0]

    def timed(graph, repeat):
        gc.collect()  # keep a deferred collection out of the timed loop
        start = time.perf_counter()
        for _ in range(repeat):
            rows = ic9(graph, *params)
        return (time.perf_counter() - start) / repeat, rows

    fast, rows_fast = timed(indexed, 5)
    slow, rows_slow = timed(scanning, 1)
    print(f"\nIC 9 indexed {1e3 * fast:.2f} ms vs scans {1e3 * slow:.2f} ms"
          f" ({slow / fast:.0f}x)")
    assert rows_fast == rows_slow  # ablation must not change results
    assert slow > 3 * fast

    tag = base_params.tag_names(1)[0]
    fast_rows = bi6(indexed, tag)
    slow_rows = bi6(scanning, tag)
    assert fast_rows == slow_rows


def test_topk_pushdown_vs_full_sort(base_graph):
    """BI 12-shaped ranking over all messages: bounded heap vs sort."""
    rows = [
        (len(base_graph.likes_of_message(m.id)), m.id)
        for m in base_graph.messages()
    ]

    def with_topk():
        top = TopK(100, key=lambda r: sort_key((r[0], True), (r[1], False)))
        top.extend(rows)
        return top.result()

    def with_sort():
        return sorted(rows, key=lambda r: (-r[0], r[1]))[:100]

    assert with_topk() == with_sort()
    repeat = 20
    start = time.perf_counter()
    for _ in range(repeat):
        with_topk()
    topk_time = (time.perf_counter() - start) / repeat
    start = time.perf_counter()
    for _ in range(repeat):
        with_sort()
    sort_time = (time.perf_counter() - start) / repeat
    print(f"\ntop-k {1e3 * topk_time:.2f} ms vs full sort {1e3 * sort_time:.2f} ms")
    # At micro scale the constant factors are close; the pushdown must
    # at least not lose badly, and it bounds memory to k entries.
    assert topk_time < 3 * sort_time


def test_benchmark_factor_table_reuse(benchmark, base_graph, base_net):
    tables = build_factor_tables(base_graph)

    def curate_with_reuse():
        generator = ParameterGenerator(base_graph, base_net.config, tables=tables)
        return [generator.bi(n, count=5) for n in (5, 6, 12)]

    result = benchmark(curate_with_reuse)
    assert all(result)


def test_benchmark_factor_table_rebuild(benchmark, base_graph, base_net):
    def curate_with_rebuild():
        return [
            ParameterGenerator(base_graph, base_net.config).bi(n, count=5)
            for n in (5, 6, 12)
        ]

    result = benchmark.pedantic(curate_with_rebuild, rounds=3, iterations=1)
    assert all(result)
