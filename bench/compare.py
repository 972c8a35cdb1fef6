#!/usr/bin/env python3
"""Compare two sets of ledger runs, metric by metric.

    python bench/compare.py A.json B.json
    python bench/compare.py --pairs 10 --a ../parent/src --b src

Each file holds one or more result documents of ``bench/ledger.py
--out`` (a single document, a JSON list, or one document per line).
For every workload and end-to-end metric it prints both sides' median
and quartiles, the metric's bound and a verdict:

* ``same``       B's median is within the bound of A's;
* ``worse``      B is worse than A by more than the bound;
* ``better``     B is better than A by more than the bound;
* ``unresolved`` the spread between one side's own runs (interquartile
  range over median) exceeds the bound, so the runs cannot tell.

``--pairs N`` makes the two sets itself: N ledger runs per source tree,
interleaved and alternating which side goes first, all measured by
this directory's benchmark code.  Counts that must repeat exactly for a
seed are compared byte for byte.  Exit status 1 when a metric is worse.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
if sys.path and os.path.abspath(sys.path[0]) == BENCH:
    sys.path[0] = ROOT
elif ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from bench.metrics import END_TO_END, RUN_SECONDS, SPECIFIC  # noqa: E402

#: Per-layer counts (and one size) that a seed fixes exactly.
EXACT = (
    "datagen.nodes", "datagen.edges", "queries.bi.result_rows",
    "driver.bi_driver.invalidated_reads", "engine.rows_scanned",
    "engine.index_scans", "engine.full_scans", "engine.edges_expanded",
    "engine.groups_created", "engine.heap_inserts",
    "engine.heap_rejections", "engine.heap_evictions",
)


def load_documents(path: str) -> list[dict]:
    with open(path) as handle:
        text = handle.read()
    try:
        loaded = json.loads(text)
    except json.JSONDecodeError:
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    return loaded if isinstance(loaded, list) else [loaded]


def values(documents: list[dict], workload: str, metric: str) -> list[float]:
    found = []
    for document in documents:
        entry = document["workloads"].get(workload, {})
        for section in ("end_to_end", "specific", "per_layer"):
            if metric in entry.get(section, {}):
                found.append(entry[section][metric]["value"])
    return found


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); a single run has no
    spread."""
    median = statistics.median(samples)
    if len(samples) < 2:
        return median, median, median
    first, _, third = statistics.quantiles(samples, n=4)
    return first, median, third


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """The verdict and B's change against A as a share of A's median
    (positive = worse)."""
    a_first, a_median, a_third = quartiles(a)
    b_first, b_median, b_third = quartiles(b)
    change = (b_median - a_median) / a_median
    if better == "higher":
        change = -change
    spread = max((a_third - a_first) / a_median, (b_third - b_first) / b_median)
    if spread > bound:
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "same", change


def compare(a: list[dict], b: list[dict]) -> int:
    workloads = [w for w in a[0]["workloads"] if w in b[0]["workloads"]]
    print(f"A: {len(a)} runs, seeds {sorted({d['seed'] for d in a})}, "
          f"commits {sorted({d['commit'] for d in a})}")
    print(f"B: {len(b)} runs, seeds {sorted({d['seed'] for d in b})}, "
          f"commits {sorted({d['commit'] for d in b})}")
    header = (f"{'workload':8s} {'metric':18s} {'A median [q1, q3]':>34s} "
              f"{'B median [q1, q3]':>34s} {'B vs A':>8s} {'bound':>6s} verdict")
    print(header)
    worse = 0
    for workload in workloads:
        for metric in END_TO_END + SPECIFIC:
            side_a = values(a, workload, metric.name)
            side_b = values(b, workload, metric.name)
            if not side_a or not side_b:
                continue
            result, change = verdict(side_a, side_b, metric.better, metric.bound)
            worse += result == "worse"
            cells = [
                "{1:.5g} [{0:.5g}, {2:.5g}]".format(*quartiles(side))
                for side in (side_a, side_b)
            ]
            print(f"{workload:8s} {metric.name:18s} {cells[0]:>34s} "
                  f"{cells[1]:>34s} {100 * change:+7.1f}% "
                  f"{100 * metric.bound:5.0f}% {result}")
    if {d["seed"] for d in a} == {d["seed"] for d in b} and len(
            {d["seed"] for d in a}) == 1:
        for workload in workloads:
            for name in EXACT + ("snapfile_mb",):
                seen = set(values(a, workload, name) + values(b, workload, name))
                if len(seen) > 1:
                    print(f"{workload:8s} {name}: NOT identical: {sorted(seen)}")
                    worse += 1
                elif seen:
                    print(f"{workload:8s} {name}: identical ({seen.pop():g})")
    return 1 if worse else 0


def run_pairs(args: argparse.Namespace) -> tuple[list[dict], list[dict]]:
    os.makedirs(args.out_dir, exist_ok=True)
    sides: dict[str, list[dict]] = {"a": [], "b": []}
    sources = {"a": args.a, "b": args.b}
    for pair in range(args.pairs):
        for side in ("ab", "ba")[pair % 2]:
            path = os.path.join(args.out_dir, f"{side}-{pair}.json")
            command = [
                sys.executable, os.path.join(BENCH, "ledger.py"),
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--src", sources[side], "--out", path,
            ]
            print(f"pair {pair} side {side.upper()}: {' '.join(command)}",
                  flush=True)
            subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
            sides[side].extend(load_documents(path))
    for side, documents in sides.items():
        with open(os.path.join(args.out_dir, f"{side.upper()}.json"), "w") as out:
            json.dump(documents, out, indent=1, sort_keys=True)
    return sides["a"], sides["b"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", metavar="RUNS.json",
                        help="A.json B.json")
    parser.add_argument("--pairs", type=int, default=0,
                        help="make the sets: this many interleaved run pairs")
    parser.add_argument("--a", default=os.path.join(ROOT, "src"),
                        help="side A's source tree (--pairs)")
    parser.add_argument("--b", default=os.path.join(ROOT, "src"),
                        help="side B's source tree (--pairs)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = also measure per layer (--pairs)")
    parser.add_argument("--out-dir",
                        default=os.path.join(BENCH, ".run", "compare"),
                        help="where --pairs keeps its runs")
    args = parser.parse_args(argv)
    if args.pairs:
        a, b = run_pairs(args)
    elif len(args.files) == 2:
        a, b = (load_documents(path) for path in args.files)
    else:
        parser.error("give A.json B.json, or --pairs N")
    return compare(a, b)


if __name__ == "__main__":
    sys.exit(main())
