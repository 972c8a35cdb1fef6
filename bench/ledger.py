#!/usr/bin/env python3
"""The layered performance ledger: one command, four workloads.

    python bench/ledger.py --seed 42              # every workload, end to end
    python bench/ledger.py --seed 42 --trace 1    # ... then the layer table
    python bench/ledger.py --seed 42 --smoke      # 150 persons, 1 round

and, as the benchmark contract in ``BENCHMARK.json`` runs it,

    python bench/ledger.py --workload power --seed 7 --seconds 20 --trace 0

which measures one workload, end to end (``--trace 0``) or per layer
(``--trace 1``), and prints one JSON object as the last line of standard
output.  See ``bench/README.md`` for what every name means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
from typing import Any

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
# Run as a script, sys.path[0] is bench/, where trace.py would shadow the
# standard library's; import the directory as the package ``bench``.
if sys.path and os.path.abspath(sys.path[0]) == BENCH:
    sys.path[0] = ROOT
elif ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from bench.metrics import (  # noqa: E402
    END_TO_END, PER_LAYER, RUN_SECONDS, SPECIFIC,
)

FULL_PERSONS = 1500
SMOKE_PERSONS = 150
#: The ledger fails a traced run that cannot say where the time went.
MAX_UNATTRIBUTED_PCT = 10.0
#: Everything a run writes goes under here, inside the checkout.
RUN_DIR = os.path.join(BENCH, ".run")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=42,
                        help="draws the bindings the correctness passes "
                             "answer; never changes the work timed")
    parser.add_argument("--workload",
                        help="measure this workload only, and print the "
                             "contract's JSON line")
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                        help="timed seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = run under the span recorder for the "
                             "per-layer metrics (with --workload, in place "
                             "of the end-to-end run; without, after it)")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_PERSONS} persons, 1 round")
    parser.add_argument("--out", metavar="FILE",
                        help="write the full result document here")
    parser.add_argument("--history", metavar="FILE",
                        help="append one compact line of the end-to-end "
                             "values (bench/history/ledger.jsonl)")
    parser.add_argument("--trace-dir", metavar="DIR",
                        default=os.path.join(RUN_DIR, "traces"),
                        help="where traced runs write trace_<workload>.json")
    parser.add_argument("--src", metavar="DIR",
                        default=os.path.join(ROOT, "src"),
                        help="the source tree to measure")
    return parser.parse_args(argv)


def quiet_environment(src: str, tmp: str) -> None:
    """Ambient settings must not change the path measured: drop every
    ``REPRO_*`` knob (workers, provider, frozen, morsel size, compact
    fraction, start method, profile Hz) and keep temp files in ``tmp``."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    sys.path.insert(1, src)


def shm_names() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def leaked(tmp: str, shm_before: set[str]) -> list[str]:
    """Snapshot files and shared-memory segments the run left behind
    (every temp file of the run lands in ``tmp``)."""
    files = [
        os.path.join(tmp, name) for name in os.listdir(tmp)
        if name.startswith("repro-snapshot-") and name.endswith(".rsnb")
    ]
    return files + sorted(shm_names() - shm_before)


def stop_children() -> None:
    """No process outlives the run: end what is left of the pool and of the
    restart interpreters, then the resource tracker that ``spawn`` starts
    (it would otherwise linger until it notices this process is gone)."""
    import multiprocessing as mp
    from multiprocessing import resource_tracker

    for child in mp.active_children():
        child.terminate()
        child.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:  # this process started it
        tracker._stop()  # closes its pipe and waits for it to exit


def reset_peak_rss() -> None:
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass  # the high-water mark then spans the workloads run so far


def peak_rss_mb() -> float:
    """High-water resident set of this process (since the last reset
    where the kernel allows one) plus that of its largest child so far
    (pool workers, the restart interpreter)."""
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    own_kb = int(line.split()[1])
    except OSError:
        pass
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own_kb + child_kb) / 1024.0


def commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def host_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def metric_rows(metrics: tuple, samples, workload: str) -> dict:
    """name -> {value, unit, samples} for the metrics ``workload`` has;
    ``value`` is the median of the samples."""
    rows = {}
    for metric in metrics:
        if metric.on(workload) and samples.count(metric.name):
            rows[metric.name] = {
                "value": samples.median(metric.name),
                "unit": metric.unit,
                "samples": samples.count(metric.name),
            }
    return rows


def print_table(title: str, rows: dict) -> None:
    print(f"-- {title:52s} {'median':>12s} unit     samples")
    for name, row in rows.items():
        print(f"   {name:52s} {row['value']:12.6g} {row['unit']:8s} "
              f"{row['samples']}")
    sys.stdout.flush()


def measure(args: argparse.Namespace, run: Any, name: str,
            trace: int) -> dict:
    """Workload ``name`` end to end, or (``trace``) under the span
    recorder for the per-layer metrics; returns those sections of its
    entry in the result document.  Checks count into ``run``."""
    from bench import workloads as wl
    from bench.trace import Tracer

    shm_before = shm_names()
    samples = wl.Samples()
    entry: dict = {}
    if trace:
        tracer = Tracer()
        wl.run_traced(run, name, tracer, samples)
        run.check(
            f"{name}: unattributed time <= {MAX_UNATTRIBUTED_PCT} %",
            samples.median("obs.unattributed_pct") <= MAX_UNATTRIBUTED_PCT)
        samples.add("exec.snapshot.leaked_files",
                    len(leaked(run.tmp, shm_before)))
        entry["per_layer"] = metric_rows(PER_LAYER, samples, name)
        entry["layer_self_s"] = tracer.layer_table(name)
        print(f"== {name}: traced")
        print_table("per_layer", entry["per_layer"])
        for path in tracer.write(args.trace_dir, [name]):
            print(f"trace written: {os.path.relpath(path)}")
    else:
        reset_peak_rss()
        wl.run_untraced(run, name, samples)
        samples.add("peak_rss_mb", peak_rss_mb())
        entry["rounds"] = samples.count("round_s")
        entry["end_to_end"] = metric_rows(END_TO_END, samples, name)
        entry["specific"] = metric_rows(SPECIFIC, samples, name)
        entry["kinds_ms"] = wl.kind_latencies(samples)
        print(f"== {name}: {entry['rounds']} rounds")
        print_table("end_to_end", entry["end_to_end"])
        if entry["specific"]:
            print_table("specific", entry["specific"])
    left = leaked(run.tmp, shm_before)
    run.check(f"{name}: no leaked snapshot files or segments: {left}",
              not left)
    return entry


def report(name: str, entry: dict) -> None:
    print(f"== {name}: ops={entry['attempted']} failed_ops={entry['failed']}")
    for label, value in entry["digests"].items():
        print(f"   digest {label}: {value}")
    for problem in entry["problems"]:
        print(f"   FAILED {problem}")


def history_line(document: dict) -> dict:
    """One compact line per PR: who measured what, and the end-to-end
    values (on all workloads, then the workload-specific ones)."""
    line = {key: document[key] for key in (
        "commit", "seed", "persons", "seconds", "host")}
    line["end_to_end"] = {
        name: {
            metric: row["value"]
            for section in ("end_to_end", "specific")
            for metric, row in entry.get(section, {}).items()
        }
        for name, entry in document["workloads"].items()
    }
    return line


def contract_line(args: argparse.Namespace, document: dict) -> str:
    """The one JSON object the benchmark contract reads."""
    entry = document["workloads"][args.workload]
    section, declared = (
        ("per_layer", PER_LAYER) if args.trace else ("end_to_end", END_TO_END))
    missing = [m.name for m in declared if m.name not in entry[section]]
    if missing:
        raise SystemExit(f"metrics not measured: {', '.join(missing)}")
    return json.dumps({
        "correct": entry["correct"],
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": {
            m.name: {"value": entry[section][m.name]["value"], "unit": m.unit}
            for m in declared
        },
    })


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(args.src, "repro")):
        print(f"no repro package under {args.src}", file=sys.stderr)
        return 2
    os.makedirs(RUN_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=RUN_DIR)
    # A terminated run unwinds too, so its children end with it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        quiet_environment(args.src, tmp)
        from bench.workloads import WORKLOADS, Run

        if args.workload and args.workload not in WORKLOADS:
            print(f"no workload {args.workload!r}; there are "
                  f"{', '.join(WORKLOADS)}", file=sys.stderr)
            return 2
        print(f"ledger: seed={args.seed} nproc={os.cpu_count()}"
              f" python={platform.python_version()} commit={commit()}",
              flush=True)
        persons = SMOKE_PERSONS if args.smoke else FULL_PERSONS
        # The contract asks for one workload and one kind of run; without
        # --workload every workload is measured end to end and then, with
        # --trace 1, per layer (every traced run spawns the restart
        # interpreter, whose size would stay in every later peak_rss_mb).
        names = [args.workload] if args.workload else list(WORKLOADS)
        traces = [args.trace] if args.workload else range(args.trace + 1)
        runs = {
            name: Run(seed=args.seed, persons=persons, seconds=args.seconds,
                      rounds=1 if args.smoke else None, tmp=tmp)
            for name in names
        }
        entries: dict[str, dict] = {name: {} for name in names}
        for trace in traces:
            for name in names:
                entries[name].update(measure(args, runs[name], name, trace))
        for name, run in runs.items():
            entries[name].update(
                correct=run.failed == 0, attempted=run.attempted,
                failed=run.failed, problems=run.problems,
                digests=run.digests)
            report(name, entries[name])
        document = {
            "schema": 1, "seed": args.seed, "commit": commit(),
            "host": host_facts(), "seconds": args.seconds,
            "persons": persons, "workloads": entries,
        }
        if args.out:
            with open(args.out, "w") as handle:
                json.dump(document, handle, indent=1, sort_keys=True)
                handle.write("\n")
        if args.history:
            with open(args.history, "a") as handle:
                handle.write(json.dumps(history_line(document)) + "\n")
        if args.workload:
            print(contract_line(args, document))
        return 0 if all(e["correct"] for e in entries.values()) else 1
    finally:
        stop_children()
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
