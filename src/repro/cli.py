"""Command-line interface: ``python -m repro <command>``.

Commands mirror the benchmark workflow (spec Figure 2.3):

* ``generate``   — run Datagen and export the dataset, update/delete
  streams and substitution-parameter files.
* ``run``        — run a workload: ``--workload bi`` (power /
  throughput / concurrent modes, or one query via ``--query``) or
  ``--workload interactive`` (the serial driver).  ``--workers`` /
  ``--timeout`` configure the :mod:`repro.exec` pool of a BI run; with
  ``--workload interactive`` they are a usage error.
* ``validate``   — create or check a validation dataset (spec 6.2).
* ``report``     — print reference tables (choke points, scale factors).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from repro.analysis.chokepoints import format_coverage_table
from repro.analysis.report import full_disclosure_report
from repro.core.api import SocialNetworkBenchmark
from repro.core.run import RunRequest
from repro.datagen.scale import SCALE_FACTORS
from repro.exec import PROVIDERS, SnapshotConfig
from repro.driver.validation import (
    read_validation_set,
    write_validation_set,
)
from repro.params.files import write_parameter_files


def _checked(parse, accept, rule: str):
    """An argparse ``type=`` that parses with ``parse`` and rejects a
    value unless ``accept(value)``: a bad number is then a usage error
    (exit 2) before any network is generated."""

    def convert(text: str):
        value = parse(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"{text!r}: must be {rule}")
        return value

    convert.__name__ = parse.__name__  # "invalid int value: 'x'"
    return convert


_AT_LEAST_ONE = _checked(int, lambda value: value >= 1, ">= 1")
_NOT_NEGATIVE = _checked(int, lambda value: value >= 0, ">= 0")
_POSITIVE = _checked(float, lambda value: value > 0, "> 0")
_FINITE_NOT_NEGATIVE = _checked(
    float, lambda value: 0 <= value < math.inf, "finite and >= 0"
)


def _add_dataset_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--persons", type=_AT_LEAST_ONE, default=300,
                        help="number of persons to generate (default 300)")
    parser.add_argument("--seed", type=int, default=42,
                        help="datagen master seed (default 42)")
    parser.add_argument("--years", type=int, default=3,
                        help="simulated years (default 3)")
    parser.add_argument("--start-year", type=int, default=2010,
                        help="first simulated year (default 2010)")


def _bench(args: argparse.Namespace) -> SocialNetworkBenchmark:
    return SocialNetworkBenchmark.generate(
        num_persons=args.persons,
        seed=args.seed,
        num_years=args.years,
        start_year=args.start_year,
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    bench = _bench(args)
    output = Path(args.output)
    root = bench.export(output, variant=args.format)
    generated = len(list(root.rglob("*")))
    write_parameter_files(bench.params, output, bindings_per_query=args.bindings)
    if args.deletes:
        from repro.datagen.delete_streams import (
            build_delete_streams,
            write_delete_stream,
        )

        write_delete_stream(build_delete_streams(bench.network), output)
    print(
        f"generated {len(bench.network.persons)} persons"
        f" (~SF {bench.scale_factor:.4f}),"
        f" {bench.network.node_count()} nodes,"
        f" {bench.network.edge_count()} edges"
    )
    print(f"dataset: {root} ({generated} files, format {args.format})")
    print(f"parameters: {output / 'substitution_parameters'}")
    return 0


def _configuration(args: argparse.Namespace, request: RunRequest) -> dict:
    """The ``configuration.json`` document: the request envelope plus
    the dataset parameters that reproduce the graph."""
    return {
        "persons": args.persons,
        "datagen_seed": args.seed,
        **request.configuration_dict(),
    }


def _write_telemetry(args: argparse.Namespace, report) -> None:
    """Persist the run's telemetry per the ``--trace`` / ``--metrics-out``
    flags (no-ops when neither was given or no telemetry is attached)."""
    document = report.telemetry
    if document is None:
        return
    if args.trace:
        from repro.obs import to_chrome_trace

        trace_dir = Path(args.trace)
        trace_dir.mkdir(parents=True, exist_ok=True)
        with open(trace_dir / "telemetry.json", "w") as handle:
            json.dump(document, handle, indent=2)
        with open(trace_dir / "trace.json", "w") as handle:
            json.dump(to_chrome_trace(document), handle)
        print(f"telemetry: {trace_dir / 'telemetry.json'}")
        print(f"trace (load in ui.perfetto.dev): {trace_dir / 'trace.json'}")
    if args.metrics_out:
        from repro.obs import to_prometheus

        metrics_path = Path(args.metrics_out)
        metrics_path.parent.mkdir(parents=True, exist_ok=True)
        metrics_path.write_text(to_prometheus(document["metrics"]))
        print(f"metrics: {metrics_path}")
    if args.profile and document.get("profile"):
        from repro.obs import to_chrome_trace, to_collapsed

        profile_dir = Path(args.profile)
        profile_dir.mkdir(parents=True, exist_ok=True)
        collapsed = profile_dir / "profile.collapsed"
        collapsed.write_text(to_collapsed(document))
        print(f"profile (collapsed stacks, flamegraph-ready): {collapsed}")
        if not args.trace:
            # Without --trace there is no trace.json yet; write one here
            # so the Perfetto counter tracks are reachable either way.
            with open(profile_dir / "trace.json", "w") as handle:
                json.dump(to_chrome_trace(document), handle)
            print(f"trace (counter tracks): {profile_dir / 'trace.json'}")


def _cmd_run(args: argparse.Namespace) -> int:
    if args.trace:
        from repro.obs import enable_tracing

        enable_tracing()
    if args.profile:
        from repro.obs import enable_profiling

        enable_profiling()
    bench = _bench(args)
    if args.workload == "bi":
        if args.query is not None:
            rows = bench.bi.run(args.query)
            for row in rows[: args.limit]:
                print(tuple(row))
            print(f"-- BI {args.query}: {len(rows)} rows")
            return 0
        request = RunRequest(
            workload="bi",
            mode=args.mode,
            workers=args.workers,
            timeout=args.timeout,
            snapshot=_snapshot_config(args),
        )
        report = bench.run(request)
        print(report.format_table())
        if args.results_dir:
            report.write_results_dir(
                args.results_dir, configuration=_configuration(args, request)
            )
            print(f"results directory: {args.results_dir}")
        _write_telemetry(args, report)
        return 0
    request = RunRequest(
        workload="interactive",
        options={
            "time_compression_ratio": args.tcr,
            "max_updates": args.updates,
            "include_deletes": args.deletes,
        },
    )
    report = bench.run(request)
    if args.results_dir:
        report.write_results_dir(
            args.results_dir, configuration=_configuration(args, request)
        )
        print(f"results directory: {args.results_dir}")
    _write_telemetry(args, report)
    if args.fdr:
        print(
            full_disclosure_report(
                f"{args.persons} persons (~SF {bench.scale_factor:.4f})",
                bench.load_seconds,
                report,
            )
        )
    else:
        print(report.format_table())
    return 0 if report.is_valid_run else 1


def _cmd_validate(args: argparse.Namespace) -> int:
    bench = _bench(args)
    path = Path(args.file)
    if args.create:
        validation_set = bench.create_validation_set(
            bindings_per_query=args.bindings
        )
        write_validation_set(validation_set, path)
        print(f"wrote {len(validation_set['entries'])} entries to {path}")
        return 0
    validation_set = read_validation_set(path)
    mismatches = bench.validate(validation_set)
    if mismatches:
        print(f"FAILED: {len(mismatches)} mismatching queries")
        for mismatch in mismatches[:5]:
            print(f"  {mismatch['kind']} {mismatch['number']}"
                  f" params={mismatch['params']}")
        return 1
    print(f"OK: all {len(validation_set['entries'])} queries match")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.table == "chokepoints":
        print(format_coverage_table())
    elif args.table == "dataset":
        from repro.analysis.stats import compute_statistics

        bench = _bench(args)
        print(compute_statistics(bench.graph).format())
    elif args.table == "scale-factors":
        print(f"{'SF':>8s} {'#persons':>10s} {'#nodes':>14s} {'#edges':>15s}")
        for sf in sorted(SCALE_FACTORS):
            persons, nodes, edges = SCALE_FACTORS[sf]
            print(f"{sf:8g} {persons:10d} {nodes:14d} {edges:15d}")
    return 0


def _snapshot_config(args: argparse.Namespace) -> SnapshotConfig:
    """The run's :class:`SnapshotConfig` from the snapshot flags."""
    return SnapshotConfig(
        provider=args.snapshot_provider, morsel_size=args.morsel_size
    )


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    """Everything the ``run`` command accepts; options apply per
    workload as documented."""
    _add_dataset_options(parser)
    parser.add_argument("--mode", default=None,
                        choices=["power", "throughput", "concurrent"],
                        help="BI execution mode (default power)")
    parser.add_argument("--workers", type=_AT_LEAST_ONE, default=None,
                        help="BI: worker-pool size (default: 1; --mode"
                             " concurrent: one per stream)")
    parser.add_argument("--timeout", type=_POSITIVE, default=None,
                        help="BI: per-query deadline in seconds")
    parser.add_argument("--snapshot-provider", default="inline",
                        choices=list(PROVIDERS),
                        help="how process workers obtain the read"
                             " snapshot (default: inline)")
    parser.add_argument("--morsel-size", type=_AT_LEAST_ONE, default=None,
                        help="split heavy BI scans into morsels of this"
                             " many rows across the pool (default: off)")
    parser.add_argument("--query", type=int, choices=range(1, 26),
                        help="run one BI query instead of a full test")
    parser.add_argument("--limit", type=int, default=10,
                        help="rows to print for --query")
    parser.add_argument("--updates", type=_NOT_NEGATIVE, default=None,
                        help="interactive: cap on update operations")
    parser.add_argument("--tcr", type=_FINITE_NOT_NEGATIVE, default=0.0,
                        help="interactive: time compression ratio"
                             " (0 = flat out)")
    parser.add_argument("--deletes", action="store_true",
                        help="interactive: interleave the delete stream")
    parser.add_argument("--fdr", action="store_true",
                        help="interactive: print a full disclosure report")
    parser.add_argument("--results-dir", default=None,
                        help="write the \u00a76.2 results directory"
                             " (config, results log, summary)")
    parser.add_argument("--trace", default=None, metavar="DIR",
                        help="enable span tracing and write telemetry.json"
                             " plus a Perfetto-loadable trace.json to DIR")
    parser.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="write the run's metrics in Prometheus text"
                             " exposition format to FILE")
    parser.add_argument("--profile", default=None, metavar="DIR",
                        help="enable the sampling profiler (97 Hz)"
                             " and write profile.collapsed to DIR")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LDBC Social Network Benchmark (BI workload) reproduction",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="run Datagen and export all artefacts"
    )
    _add_dataset_options(generate)
    generate.add_argument("--output", default="out", help="output directory")
    generate.add_argument(
        "--format", default="CsvBasic",
        choices=["CsvBasic", "CsvMergeForeign", "CsvComposite",
                 "CsvCompositeMergeForeign", "Turtle"],
    )
    generate.add_argument("--bindings", type=int, default=20,
                          help="parameter bindings per query")
    generate.add_argument("--deletes", action="store_true",
                          help="also write the delete stream")
    generate.set_defaults(handler=_cmd_generate)

    run = commands.add_parser(
        "run", help="run a workload (BI or Interactive)"
    )
    run.add_argument("--workload", default="bi",
                     choices=["bi", "interactive"],
                     help="which workload to run (default bi)")
    _add_run_options(run)
    run.set_defaults(handler=_cmd_run)

    validate = commands.add_parser(
        "validate", help="create or check a validation dataset"
    )
    _add_dataset_options(validate)
    validate.add_argument("file", help="validation dataset path (JSON)")
    validate.add_argument("--create", action="store_true",
                          help="create instead of check")
    validate.add_argument("--bindings", type=int, default=2)
    validate.set_defaults(handler=_cmd_validate)

    report = commands.add_parser("report", help="print reference tables")
    _add_dataset_options(report)
    report.add_argument(
        "table", choices=["chokepoints", "scale-factors", "dataset"],
    )
    report.set_defaults(handler=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run" and args.workload == "interactive":
        # The driver replays serially: a pool setting would be ignored.
        for flag, value in (("--workers", args.workers),
                            ("--timeout", args.timeout)):
            if value is not None:
                parser.error(f"{flag} applies to BI runs only; the"
                             " Interactive driver replays serially")
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
