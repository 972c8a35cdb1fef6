"""Tests for the unified run envelope (``repro.core.run``).

Two layers:

* contract tests — every report class implements the shared
  :data:`~repro.core.run.REPORT_SURFACE`
  (``summary_dict``/``format_table``/``write_results_dir``) and
  :class:`~repro.core.run.RunRequest` validates its envelope;
* differential tests — every BI run surface produces identical merged
  results with ``workers=1`` and ``workers=4`` (the executor's
  deterministic-merge guarantee), compared on deterministic artifacts
  (rows, operator counters), never on wall-clock-derived scores.
"""

from __future__ import annotations

import json

import pytest

from repro import RunReport, RunRequest, SocialNetworkBenchmark
from repro.core.run import REPORT_SURFACE, WORKLOAD_MODES, WORKLOADS
from repro.driver.bi_driver import (
    ConcurrentTestResult,
    PowerTestResult,
    ThroughputTestResult,
    build_microbatches,
    throughput_test,
)
from repro.driver.runner import DriverReport
from repro.graph.store import SocialGraph
from repro.obs.metrics import registry, subtract_snapshot

#: Every report class a run surface can return.
REPORT_CLASSES = (
    PowerTestResult,
    ThroughputTestResult,
    ConcurrentTestResult,
    DriverReport,
)


def _sample_report(cls) -> RunReport:
    """A minimal live instance of each report class."""
    if cls is PowerTestResult:
        return PowerTestResult(runtimes={1: 0.5, 2: 0.25}, scale_factor=1.0)
    if cls is ThroughputTestResult:
        return ThroughputTestResult(
            batch_seconds=[0.1], read_seconds=[0.2], operations=7, elapsed=0.3
        )
    if cls is ConcurrentTestResult:
        return ConcurrentTestResult(
            streams=2, queries_per_stream=3, elapsed=0.5
        )
    return DriverReport(log=[], wall_seconds=0.5)


@pytest.fixture(scope="module")
def bench(tiny_net):
    return SocialNetworkBenchmark(tiny_net)


class TestReportContract:
    @pytest.mark.parametrize("cls", REPORT_CLASSES)
    def test_implements_shared_surface(self, cls):
        assert issubclass(cls, RunReport)
        report = _sample_report(cls)
        for method in REPORT_SURFACE:
            assert callable(getattr(report, method))
        summary = report.summary_dict()
        assert summary["workload"] in WORKLOADS
        assert summary["mode"] in WORKLOAD_MODES[summary["workload"]]
        assert isinstance(report.format_table(), str)

    @pytest.mark.parametrize("cls", REPORT_CLASSES)
    def test_write_results_dir(self, cls, tmp_path):
        report = _sample_report(cls)
        report.write_results_dir(tmp_path, configuration={"workers": 4})
        config = json.loads((tmp_path / "configuration.json").read_text())
        assert config == {"workers": 4}
        summary = json.loads((tmp_path / "results_summary.json").read_text())
        assert summary == json.loads(json.dumps(report.summary_dict()))
        # Only reports with a per-operation log write results_log.csv.
        assert (tmp_path / "results_log.csv").exists() == (
            cls is DriverReport
        )

    def test_base_report_is_abstract(self):
        with pytest.raises(NotImplementedError):
            RunReport().summary_dict()
        with pytest.raises(NotImplementedError):
            RunReport().format_table()


class TestRunRequest:
    def test_defaults_select_first_mode(self):
        assert RunRequest().mode == "power"
        assert RunRequest(workload="interactive").mode == "driver"

    def test_invalid_workload_and_mode_rejected(self):
        with pytest.raises(ValueError, match="workload"):
            RunRequest(workload="graphalytics")
        with pytest.raises(ValueError, match="mode"):
            RunRequest(workload="interactive", mode="power")

    def test_configuration_dict_flattens_options(self):
        request = RunRequest(
            workload="bi", mode="concurrent", workers=4, timeout=2.5,
            options={"streams": 8},
        )
        assert request.configuration_dict() == {
            "workload": "bi",
            "mode": "concurrent",
            "workers": 4,
            "timeout": 2.5,
            "seed": 1234,
            "streams": 8,
            "snapshot": {
                "provider": "inline",
                "freeze": True,
                "compact_fraction": 0.25,
                "morsel_size": None,
            },
        }

    @pytest.mark.parametrize("settings", [
        {"workers": 2},
        {"workers": 4},
        {"timeout": 30.0},
        {"workers": 1, "timeout": 5.0},
    ])
    def test_interactive_refuses_pool_settings(self, settings):
        """The Interactive driver replays serially: a worker count or a
        deadline it would ignore is refused, not dropped."""
        with pytest.raises(ValueError, match="serially"):
            RunRequest(workload="interactive", **settings)
        assert RunRequest(workload="interactive", workers=1).workers == 1

    def test_workers_default_is_the_modes_own(self):
        """No ``workers`` argument still discloses a count: one worker
        per stream for ``concurrent``, serial everywhere else."""
        assert RunRequest().workers == 1
        assert RunRequest(workload="interactive").workers == 1
        assert RunRequest(mode="concurrent").workers == 4
        assert RunRequest(
            mode="concurrent", options={"streams": 3}
        ).workers == 3


class TestDispatch:
    def test_every_mode_returns_a_run_report(self, tiny_net):
        for workload in WORKLOADS:
            for mode in WORKLOAD_MODES[workload]:
                options = {}
                if (workload, mode) == ("bi", "throughput"):
                    options = {"reads_per_batch": 1}
                elif (workload, mode) == ("bi", "concurrent"):
                    options = {"streams": 2, "queries_per_stream": 2}
                elif workload == "interactive":
                    options = {"max_updates": 40}
                report = SocialNetworkBenchmark(tiny_net).run(
                    RunRequest(workload=workload, mode=mode, options=options)
                )
                assert isinstance(report, RunReport)
                summary = report.summary_dict()
                assert summary["workload"] == workload
                assert summary["mode"] == mode
                assert ("exec" in summary) == (workload == "bi")

    @pytest.mark.parametrize(
        "workload,mode,options",
        [
            ("bi", "power", {}),
            ("bi", "throughput", {"reads_per_batch": 2}),
            ("bi", "concurrent", {"streams": 2, "queries_per_stream": 2}),
        ],
    )
    def test_every_mode_runs_on_two_workers(
        self, tiny_net, workload, mode, options
    ):
        report = SocialNetworkBenchmark(tiny_net).run(
            RunRequest(
                workload=workload, mode=mode, workers=2, options=options
            )
        )
        assert report.exec_stats["workers"] == 2
        assert report.exec_stats["backend"] == "process"
        assert report.exec_stats["failures"] == 0
        assert report.telemetry["configuration"]["workers"] == 2


class TestSerialParallelDifferential:
    """Same seed, workers=1 vs workers=4: identical merged BI results."""

    def test_power_test(self, bench):
        serial = bench.run(RunRequest(workload="bi", mode="power", workers=1))
        parallel = bench.run(
            RunRequest(workload="bi", mode="power", workers=4)
        )
        assert serial.operator_stats == parallel.operator_stats
        assert sorted(serial.runtimes) == sorted(parallel.runtimes)
        assert serial.exec_stats["backend"] == "serial"
        assert parallel.exec_stats["backend"] == "process"
        assert parallel.exec_stats["failures"] == 0

    def test_concurrent_read_test(self, bench):
        request = {"streams": 3, "queries_per_stream": 4}
        serial = bench.run(
            RunRequest(
                workload="bi", mode="concurrent", workers=1, options=request
            )
        )
        parallel = bench.run(
            RunRequest(
                workload="bi", mode="concurrent", workers=4, options=request
            )
        )
        assert serial.operator_counters == parallel.operator_counters
        assert serial.total_queries == parallel.total_queries

    def test_throughput_test(self, tiny_net):
        self._throughput_differential(tiny_net, workers=4)

    def test_throughput_test_spawn(self, tiny_net, monkeypatch):
        """Spawned workers get each block's overlaid view by value —
        two microbatches, because every block re-ships it."""
        monkeypatch.setattr("repro.exec.pool.start_method", lambda: "spawn")
        self._throughput_differential(tiny_net, workers=2, batches=2)

    def _throughput_differential(self, tiny_net, workers, batches=None):
        def outcome(workers):
            graph = SocialGraph.from_data(tiny_net, until=tiny_net.cutoff)
            params = SocialNetworkBenchmark(tiny_net).params
            before = registry().snapshot()
            result = throughput_test(
                graph,
                params,
                build_microbatches(tiny_net)[:batches],
                reads_per_batch=2,
                workers=workers,
            )
            delta = subtract_snapshot(registry().snapshot(), before)
            return result, {
                series: count
                for series, count in delta["counters"].items()
                if series.startswith(
                    ("repro_frozen_path_total", "repro_tasks_total")
                )
            }

        (serial, serial_paths), (parallel, parallel_paths) = (
            outcome(1), outcome(workers)
        )
        assert serial.operations == parallel.operations
        assert len(serial.batch_seconds) == len(parallel.batch_seconds)
        assert serial.exec_stats["failures"] == 0
        assert parallel.exec_stats["failures"] == 0
        assert serial.exec_stats["backend"] == "serial"
        assert parallel.exec_stats["backend"] == "process"
        # Process workers ship registry deltas: every block, forked after
        # its writes, read the post-write view through the same path.
        assert serial_paths and serial_paths == parallel_paths


class TestRunAll:
    def test_run_all_for_one_query_covers_every_binding(self, bench):
        per_binding = bench.bi.run_all(13)
        bindings = bench.params.bi(13)
        assert len(per_binding) == len(bindings)
        assert per_binding[0] == bench.bi.run(13, *bindings[0])

    def test_run_all_cap(self, bench):
        assert len(bench.bi.run_all(13, bindings_per_query=2)) == 2

    def test_run_all_without_number_keeps_per_query_dict(self, bench):
        results = bench.bi.run_all()
        assert set(results) == set(range(1, 26))
