"""Tests for the public facade (repro.SocialNetworkBenchmark)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import SocialNetworkBenchmark


@pytest.fixture(scope="module")
def bench():
    return SocialNetworkBenchmark.generate(num_persons=150, seed=31)


class TestConstruction:
    def test_requires_exactly_one_size_argument(self):
        with pytest.raises(ValueError):
            SocialNetworkBenchmark.generate()
        with pytest.raises(ValueError):
            SocialNetworkBenchmark.generate(num_persons=10, scale_factor=1.0)

    def test_scale_factor_path(self):
        bench = SocialNetworkBenchmark.generate(scale_factor=0.0005, seed=1)
        assert 10 <= len(bench.graph.persons) <= 200

    def test_bulk_graph_excludes_stream_events(self, bench):
        assert bench.graph.node_count() < bench.network.node_count()

    def test_load_time_recorded(self, bench):
        assert bench.load_seconds > 0

    def test_scale_factor_estimate(self, bench):
        assert 0 < bench.scale_factor < 0.1


class TestWorkloads:
    def test_bi_run_with_curated_params(self, bench):
        rows = bench.bi.run(1)
        assert rows

    def test_bi_run_with_explicit_params(self, bench):
        rows = bench.bi.run(13, "India")
        assert isinstance(rows, list)

    def test_bi_run_all(self, bench):
        results = bench.bi.run_all()
        assert set(results) == set(range(1, 26))

    def test_interactive_complex(self, bench):
        rows = bench.interactive.run_complex(9)
        assert isinstance(rows, list)

    def test_interactive_short(self, bench):
        person = next(iter(bench.graph.persons))
        assert bench.interactive.run_short(1, person)


class TestDriver:
    def test_run_driver_produces_report(self, bench):
        fresh = SocialNetworkBenchmark(bench.network)
        report = fresh.run_driver(max_updates=150)
        assert report.total_operations >= 150
        assert report.throughput > 0

    @pytest.mark.parametrize(
        "options",
        [{"time_compression_ratio": -1.0},
         {"time_compression_ratio": float("nan")},
         {"time_compression_ratio": float("inf")},
         {"max_updates": -5}],
        ids=["tcr-negative", "tcr-nan", "tcr-inf", "updates-negative"],
    )
    def test_run_driver_rejects_nonsense_pacing(self, bench, options):
        """Each of these ran and exited 0: a negative TCR reported a
        few on-time operations, NaN none, and ``max_updates=-5`` ran
        every update but the last five."""
        with pytest.raises(ValueError):
            SocialNetworkBenchmark(bench.network).run_driver(**options)


class TestExport:
    def test_export_csv_and_streams(self, bench, tmp_path):
        root = bench.export(tmp_path)
        assert (root / "dynamic" / "person_0_0.csv").exists()
        assert (root / "updateStream_0_0_forum.csv").exists()

    def test_export_turtle(self, bench, tmp_path):
        root = bench.export(tmp_path, variant="Turtle")
        assert (root / "0_ldbc_socialnet.ttl").exists()


class TestValidation:
    def test_validation_roundtrip(self, bench):
        validation_set = bench.create_validation_set(bindings_per_query=1)
        assert bench.validate(validation_set) == []


class TestLazyPackage:
    def test_submodule_import_skips_the_facade(self):
        script = (
            "import sys, repro.graph.snapfile\n"
            "assert 'repro.core.api' not in sys.modules\n"
            "from repro import SocialGraph, generate, SocialNetworkBenchmark\n"
            "assert SocialNetworkBenchmark.__module__ == 'repro.core.api'\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert result.returncode == 0, result.stderr

    def test_exports_unchanged(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None
        with pytest.raises(AttributeError):
            repro.no_such_name
