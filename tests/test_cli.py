"""Tests for the command-line interface (python -m repro)."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def no_network(monkeypatch):
    """Fail the test if the CLI gets as far as generating a network."""
    def never(args):
        raise AssertionError("the network was generated")

    monkeypatch.setattr("repro.cli._bench", never)


class TestGenerate:
    def test_generates_all_artefacts(self, tmp_path, capsys):
        code = main([
            "generate", "--persons", "80", "--seed", "5",
            "--output", str(tmp_path), "--bindings", "3", "--deletes",
        ])
        assert code == 0
        assert (tmp_path / "social_network" / "dynamic" / "person_0_0.csv").exists()
        assert (tmp_path / "social_network" / "updateStream_0_0_forum.csv").exists()
        assert (tmp_path / "social_network" / "deleteStream_0_0.csv").exists()
        params_dir = tmp_path / "substitution_parameters"
        assert (params_dir / "interactive_1_param.txt").exists()
        assert (params_dir / "bi_25_param.txt").exists()
        out = capsys.readouterr().out
        assert "generated 80 persons" in out

    def test_parameter_files_are_json_lines(self, tmp_path):
        main([
            "generate", "--persons", "80", "--seed", "5",
            "--output", str(tmp_path), "--bindings", "2",
        ])
        path = tmp_path / "substitution_parameters" / "bi_12_param.txt"
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert set(record) == {"date", "likeThreshold"}

    def test_turtle_format(self, tmp_path):
        main([
            "generate", "--persons", "80", "--seed", "5",
            "--output", str(tmp_path), "--format", "Turtle",
        ])
        assert (tmp_path / "social_network" / "0_ldbc_socialnet.ttl").exists()


class TestRun:
    """The ``run`` command, BI and Interactive."""

    def test_bi_power_is_the_default(self, capsys):
        code = main(["run", "--persons", "80", "--workers", "2"])
        assert code == 0
        assert "power@SF" in capsys.readouterr().out

    def test_bi_concurrent_mode(self, capsys):
        code = main([
            "run", "--persons", "80", "--mode", "concurrent",
            "--workers", "2",
        ])
        assert code == 0
        assert "q/s" in capsys.readouterr().out

    def test_interactive_workload(self, capsys):
        code = main([
            "run", "--workload", "interactive", "--persons", "80",
            "--updates", "100",
        ])
        assert code == 0
        assert "ops/s" in capsys.readouterr().out

    def test_results_dir_records_envelope(self, tmp_path, capsys):
        code = main([
            "run", "--workload", "interactive", "--persons", "80",
            "--updates", "60", "--deletes",
            "--results-dir", str(tmp_path / "results"),
        ])
        assert code == 0
        config = json.loads(
            (tmp_path / "results" / "configuration.json").read_text()
        )
        assert config["workload"] == "interactive"
        assert config["mode"] == "driver"
        assert config["workers"] == 1
        assert config["timeout"] is None
        assert config["max_updates"] == 60
        assert config["include_deletes"] is True
        assert config["persons"] == 80

    @pytest.mark.parametrize("mode,workers", [("power", 1), ("concurrent", 4)])
    def test_results_dir_discloses_defaults(
        self, tmp_path, capsys, mode, workers
    ):
        """With no flags, ``configuration.json`` still records the
        worker count the mode ran with and the snapshot settings."""
        results = tmp_path / "results"
        code = main([
            "run", "--persons", "80", "--mode", mode,
            "--results-dir", str(results),
        ])
        assert code == 0
        config = json.loads((results / "configuration.json").read_text())
        summary = json.loads((results / "results_summary.json").read_text())
        assert config["workers"] == workers
        assert summary["exec"]["workers"] == workers
        assert config["snapshot"] == {
            "provider": "inline",
            "freeze": True,
            "compact_fraction": 0.25,
            "morsel_size": None,
        }

    def test_throughput_mode_on_two_workers(self, capsys):
        code = main([
            "run", "--persons", "80", "--mode", "throughput",
            "--workers", "2",
        ])
        assert code == 0
        assert "microbatches" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [
        ["run-bi", "--persons", "80", "--query", "2"],
        ["run-interactive", "--persons", "80"],
        ["run", "--persons", "80", "--throughput"],
    ])
    def test_legacy_spellings_are_usage_errors(self, no_network, command):
        """One spelling per run: ``run --workload …`` and ``--mode``."""
        with pytest.raises(SystemExit) as exit_info:
            main(command)
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("option, value", [
        ("--persons", "0"),
        ("--workers", "0"),
        ("--morsel-size", "0"),
        ("--timeout", "-1"),
        ("--timeout", "0"),
        ("--updates", "-3"),
        ("--tcr", "-1"),
        ("--tcr", "nan"),
        ("--tcr", "inf"),
    ])
    def test_bad_number_is_a_usage_error_before_generating(
        self, no_network, capsys, option, value
    ):
        with pytest.raises(SystemExit) as exit_info:
            main([
                "run", "--workload", "interactive", "--persons", "40",
                "--updates", "20", option, value,
            ])
        assert exit_info.value.code == 2
        assert option in capsys.readouterr().err

    @pytest.mark.parametrize("option, value", [
        ("--workers", "1"),
        ("--workers", "2"),
        ("--timeout", "30"),
    ])
    def test_pool_setting_is_an_interactive_usage_error(
        self, no_network, capsys, option, value
    ):
        """The Interactive driver replays serially: a pool setting is
        refused before generating rather than silently ignored."""
        with pytest.raises(SystemExit) as exit_info:
            main([
                "run", "--workload", "interactive", "--persons", "40",
                "--updates", "20", option, value,
            ])
        assert exit_info.value.code == 2
        assert option in capsys.readouterr().err


class TestRunBi:
    def test_single_query(self, capsys):
        code = main([
            "run", "--persons", "80", "--query", "1", "--limit", "2",
        ])
        assert code == 0
        assert "-- BI 1:" in capsys.readouterr().out

    def test_power_test(self, capsys):
        code = main(["run", "--persons", "80"])
        assert code == 0
        out = capsys.readouterr().out
        assert "power@SF" in out and "BI 25" in out


class TestRunInteractive:
    def test_driver_run(self, capsys):
        code = main([
            "run", "--workload", "interactive", "--persons", "80",
            "--updates", "100",
        ])
        assert code == 0
        assert "ops/s" in capsys.readouterr().out

    def test_fdr_output(self, capsys):
        code = main([
            "run", "--workload", "interactive", "--persons", "80", "--updates", "50", "--fdr",
        ])
        assert code == 0
        assert "Full Disclosure Report" in capsys.readouterr().out

    def test_with_deletes(self, capsys):
        code = main([
            "run", "--workload", "interactive", "--persons", "80", "--updates", "200",
            "--deletes",
        ])
        assert code == 0


class TestValidate:
    def test_create_then_check(self, tmp_path, capsys):
        path = tmp_path / "validation.json"
        assert main([
            "validate", "--persons", "80", "--seed", "5", str(path),
            "--create", "--bindings", "1",
        ]) == 0
        assert path.exists()
        assert main([
            "validate", "--persons", "80", "--seed", "5", str(path),
        ]) == 0
        assert "OK" in capsys.readouterr().out

    def test_check_fails_for_different_seed(self, tmp_path, capsys):
        path = tmp_path / "validation.json"
        main([
            "validate", "--persons", "80", "--seed", "5", str(path),
            "--create", "--bindings", "1",
        ])
        code = main(["validate", "--persons", "80", "--seed", "6", str(path)])
        assert code == 1
        assert "FAILED" in capsys.readouterr().out


class TestReport:
    def test_chokepoints(self, capsys):
        assert main(["report", "chokepoints"]) == 0
        assert "CP" in capsys.readouterr().out

    def test_scale_factors(self, capsys):
        assert main(["report", "scale-factors"]) == 0
        assert "1500" in capsys.readouterr().out


class TestParameterFiles:
    def test_roundtrip(self, tmp_path, small_params):
        from repro.params.files import (
            BI_PARAM_NAMES,
            INTERACTIVE_PARAM_NAMES,
            read_parameter_file,
            write_parameter_files,
        )

        root = write_parameter_files(small_params, tmp_path, bindings_per_query=3)
        for number, names in INTERACTIVE_PARAM_NAMES.items():
            bindings = read_parameter_file(
                root / f"interactive_{number}_param.txt", names
            )
            assert bindings == [
                tuple(b) for b in small_params.interactive(number, count=3)
            ]
        for number, names in BI_PARAM_NAMES.items():
            path = root / f"bi_{number}_param.txt"
            parsed = read_parameter_file(path, names)
            original = small_params.bi(number, count=3)
            assert len(parsed) == len(original)

    def test_read_back_bindings_run(self, tmp_path, small_graph, small_params):
        from repro.params.files import (
            BI_PARAM_NAMES,
            read_parameter_file,
            write_parameter_files,
        )
        from repro.queries.bi import ALL_QUERIES

        root = write_parameter_files(small_params, tmp_path, bindings_per_query=2)
        for number, names in BI_PARAM_NAMES.items():
            bindings = read_parameter_file(root / f"bi_{number}_param.txt", names)
            for binding in bindings:
                ALL_QUERIES[number][0](small_graph, *binding)


class TestResultsDir:
    def test_results_directory_written(self, tmp_path, capsys):
        code = main([
            "run", "--workload", "interactive", "--persons", "80", "--updates", "100",
            "--results-dir", str(tmp_path / "results"),
        ])
        assert code == 0
        results = tmp_path / "results"
        assert (results / "configuration.json").exists()
        assert (results / "results_log.csv").exists()
        summary = json.loads((results / "results_summary.json").read_text())
        assert summary["total_operations"] >= 100
        assert "per_operation" in summary
        config = json.loads((results / "configuration.json").read_text())
        assert config["persons"] == 80
