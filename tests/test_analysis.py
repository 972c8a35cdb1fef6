"""Tests for choke-point coverage (Table A.1) and reporting."""

import pytest

from repro.analysis.chokepoints import (
    APPENDIX_COVERAGE,
    CHOKE_POINTS,
    coverage_matrix,
    format_coverage_table,
    queries_covering,
)
from repro.analysis.report import (
    BenchmarkChecklist,
    SystemDetails,
    full_disclosure_report,
)
from repro.driver.runner import DriverReport, ResultsLogEntry


class TestChokePoints:
    def test_all_29_choke_points_registered(self):
        assert len(CHOKE_POINTS) == 29
        assert len({cp.identifier for cp in CHOKE_POINTS}) == 29

    def test_categories_valid(self):
        assert {cp.category for cp in CHOKE_POINTS} == {
            "QOPT", "QEXE", "STORAGE", "LANG",
        }

    def test_matrix_matches_appendix_lists(self):
        """The query metadata and the appendix transcription agree —
        Table A.1 is reproduced exactly."""
        matrix = coverage_matrix()
        assert set(matrix) == set(APPENDIX_COVERAGE)
        for cp, queries in APPENDIX_COVERAGE.items():
            assert matrix[cp] == queries, cp

    def test_every_bi_query_covers_a_choke_point(self):
        matrix = coverage_matrix()
        covered = set().union(*matrix.values())
        for number in range(1, 26):
            assert f"BI {number}" in covered

    def test_every_ic_query_covers_a_choke_point(self):
        matrix = coverage_matrix()
        covered = set().union(*matrix.values())
        for number in range(1, 15):
            assert f"IC {number}" in covered

    def test_cp_4_4_is_uncovered(self):
        # The spec lists no queries for CP-4.4 (string matching).
        assert queries_covering("4.4") == frozenset()

    def test_format_table_shape(self):
        text = format_coverage_table()
        lines = text.splitlines()
        assert len(lines) == 2 + len(CHOKE_POINTS)
        assert "1.1" in lines[2]


class TestChecklist:
    def test_format_mentions_every_item(self):
        text = BenchmarkChecklist().format()
        for fragment in (
            "Cross-validated", "ACID", "fault-tolerance", "Warmup",
            "Execution rounds", "summarized", "Loading", "experts",
        ):
            assert fragment in text


class TestFullDisclosureReport:
    def test_contains_all_sections(self):
        report = DriverReport(
            log=[ResultsLogEntry("IC 1", 0.0, 0.0, 0.001, 5)],
            wall_seconds=0.5,
        )
        text = full_disclosure_report("SF 0.01 (300 persons)", 1.25, report)
        for fragment in (
            "Full Disclosure Report", "System under test",
            "SF 0.01 (300 persons)", "Load time: 1.25 s", "IC 1",
            "Valid run", "Appendix C checklist",
        ):
            assert fragment in text

    def test_system_details_format(self):
        text = SystemDetails().format()
        assert "DBMS" in text and "Python" in text

    def test_collector_tuning_disclosed(self):
        report = DriverReport(log=[], wall_seconds=0.1)
        text = full_disclosure_report("SF 0.01", 1.0, report)
        (line,) = [l for l in text.splitlines() if l.startswith("SUT tuning")]
        assert "collector paused" in line
        for phase in ("SocialGraph.from_data", "snapfile.rebuild_store",
                      "FrozenGraph", "checkpoint"):
            assert phase in line
        assert "generate) runs with it enabled" in line
