"""Tests for the benchmark-invariant checker (``repro.lint``).

Three layers:

* rule fixtures — small good/bad snippets per rule, asserting the exact
  (line, rule, slug) of every finding;
* the CLI contract — exit codes 0/1/2 and the ``--format=github``
  annotation format, via subprocess;
* meta-tests — the repository's own ``src`` tree lints clean, and R2's
  copy of the store's raw table names agrees with ``SocialGraph``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.graph.store import SocialGraph
from repro.lint import Diagnostic, format_diagnostic, lint_source
from repro.lint.checker import audit_paths, audit_source, lint_paths
from repro.lint.rules_engine import RAW_STORE_COLLECTIONS

REPO_ROOT = Path(__file__).resolve().parent.parent

#: A path classified as query code.
QUERY_PATH = "src/repro/queries/bi/frag.py"
#: A path outside repro/queries/ (R2/R4 do not apply).
PLAIN_PATH = "src/repro/datagen/frag.py"


def slugs_at(diags: list[Diagnostic]) -> list[tuple[int, str, str]]:
    return [(d.line, d.rule, d.slug) for d in diags]


# ---------------------------------------------------------------------------
# R1 — determinism
# ---------------------------------------------------------------------------


class TestR1Determinism:
    def test_wall_clock_datetime_now(self):
        src = "import datetime\n\nstamp = datetime.datetime.now()\n"
        assert slugs_at(lint_source(PLAIN_PATH, src)) == [
            (3, "R1", "wall-clock")
        ]

    def test_wall_clock_time_time(self):
        src = "import time\n\nstart = time.time()\n"
        assert slugs_at(lint_source(PLAIN_PATH, src)) == [
            (3, "R1", "wall-clock")
        ]

    def test_perf_counter_is_fine(self):
        src = "import time\n\nstart = time.perf_counter()\n"
        assert lint_source(PLAIN_PATH, src) == []

    def test_monotonic_flagged(self):
        src = "import time\n\ndeadline = time.monotonic() + 5\n"
        assert slugs_at(lint_source(PLAIN_PATH, src)) == [
            (3, "R1", "wall-clock")
        ]

    def test_monotonic_ns_flagged(self):
        src = "import time\n\ndeadline = time.monotonic_ns()\n"
        assert slugs_at(lint_source(PLAIN_PATH, src)) == [
            (3, "R1", "wall-clock")
        ]

    def test_monotonic_with_reasoned_suppression(self):
        # Worker-pool deadline bookkeeping is waived per read, with a
        # reason, rather than exempting executor files wholesale.
        src = (
            "import time\n\n"
            "now = time.monotonic()"
            "  # lint: allow-wall-clock deadline check only\n"
        )
        assert lint_source(PLAIN_PATH, src) == []

    def test_import_random_flagged(self):
        src = "import random\n"
        assert slugs_at(lint_source(PLAIN_PATH, src)) == [
            (1, "R1", "raw-random")
        ]

    def test_from_random_import_flagged(self):
        src = "from random import shuffle\n"
        assert slugs_at(lint_source(PLAIN_PATH, src)) == [
            (1, "R1", "raw-random")
        ]

    def test_random_call_flagged(self):
        src = "x = random.choice(items)\n"
        assert slugs_at(lint_source(PLAIN_PATH, src)) == [
            (1, "R1", "raw-random")
        ]

    def test_rng_module_itself_is_exempt(self):
        src = "import random\n\nrng = random.Random(7)\n"
        assert lint_source("src/repro/util/rng.py", src) == []

    def test_filewide_clock_waiver_flagged_outside_obs(self):
        # The blanket waiver both gets reported (its own slug, so it
        # cannot waive itself) and still suppresses the read it covers.
        src = (
            "# lint: file-allow-wall-clock this whole file tells time\n"
            "import time\n\nnow = time.monotonic()\n"
        )
        assert slugs_at(lint_source(PLAIN_PATH, src)) == [
            (1, "R1", "filewide-clock-waiver")
        ]

    def test_filewide_clock_waiver_allowed_in_obs(self):
        src = (
            "# lint: file-allow-wall-clock tracer timestamps only\n"
            "import time\n\nnow = time.monotonic_ns()\n"
        )
        assert lint_source("src/repro/obs/spans.py", src) == []


# ---------------------------------------------------------------------------
# R2 — engine discipline
# ---------------------------------------------------------------------------


class TestR2EngineDiscipline:
    def test_private_index_access_flagged(self):
        src = "def q(graph):\n    return graph._friends[1]\n"
        assert slugs_at(lint_source(QUERY_PATH, src)) == [
            (2, "R2", "private-index")
        ]

    def test_raw_store_iteration_flagged(self):
        src = (
            "def q(graph):\n"
            "    for forum in graph.forums.values():\n"
            "        pass\n"
        )
        assert slugs_at(lint_source(QUERY_PATH, src)) == [
            (2, "R2", "raw-store")
        ]

    def test_messages_full_scan_flagged(self):
        src = "def q(graph):\n    return sorted(graph.messages())\n"
        assert slugs_at(lint_source(QUERY_PATH, src)) == [
            (2, "R2", "raw-store")
        ]

    def test_point_access_is_sanctioned(self):
        src = (
            "def q(graph, pid):\n"
            "    if pid in graph.persons:\n"
            "        p = graph.persons[pid]\n"
            "    q = graph.persons.get(pid)\n"
            "    return len(graph.persons)\n"
        )
        assert lint_source(QUERY_PATH, src) == []

    def test_outside_queries_not_checked(self):
        src = "def load(graph):\n    return list(graph.forums.values())\n"
        assert lint_source(PLAIN_PATH, src) == []

    def test_frozen_import_flagged(self):
        src = "from repro.graph.frozen import FrozenGraph\n"
        assert slugs_at(lint_source(QUERY_PATH, src)) == [
            (1, "R2", "frozen-import")
        ]

    def test_frozen_module_import_flagged(self):
        src = "import repro.graph.frozen\n"
        assert slugs_at(lint_source(QUERY_PATH, src)) == [
            (1, "R2", "frozen-import")
        ]

    def test_frozen_via_package_import_flagged(self):
        src = "from repro.graph import frozen\n"
        assert slugs_at(lint_source(QUERY_PATH, src)) == [
            (1, "R2", "frozen-import")
        ]

    def test_delta_import_flagged(self):
        src = "from repro.graph.delta import DeltaOverlay\n"
        assert slugs_at(lint_source(QUERY_PATH, src)) == [
            (1, "R2", "frozen-import")
        ]

    def test_delta_module_import_flagged(self):
        src = "import repro.graph.delta\n"
        assert slugs_at(lint_source(QUERY_PATH, src)) == [
            (1, "R2", "frozen-import")
        ]

    def test_delta_via_package_import_flagged(self):
        src = "from repro.graph import delta\n"
        assert slugs_at(lint_source(QUERY_PATH, src)) == [
            (1, "R2", "frozen-import")
        ]

    def test_other_graph_imports_allowed(self):
        src = "from repro.graph.store import SocialGraph\n"
        assert lint_source(QUERY_PATH, src) == []

    def test_frozen_import_outside_queries_allowed(self):
        src = "from repro.graph.frozen import freeze\n"
        assert lint_source(PLAIN_PATH, src) == []

    def test_delta_import_outside_queries_allowed(self):
        src = "from repro.graph.delta import DeltaOverlay\n"
        assert lint_source(PLAIN_PATH, src) == []


# ---------------------------------------------------------------------------
# R4 — total-order sorts
# ---------------------------------------------------------------------------


class TestR4TotalOrderSorts:
    def test_non_unique_terminal_flagged(self):
        src = "def q(rows):\n    rows.sort(key=lambda r: (-r.count, r.month))\n"
        assert slugs_at(lint_source(QUERY_PATH, src)) == [
            (2, "R4", "partial-order")
        ]

    def test_id_terminal_is_fine(self):
        src = (
            "def q(rows):\n"
            "    rows.sort(key=lambda r: (-r.count, r.person_id))\n"
        )
        assert lint_source(QUERY_PATH, src) == []

    def test_name_terminal_is_fine(self):
        src = "def q(rows):\n    return sorted(rows, key=lambda r: r.tag_name)\n"
        assert lint_source(QUERY_PATH, src) == []

    def test_sort_key_terminal_unpacked(self):
        good = (
            "def q(rows):\n"
            "    top = top_k(10, key=lambda r: sort_key(\n"
            "        (r.count, True), (r.tag_id, False)))\n"
        )
        assert lint_source(QUERY_PATH, good) == []
        bad = good.replace("r.tag_id", "r.month")
        assert slugs_at(lint_source(QUERY_PATH, bad)) == [
            (2, "R4", "partial-order")
        ]

    def test_opaque_key_flagged(self):
        src = "def q(rows):\n    return sorted(rows, key=lambda t: t[0])\n"
        assert slugs_at(lint_source(QUERY_PATH, src)) == [
            (2, "R4", "partial-order")
        ]

    def test_outside_queries_not_checked(self):
        src = "def q(rows):\n    rows.sort(key=lambda r: r.month)\n"
        assert lint_source(PLAIN_PATH, src) == []


# ---------------------------------------------------------------------------
# R5 — observability discipline
# ---------------------------------------------------------------------------


class TestR5ObsDiscipline:
    def test_obs_import_in_query_flagged(self):
        src = "from repro.obs.spans import span\n"
        assert slugs_at(lint_source(QUERY_PATH, src)) == [
            (1, "R5", "obs-in-queries")
        ]

    def test_obs_module_import_in_query_flagged(self):
        src = "import repro.obs.metrics\n"
        assert slugs_at(lint_source(QUERY_PATH, src)) == [
            (1, "R5", "obs-in-queries")
        ]

    def test_obs_import_outside_queries_is_fine(self):
        # The engine and driver are exactly where instrumentation lives.
        src = "from repro.obs.spans import span\n"
        assert lint_source(PLAIN_PATH, src) == []

    def test_now_us_call_outside_obs_flagged(self):
        src = (
            "from repro.obs.spans import span\n\n"
            "stamp = spans.now_us()\n"
        )
        assert slugs_at(lint_source(PLAIN_PATH, src)) == [
            (3, "R5", "obs-raw-clock")
        ]

    def test_now_us_import_outside_obs_flagged(self):
        src = "from repro.obs.spans import now_us\n"
        assert slugs_at(lint_source(PLAIN_PATH, src)) == [
            (1, "R5", "obs-raw-clock")
        ]

    def test_now_us_inside_obs_is_fine(self):
        src = "def now_us():\n    return 0\n\nstamp = now_us()\n"
        assert lint_source("src/repro/obs/metrics.py", src) == []

    def test_current_frames_outside_profiler_flagged(self):
        src = "import sys\n\nframes = sys._current_frames()\n"
        assert slugs_at(lint_source(PLAIN_PATH, src)) == [
            (3, "R5", "obs-raw-frames")
        ]

    def test_setprofile_flagged(self):
        src = "import sys\n\nsys.setprofile(lambda *a: None)\n"
        assert slugs_at(lint_source(PLAIN_PATH, src)) == [
            (3, "R5", "obs-raw-frames")
        ]

    def test_settrace_flagged(self):
        src = "import sys\n\nsys.settrace(None)\n"
        assert slugs_at(lint_source(PLAIN_PATH, src)) == [
            (3, "R5", "obs-raw-frames")
        ]

    def test_current_frames_in_other_obs_module_flagged(self):
        # The exemption is the profiler module alone, not all of obs.
        src = "import sys\n\nframes = sys._current_frames()\n"
        assert slugs_at(
            lint_source("src/repro/obs/timeline.py", src)
        ) == [(3, "R5", "obs-raw-frames")]

    def test_current_frames_in_profiler_is_fine(self):
        src = "import sys\n\nframes = sys._current_frames()\n"
        assert lint_source("src/repro/obs/prof.py", src) == []


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------


class TestSuppressions:
    BAD_SORT = "rows.sort(key=lambda r: (-r.count, r.month))"

    def test_trailing_comment_suppresses(self):
        src = (
            "def q(rows):\n"
            f"    {self.BAD_SORT}"
            "  # lint: allow-partial-order month is the group key\n"
        )
        assert lint_source(QUERY_PATH, src) == []

    def test_comment_above_suppresses(self):
        src = (
            "def q(rows):\n"
            "    # lint: allow-partial-order month is the group key\n"
            f"    {self.BAD_SORT}\n"
        )
        assert lint_source(QUERY_PATH, src) == []

    def test_suppression_does_not_leak_two_lines_down(self):
        src = (
            "def q(rows):\n"
            "    # lint: allow-partial-order month is the group key\n"
            "    pass\n"
            f"    {self.BAD_SORT}\n"
        )
        assert slugs_at(lint_source(QUERY_PATH, src)) == [
            (4, "R4", "partial-order")
        ]

    def test_file_allow_covers_whole_file(self):
        src = (
            "# lint: file-allow-partial-order reference impl, full sorts\n"
            "def q(rows):\n"
            f"    {self.BAD_SORT}\n"
            f"    {self.BAD_SORT}\n"
        )
        assert lint_source(QUERY_PATH, src) == []

    def test_other_slugs_not_suppressed(self):
        src = (
            "def q(graph):\n"
            "    # lint: allow-partial-order irrelevant to this line\n"
            "    return graph._friends[1]\n"
        )
        assert slugs_at(lint_source(QUERY_PATH, src)) == [
            (3, "R2", "private-index")
        ]

    def test_bare_suppression_is_itself_reported_and_inert(self):
        src = (
            "def q(rows):\n"
            "    # lint: allow-partial-order\n"
            f"    {self.BAD_SORT}\n"
        )
        # A reason-less waiver is reported AND does not waive anything.
        assert slugs_at(lint_source(QUERY_PATH, src)) == [
            (2, "R0", "bare-suppression"),
            (3, "R4", "partial-order"),
        ]

    def test_syntax_error_reported_not_raised(self):
        diags = lint_source(PLAIN_PATH, "def broken(:\n")
        assert slugs_at(diags) == [(1, "R0", "syntax-error")]

    def test_comment_on_paren_continuation_line_suppresses(self):
        # The diagnostic anchors at the statement's first line (2); the
        # waiver sits two physical lines down, inside the open paren.
        src = (
            "def q(rows):\n"
            "    rows.sort(\n"
            "        key=lambda r: (\n"
            "            # lint: allow-partial-order month is the group key\n"
            "            -r.count, r.month))\n"
        )
        assert lint_source(QUERY_PATH, src) == []

    def test_comment_on_backslash_continuation_suppresses(self):
        src = (
            "def q(rows):\n"
            "    rows.sort(key=lambda r: \\\n"
            "        (-r.count, r.month))"
            "  # lint: allow-partial-order month is the group key\n"
        )
        assert lint_source(QUERY_PATH, src) == []

    def test_lint_marker_inside_string_is_not_a_waiver(self):
        src = (
            "DOC = '# lint: allow-partial-order not a real waiver'\n"
            "def q(rows):\n"
            f"    {self.BAD_SORT}\n"
        )
        assert slugs_at(lint_source(QUERY_PATH, src)) == [
            (3, "R4", "partial-order")
        ]


# ---------------------------------------------------------------------------
# Suppression audit (--audit-suppressions)
# ---------------------------------------------------------------------------


class TestSuppressionAudit:
    BAD_SORT = "rows.sort(key=lambda r: (-r.count, r.month))"

    def test_live_waiver_not_reported(self):
        src = (
            "def q(rows):\n"
            f"    {self.BAD_SORT}"
            "  # lint: allow-partial-order month is the group key\n"
        )
        assert audit_source(QUERY_PATH, src) == []

    def test_dead_line_waiver_reported(self):
        src = (
            "def q(rows):\n"
            "    # lint: allow-partial-order nothing to waive here\n"
            "    return sorted(rows)\n"
        )
        assert slugs_at(audit_source(QUERY_PATH, src)) == [
            (2, "R0", "dead-suppression")
        ]

    def test_dead_filewide_waiver_reported(self):
        src = (
            "# lint: file-allow-raw-store no raw access left\n"
            "def q(rows):\n"
            "    return sorted(rows)\n"
        )
        assert slugs_at(audit_source(QUERY_PATH, src)) == [
            (1, "R0", "dead-suppression")
        ]

    def test_wrong_slug_waiver_is_dead(self):
        # The waiver covers the right line but names the wrong rule.
        src = (
            "def q(rows):\n"
            f"    {self.BAD_SORT}"
            "  # lint: allow-raw-store wrong slug for this line\n"
        )
        assert slugs_at(audit_source(QUERY_PATH, src)) == [
            (2, "R0", "dead-suppression")
        ]

    def test_bare_suppression_not_double_reported(self):
        # Reason-less waivers are R0/bare-suppression in lint mode, not
        # audit findings — they never suppressed anything to begin with.
        src = (
            "def q(rows):\n"
            "    # lint: allow-partial-order\n"
            f"    {self.BAD_SORT}\n"
        )
        assert audit_source(QUERY_PATH, src) == []


# ---------------------------------------------------------------------------
# CLI contract (exit codes, formats)
# ---------------------------------------------------------------------------


def run_cli(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        capture_output=True, text=True, env=env, cwd=cwd,
    )


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        proc = run_cli(str(clean), cwd=tmp_path)
        assert proc.returncode == 0
        assert proc.stdout == ""

    def test_violation_exits_one(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        proc = run_cli(str(bad), cwd=tmp_path)
        assert proc.returncode == 1
        assert "R1[raw-random]" in proc.stdout
        assert "1 violation(s)" in proc.stderr

    def test_missing_path_exits_two(self, tmp_path):
        proc = run_cli("no/such/path.py", cwd=tmp_path)
        assert proc.returncode == 2
        assert "no such file" in proc.stderr

    def test_no_arguments_exits_two(self, tmp_path):
        proc = run_cli(cwd=tmp_path)
        assert proc.returncode == 2

    def test_github_format(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        proc = run_cli(str(bad), "--format=github", cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stdout.startswith("::error file=")
        assert "title=R1 raw-random" in proc.stdout

    def test_directory_traversal(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "a.py").write_text("import random\n")
        (pkg / "b.py").write_text("import time\n\nt = time.time()\n")
        proc = run_cli(str(pkg), cwd=tmp_path)
        assert proc.returncode == 1
        assert "2 violation(s)" in proc.stderr

    def test_audit_dead_waiver_exits_one(self, tmp_path):
        bad = tmp_path / "waived.py"
        bad.write_text(
            "# lint: file-allow-raw-store nothing raw here any more\n"
            "x = 1\n"
        )
        proc = run_cli(str(bad), "--audit-suppressions", cwd=tmp_path)
        assert proc.returncode == 1
        assert "R0[dead-suppression]" in proc.stdout
        assert "1 dead waiver(s)" in proc.stderr

    def test_audit_clean_exits_zero(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        proc = run_cli(str(clean), "--audit-suppressions", cwd=tmp_path)
        assert proc.returncode == 0
        assert proc.stdout == ""

    def test_audit_github_format(self, tmp_path):
        bad = tmp_path / "waived.py"
        bad.write_text("# lint: file-allow-raw-store dead waiver\nx = 1\n")
        proc = run_cli(
            str(bad), "--audit-suppressions", "--format=github", cwd=tmp_path
        )
        assert proc.returncode == 1
        assert proc.stdout.startswith("::error file=")

    def test_select_option_removed_exits_two(self, tmp_path):
        """Every run uses every rule: a per-family subset made the
        waiver audit report live waivers as dead."""
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        proc = run_cli(str(clean), "--select", "R1", cwd=tmp_path)
        assert proc.returncode == 2
        assert "--select" in proc.stderr


def test_format_diagnostic_text():
    diag = Diagnostic("a.py", 3, 5, "R2", "raw-store", "msg")
    assert format_diagnostic(diag) == "a.py:3:5: R2[raw-store] msg"


# ---------------------------------------------------------------------------
# Meta: the repository itself lints clean
# ---------------------------------------------------------------------------


def test_repository_src_is_clean():
    diags = lint_paths([str(REPO_ROOT / "src")])
    assert diags == [], "\n".join(format_diagnostic(d) for d in diags)


def test_repository_waiver_inventory_has_no_dead_waivers():
    diags = audit_paths([str(REPO_ROOT / "src")])
    assert diags == [], "\n".join(format_diagnostic(d) for d in diags)


def test_cli_on_repository_src_exits_zero():
    proc = run_cli("src", cwd=REPO_ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr


# ---------------------------------------------------------------------------
# Meta: R2's copy of the store's table names agrees with the store
# ---------------------------------------------------------------------------


class TestSpecTranscriptionsInSync:
    def test_raw_collections_match_store_surface(self):
        assert RAW_STORE_COLLECTIONS == SocialGraph.RAW_TABLES
        graph = SocialGraph()
        for name in RAW_STORE_COLLECTIONS:
            assert hasattr(graph, name), name
