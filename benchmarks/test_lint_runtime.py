"""Experiment LINT — full-repo static analysis stays interactive.

The checker runs on every commit and three times inside the test
suite's meta-tests (lint, audit, CLI), so it must stay cheap enough
that nobody is tempted to skip it.  This benchmark times the two passes
CI actually runs over the whole ``src`` tree — the lint pass (R1, R2,
R4, R5, suppression filtering) and the dead-waiver audit (the same rules,
pre-suppression) — and asserts each completes within a few seconds,
so a new rule that parses or walks a file more than once shows up
here.  Recorded as
``BENCH_lint_runtime.json`` for ``make bench-compare``.
"""

from __future__ import annotations

import time
from pathlib import Path

from benchmarks._record import record
from repro.lint import audit_paths, lint_paths

SRC = Path(__file__).resolve().parent.parent / "src"

#: Hard ceiling per pass, seconds.  Locally the full tree runs in
#: well under a second; the budget leaves an order of magnitude of
#: headroom for slow CI runners without letting the analysis regress
#: into something developers would skip.
BUDGET_SECONDS = 5.0


def _timed(fn):
    start = time.perf_counter()
    diagnostics = fn([str(SRC)])
    return time.perf_counter() - start, diagnostics


def test_full_repo_lint_and_audit_run_within_budget(capsys):
    lint_seconds, lint_diags = _timed(lint_paths)
    audit_seconds, audit_diags = _timed(audit_paths)

    files = sum(1 for _ in SRC.rglob("*.py"))
    with capsys.disabled():
        print(
            f"\n[lint-runtime] {files} files: "
            f"lint {lint_seconds * 1e3:.0f} ms, "
            f"audit {audit_seconds * 1e3:.0f} ms "
            f"(budget {BUDGET_SECONDS:.0f} s/pass)"
        )

    # The tree is clean and the waiver inventory live — anything else
    # is a lint regression, not a performance one, but it would make
    # the timing meaningless (early exits), so pin it here too.
    assert lint_diags == []
    assert audit_diags == []

    assert lint_seconds < BUDGET_SECONDS
    assert audit_seconds < BUDGET_SECONDS

    record(
        "lint_runtime",
        files_analyzed=files,
        lint_seconds=round(lint_seconds, 4),
        audit_seconds=round(audit_seconds, 4),
        budget_seconds=BUDGET_SECONDS,
    )
