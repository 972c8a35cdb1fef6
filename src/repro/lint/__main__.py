"""CLI: ``python -m repro.lint <path>... [options]``.

Runs every rule (R1–R5) over the given files and directory trees.
Options: ``--format {text,github}`` (github = workflow annotations)
and ``--audit-suppressions`` (report waivers that no longer suppress
any diagnostic instead of linting).  There is no per-family selection:
a waiver is dead only if *no* rule would fire under it, so the audit
needs the full rule set.

Exit codes: 0 clean, 1 violations (or dead waivers) found, 2 usage
error (bad flag, nonexistent path).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.lint.checker import audit_paths, lint_paths
from repro.lint.diagnostics import format_diagnostic


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "AST benchmark-invariant checker: determinism (R1), "
            "engine discipline (R2), query contracts (R3), "
            "total-order sorts (R4), observability discipline (R5)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="+",
        help="Python files or directory trees to check",
    )
    parser.add_argument(
        "--format",
        choices=("text", "github"),
        default="text",
        help="diagnostic format (github = workflow annotations)",
    )
    parser.add_argument(
        "--audit-suppressions",
        action="store_true",
        help=(
            "audit the waiver inventory: report '# lint: allow-*' "
            "comments that no longer suppress any diagnostic"
        ),
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        # argparse exits 2 on usage errors and 0 on --help; keep both.
        return int(exit_.code or 0)
    runner = audit_paths if args.audit_suppressions else lint_paths
    try:
        diagnostics = runner(args.paths)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    for diag in diagnostics:
        print(format_diagnostic(diag, args.format))
    if diagnostics:
        noun = "dead waiver(s)" if args.audit_suppressions else "violation(s)"
        print(f"{len(diagnostics)} {noun} found", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
