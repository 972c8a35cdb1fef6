"""The checker driver: expand paths, run rules, filter suppressions."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.lint.base import make_context
from repro.lint.diagnostics import Diagnostic
from repro.lint.rules import ALL_RULES

def _SORT_KEY(diag: Diagnostic) -> tuple[str, int, int, str, str]:
    return (diag.path, diag.line, diag.col, diag.rule, diag.slug)


def lint_source(path: str, source: str) -> list[Diagnostic]:
    """Lint one in-memory module; returns post-suppression diagnostics."""
    context = make_context(path, source)
    if isinstance(context, Diagnostic):
        return [context]
    found: list[Diagnostic] = list(context.suppressions.problems)
    for rule in ALL_RULES:
        for diag in rule(context):
            if not context.suppressions.is_suppressed(diag.slug, diag.line):
                found.append(diag)
    found.sort(key=_SORT_KEY)
    return found


def audit_source(path: str, source: str) -> list[Diagnostic]:
    """Audit one module's waiver inventory: rerun the rules *without*
    suppression filtering and report every waiver whose slug/scope
    matches none of the raw diagnostics (``R0``/``dead-suppression``)."""
    context = make_context(path, source)
    if isinstance(context, Diagnostic):
        return [context]
    raw: list[Diagnostic] = []
    for rule in ALL_RULES:
        raw.extend(rule(context))
    dead = context.suppressions.dead_waivers(raw)
    dead.sort(key=_SORT_KEY)
    return dead


def _expand_paths(paths: Iterable[str]) -> list[Path]:
    """Files and directory trees (``*.py``, sorted traversal).

    Raises :class:`FileNotFoundError` for a path that does not exist —
    the CLI maps that to exit code 2 (usage error), because a silently
    skipped path would report "clean" without having checked anything.
    """
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            files.append(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
    return files


def lint_paths(paths: Iterable[str]) -> list[Diagnostic]:
    """Lint files and directory trees (see :func:`_expand_paths`)."""
    found: list[Diagnostic] = []
    for file in _expand_paths(paths):
        found.extend(
            lint_source(str(file), file.read_text(encoding="utf-8"))
        )
    return found


def audit_paths(paths: Iterable[str]) -> list[Diagnostic]:
    """Audit waiver inventories across files and directory trees."""
    found: list[Diagnostic] = []
    for file in _expand_paths(paths):
        found.extend(
            audit_source(str(file), file.read_text(encoding="utf-8"))
        )
    return found
