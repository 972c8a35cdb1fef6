"""Shared lint infrastructure: per-file context and the rule protocol.

Every rule is a callable over one :class:`FileContext` — a parsed module
with its path classification, parent links and suppression index.  The
checker builds the context once per file and hands it to each rule, so
the file is read and parsed exactly once however many rules run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable

from repro.lint.diagnostics import Diagnostic
from repro.lint.suppressions import SuppressionIndex, parse_suppressions

#: A rule: FileContext -> diagnostics (pre-suppression).
Rule = Callable[["FileContext"], "list[Diagnostic]"]


@dataclass
class FileContext:
    """One parsed source file plus everything rules need to inspect it."""

    path: str
    source: str
    tree: ast.Module
    suppressions: SuppressionIndex
    #: Path components from the last ``repro`` segment on (exclusive),
    #: e.g. ``("queries", "bi", "q04.py")`` — how rules decide whether
    #: they apply to this file.
    module_parts: tuple[str, ...]
    _parents: dict[ast.AST, ast.AST] = field(default_factory=dict)

    @property
    def in_queries(self) -> bool:
        return "queries" in self.module_parts[:-1]

    @property
    def in_obs(self) -> bool:
        """Inside :mod:`repro.obs` — the one module allowed to read the
        clock wholesale (its timestamps never enter benchmark results)."""
        return "obs" in self.module_parts[:-1]

    @property
    def is_rng_module(self) -> bool:
        return self.module_parts[-2:] == ("util", "rng.py")

    def parent(self, node: ast.AST) -> ast.AST | None:
        if not self._parents:
            for outer in ast.walk(self.tree):
                for child in ast.iter_child_nodes(outer):
                    self._parents[child] = outer
        return self._parents.get(node)

    def diagnostic(
        self, node: ast.AST, rule: str, slug: str, message: str
    ) -> Diagnostic:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        return Diagnostic(
            path=self.path,
            line=line,
            col=col,
            rule=rule,
            slug=slug,
            message=message,
        )


def make_context(path: str, source: str) -> FileContext | Diagnostic:
    """Parse a file into a context, or a syntax-error diagnostic."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return Diagnostic(
            path=path,
            line=error.lineno or 1,
            col=(error.offset or 0) or 1,
            rule="R0",
            slug="syntax-error",
            message=f"file does not parse: {error.msg}",
        )
    parts = _pure_parts(path)
    if "repro" in parts:
        module_parts = parts[len(parts) - parts[::-1].index("repro"):]
    else:
        module_parts = parts
    return FileContext(
        path=path,
        source=source,
        tree=tree,
        suppressions=parse_suppressions(path, source),
        module_parts=module_parts,
    )


def _pure_parts(path: str) -> tuple[str, ...]:
    return tuple(part for part in path.replace("\\", "/").split("/") if part)

