"""``repro.lint`` — AST benchmark-invariant checker.

The LDBC auditing rules (spec section 7) demand properties that unit
tests cannot economically pin down for every future query: runs must be
deterministic, queries must go through the instrumented operator layer,
and all result orderings must be total.  This package checks those
invariants *statically*, so a refactor that reintroduces unseeded
randomness or bypasses the operator layer fails CI before it can
silently skew benchmark results.

Rules (see ``docs/LINTING.md`` for rationale, examples and what each
rule has caught):

* **R1 determinism** — no wall-clock reads or stdlib ``random`` outside
  :mod:`repro.util.rng`.
* **R2 engine discipline** — query modules compose
  :mod:`repro.engine` operators instead of touching the store's private
  indexes or iterating its raw entity/relation tables.
* **R4 total-order sorts** — every sort key ends in a unique-id
  tie-breaker (heuristic, suppressible).
* **R5 observability discipline** — span/metric usage stays inside the
  sanctioned :mod:`repro.obs` surfaces.

Rule numbers are stable; R3 (query contracts) is gone.  Invariants that
only hold of running code are runtime tests, not rules: each query's
metadata, row type and signature against the registries, and its rows
across permuted loads and hash seeds (``tests/test_query_contracts.py``);
snapshot tables shared by identity and frozen columns never mutated
(``tests/test_frozen_aliasing.py``); results independent of the worker
count (``tests/test_exec.py``).

Run with ``python -m repro.lint src`` (exit 0 clean / 1 violations /
2 usage error), audit the waiver inventory with
``python -m repro.lint src --audit-suppressions``, or go through
``tests/test_lint.py``.
"""

from repro.lint.checker import audit_paths, audit_source, lint_paths, lint_source
from repro.lint.diagnostics import Diagnostic, format_diagnostic
from repro.lint.rules import ALL_RULES

__all__ = [
    "ALL_RULES",
    "Diagnostic",
    "audit_paths",
    "audit_source",
    "format_diagnostic",
    "lint_paths",
    "lint_source",
]
