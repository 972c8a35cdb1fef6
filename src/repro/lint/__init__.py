"""``repro.lint`` — AST benchmark-invariant checker.

The LDBC auditing rules (spec section 7) demand properties that unit
tests cannot economically pin down for every future query: runs must be
deterministic, every query's declared metadata must match what the code
does, and all result orderings must be total.  This package checks those
invariants *statically*, so a refactor that reintroduces unseeded
randomness or bypasses the instrumented operator layer fails CI before
it can silently skew benchmark results.

Rules (see ``docs/LINTING.md`` for rationale and examples):

* **R1 determinism** — no wall-clock reads or stdlib ``random`` outside
  :mod:`repro.util.rng`; no result lists built by iterating unordered
  collections without an ordering step.
* **R2 engine discipline** — query modules compose
  :mod:`repro.engine` operators instead of touching the store's private
  indexes or iterating its raw entity/relation tables.
* **R3 query contracts** — each BI/IC module's ``INFO`` metadata
  (number, choke points, limit), row type and entry-point signature
  agree with the spec transcriptions.
* **R4 total-order sorts** — every sort key ends in a unique-id
  tie-breaker (heuristic, suppressible).
* **R5 observability discipline** — span/metric usage stays inside the
  sanctioned :mod:`repro.obs` surfaces.

Invariants that only hold of running code — snapshot tables shared by
identity, frozen columns never mutated, worker results independent of
the worker count — are runtime tests, not rules
(``tests/test_frozen_aliasing.py``, ``tests/test_exec.py``).

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
