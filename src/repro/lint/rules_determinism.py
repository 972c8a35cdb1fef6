"""R1 — determinism.

The spec (section 2.3.3) requires the whole pipeline to be deterministic
regardless of parallelism; the in-depth SNB benchmarking study traces
most cross-system result mismatches to exactly the two leaks this rule
closes: wall-clock reads (``datetime.now()``, ``time.time()``, and the
scheduler clocks ``time.monotonic()`` / ``time.monotonic_ns()``) and
stdlib ``random``.  Every random decision must flow through the
labelled streams of :mod:`repro.util.rng` (slugs ``wall-clock``,
``raw-random``).  Worker-pool code that legitimately needs a deadline
clock is not exempted wholesale: each read carries a reasoned
``# lint: allow-wall-clock <why>`` suppression stating that the value
never reaches benchmark results.  The *file-wide* form of that waiver
is reserved for :mod:`repro.obs` (the tracer clock is the module's
whole purpose); anywhere else it is flagged as
``filewide-clock-waiver`` so a blanket waiver cannot silently creep
into executor or driver code.

Row order is not checked here: ``tests/test_query_contracts.py``
compares every read's rows across permuted loads and across
``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import ast

from repro.lint.base import FileContext
from repro.lint.diagnostics import Diagnostic

RULE = "R1"

#: Zero-argument "current moment" constructors on datetime/date objects.
_CLOCK_ATTRS = frozenset({"now", "utcnow", "today"})
#: Receivers those attributes are temporal on (module aliases included).
_TEMPORAL_RECEIVERS = frozenset({"datetime", "date", "_dt"})
#: Wall-clock functions of the ``time`` module.  ``monotonic`` /
#: ``monotonic_ns`` are listed because scheduler deadlines read them;
#: executor code must justify each read with a reasoned suppression
#: (``time.perf_counter()`` stays allowed for latency measurement).
_TIME_FUNCS = frozenset(
    {"time", "time_ns", "localtime", "monotonic", "monotonic_ns"}
)


def _receiver_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def check_clock_and_random(ctx: FileContext) -> list[Diagnostic]:
    """Forbid wall-clock reads and stdlib ``random`` outside the RNG hub."""
    if ctx.is_rng_module:
        return []
    found: list[Diagnostic] = []
    # A file-wide wall-clock waiver is one reasoned module-level
    # exemption, and repro/obs/ is the one module entitled to it.  The
    # diagnostic carries its own slug so the waiver under audit cannot
    # suppress the report about itself.
    if "wall-clock" in ctx.suppressions.filewide and not ctx.in_obs:
        waiver_line = ctx.suppressions.filewide_lines.get("wall-clock", 1)
        found.append(
            Diagnostic(
                path=ctx.path,
                line=waiver_line,
                col=1,
                rule=RULE,
                slug="filewide-clock-waiver",
                message=(
                    "file-wide allow-wall-clock waivers are reserved for "
                    "repro/obs/; justify each clock read with a per-line "
                    "'# lint: allow-wall-clock <why>' instead"
                ),
            )
        )
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    found.append(
                        ctx.diagnostic(
                            node, RULE, "raw-random",
                            "stdlib random imported; draw from the labelled "
                            "streams of repro.util.rng instead",
                        )
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                found.append(
                    ctx.diagnostic(
                        node, RULE, "raw-random",
                        "stdlib random imported; draw from the labelled "
                        "streams of repro.util.rng instead",
                    )
                )
        elif isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            receiver = _receiver_name(node.func.value)
            if receiver == "random":
                found.append(
                    ctx.diagnostic(
                        node, RULE, "raw-random",
                        f"random.{node.func.attr}() is unseeded; use "
                        "repro.util.rng.DeterministicRng",
                    )
                )
            elif (
                node.func.attr in _CLOCK_ATTRS
                and receiver in _TEMPORAL_RECEIVERS
            ):
                found.append(
                    ctx.diagnostic(
                        node, RULE, "wall-clock",
                        f"{receiver}.{node.func.attr}() reads the wall "
                        "clock; benchmark time must come from the dataset",
                    )
                )
            elif receiver == "time" and node.func.attr in _TIME_FUNCS:
                found.append(
                    ctx.diagnostic(
                        node, RULE, "wall-clock",
                        f"time.{node.func.attr}() reads the wall clock; "
                        "use time.perf_counter() for latency measurement "
                        "and dataset timestamps for semantics",
                    )
                )
    return found

