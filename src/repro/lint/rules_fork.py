"""R7 — fork/worker safety in ``repro/exec/`` and driver pool sites.

A multi-worker pool runs task runners in forked (or spawned) children.
Two classes of bug survive every unit test run on a serial pool and
only corrupt results under real parallelism:

* ``worker-shared-state`` — a task runner writing module-level mutable
  state (or resetting the metrics registry/operator counters).  In a
  forked child the write lands in the child's copy-on-write pages and
  silently vanishes.  The sanctioned
  channel is the metrics-registry delta protocol: runners ``inc()``
  counters, the pool snapshots/subtracts and merges deltas in
  submission order.  Runner bodies are found through the ``TASK_KINDS``
  registry (and ``register_task_kind`` calls) plus every module-local
  helper they transitively call, so moving the write into a helper does
  not hide it.
* ``live-store-capture`` — a pool submission capturing a live
  ``SocialGraph`` or ``FreezeManager`` (a snapshot-provider constructor
  — ``provide_snapshot``/``InlineSnapshot``/``MmapFileSnapshot`` —
  over a live handle,
  ``WorkerPool(snapshot=…)``, a live store in a ``Task`` payload).  Live stores carry position maps, write hooks and delta
  overlays that must not cross the process boundary; workers get
  ``provide_snapshot(freeze(graph))`` or ``manager.frozen()``
  (attach-by-path through a mapped provider is exactly as legal as the
  inline fork share).  The check is flow-sensitive and flags only
  values that are *provably* live on every path, so
  ``freeze(graph) if freeze_enabled else graph`` stays legal.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.base import FileContext
from repro.lint.diagnostics import Diagnostic
from repro.lint.flow import (
    AliasAnalysis,
    Env,
    FunctionNode,
    UNKNOWN,
    Values,
    function_defs,
    module_functions,
    transitive_local_callees,
)
from repro.lint.spec import (
    LIVE_STORE_CONSTRUCTORS,
    SNAPSHOT_CONSTRUCTORS,
    SNAPSHOT_PROVIDER_CONSTRUCTORS,
    TASK_RUNNER_REGISTRY,
)

RULE = "R7"

_LIVE: Values = frozenset({"live-store"})
_SAFE: Values = frozenset({"snapshot"})

#: Registry/counter reset entry points; only the pool's delta-capture
#: protocol may call these, never a task runner.
_RESET_CALLS = frozenset({"reset_counters", "reset_registry"})

_MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "popitem",
        "clear", "update", "setdefault", "add", "discard",
        "sort", "reverse",
    }
)


def check_fork_safety(context: FileContext) -> list[Diagnostic]:
    """R7: worker bodies touch no shared module state; pool submissions
    carry snapshots, never live stores."""
    found: list[Diagnostic] = []
    if context.in_exec:
        found.extend(_check_worker_shared_state(context))
    if context.in_exec or context.in_driver:
        found.extend(_check_live_store_capture(context))
    return found


# -- worker-shared-state ---------------------------------------------------


def _runner_roots(tree: ast.Module) -> set[str]:
    """Function names registered as task runners in this module."""
    roots: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            # TASK_KINDS = {"bi": _run_bi, ...} and TASK_KINDS[k] = fn.
            for target in node.targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id == TASK_RUNNER_REGISTRY
                    and isinstance(node.value, ast.Dict)
                ):
                    for value in node.value.values:
                        if isinstance(value, ast.Name):
                            roots.add(value.id)
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == TASK_RUNNER_REGISTRY
                    and isinstance(node.value, ast.Name)
                ):
                    roots.add(node.value.id)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if (
                isinstance(node.target, ast.Name)
                and node.target.id == TASK_RUNNER_REGISTRY
                and isinstance(node.value, ast.Dict)
            ):
                for value in node.value.values:
                    if isinstance(value, ast.Name):
                        roots.add(value.id)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "register_task_kind"
        ):
            for argument in list(node.args) + [kw.value for kw in node.keywords]:
                if isinstance(argument, ast.Name):
                    roots.add(argument.id)
    return roots


def _module_level_names(tree: ast.Module) -> set[str]:
    """Names bound at module top level (shared state candidates)."""
    names: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            names.add(stmt.target.id)
    return names


def _check_worker_shared_state(context: FileContext) -> Iterator[Diagnostic]:
    functions = module_functions(context.tree)
    runners = transitive_local_callees(functions, _runner_roots(context.tree))
    if not runners:
        return
    module_names = _module_level_names(context.tree)
    for name in sorted(runners):
        yield from _scan_runner(context, name, functions[name], module_names)


def _scan_runner(
    context: FileContext,
    runner_name: str,
    func: FunctionNode,
    module_names: set[str],
) -> Iterator[Diagnostic]:
    declared_globals: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            declared_globals.update(node.names)
    shared = module_names | declared_globals

    def shared_name(expr: ast.expr) -> str | None:
        if isinstance(expr, ast.Name) and expr.id in shared:
            return expr.id
        return None

    local_shadows: set[str] = set()
    for node in ast.walk(func):
        # A local binding of the same name shadows the module global
        # from then on; one coarse pre-pass keeps this check honest.
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id not in declared_globals
                ):
                    local_shadows.add(target.id)
    shared -= local_shadows - declared_globals

    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id in declared_globals
                ):
                    yield context.diagnostic(
                        target, RULE, "worker-shared-state",
                        f"task runner '{runner_name}' rebinds module global "
                        f"'{target.id}'; worker writes vanish with the "
                        "forked process — ship results through the "
                        "metrics-registry delta protocol or the task "
                        "return value",
                    )
                elif isinstance(target, ast.Subscript):
                    owner = shared_name(target.value)
                    if owner is not None:
                        yield context.diagnostic(
                            target, RULE, "worker-shared-state",
                            f"task runner '{runner_name}' writes shared "
                            f"module state '{owner}[...]'; worker writes "
                            "vanish with the forked process — return the "
                            "result or use the metrics delta protocol",
                        )
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    owner = shared_name(target.value)
                    if owner is not None:
                        yield context.diagnostic(
                            target, RULE, "worker-shared-state",
                            f"task runner '{runner_name}' deletes from "
                            f"shared module state '{owner}'",
                        )
        elif isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATOR_METHODS
            ):
                owner = shared_name(node.func.value)
                if owner is not None:
                    yield context.diagnostic(
                        node, RULE, "worker-shared-state",
                        f"task runner '{runner_name}' mutates shared module "
                        f"state '{owner}.{node.func.attr}(...)'; worker "
                        "writes vanish with the forked process — return "
                        "the result or use the metrics delta protocol",
                    )
            elif (
                isinstance(node.func, ast.Name)
                and node.func.id in _RESET_CALLS
            ):
                yield context.diagnostic(
                    node, RULE, "worker-shared-state",
                    f"task runner '{runner_name}' calls "
                    f"{node.func.id}(); only the pool's delta-capture "
                    "protocol may reset metrics — a runner reset corrupts "
                    "every concurrent task's deltas",
                )


# -- live-store-capture ----------------------------------------------------


def _live_classifier(expr: ast.expr, env: Env) -> Values:
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name):
            if func.id in LIVE_STORE_CONSTRUCTORS:
                return _LIVE
            if func.id in SNAPSHOT_CONSTRUCTORS:
                return _SAFE
        if isinstance(func, ast.Attribute):
            if (
                isinstance(func.value, ast.Name)
                and func.value.id in LIVE_STORE_CONSTRUCTORS
            ):
                return _LIVE
            if func.attr in SNAPSHOT_CONSTRUCTORS:
                return _SAFE
        return UNKNOWN
    if isinstance(expr, ast.Name):
        return env.get(expr.id, UNKNOWN)
    if isinstance(expr, ast.IfExp):
        return _live_classifier(expr.body, env) | _live_classifier(
            expr.orelse, env
        )
    if isinstance(expr, ast.BoolOp):
        values: Values = frozenset()
        for value in expr.values:
            values |= _live_classifier(value, env)
        return values
    if isinstance(expr, ast.NamedExpr):
        return _live_classifier(expr.value, env)
    return UNKNOWN


def _statement_expressions(stmt: ast.AST) -> Iterator[ast.expr]:
    """Direct expression operands of one statement (headers included,
    nested statements excluded — those sit in their own CFG blocks)."""
    for child in ast.iter_child_nodes(stmt):
        if isinstance(child, ast.expr):
            yield child
        elif isinstance(child, ast.withitem):
            yield child.context_expr


def _submission_arguments(call: ast.Call) -> Iterator[ast.expr]:
    """Expressions a pool submission would capture into workers."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else (
        func.attr if isinstance(func, ast.Attribute) else ""
    )
    if name in SNAPSHOT_PROVIDER_CONSTRUCTORS:
        if call.args:
            yield call.args[0]
        for keyword in call.keywords:
            if keyword.arg == "graph":
                yield keyword.value
    elif name == "WorkerPool":
        for keyword in call.keywords:
            if keyword.arg == "snapshot":
                yield keyword.value
    elif name == "Task":
        payloads = [kw.value for kw in call.keywords if kw.arg == "payload"]
        if len(call.args) >= 3:
            payloads.append(call.args[2])
        for payload in payloads:
            if isinstance(payload, (ast.Tuple, ast.List)):
                yield from payload.elts
            else:
                yield payload


def _check_live_store_capture(context: FileContext) -> Iterator[Diagnostic]:
    for func in function_defs(context.tree):
        analysis = AliasAnalysis(func, _live_classifier)
        for stmt in analysis.cfg.statements():
            env = analysis.env_before.get(stmt, {})
            for expr in _statement_expressions(stmt):
                for node in ast.walk(expr):
                    if not isinstance(node, ast.Call):
                        continue
                    for argument in _submission_arguments(node):
                        if _live_classifier(argument, env) == _LIVE:
                            yield context.diagnostic(
                                argument, RULE, "live-store-capture",
                                "pool submission captures a live store "
                                "(SocialGraph/FreezeManager); workers must "
                                "receive frozen state — pass "
                                "provide_snapshot(freeze(graph)) or "
                                "manager.frozen() instead",
                            )
