"""R6 — snapshot-aliasing discipline in ``repro/graph/``.

``FrozenGraph.__init__`` adopts the live store's ``__dict__`` wholesale
and ``OverlaidGraph`` adopts the base snapshot's, so every entity table,
relation list and secondary index is shared *by reference* across the
live store and all of its frozen/overlay views.  Two things must
therefore never happen outside construction:

* ``table-rebind`` — a graph-view class (or helper function) rebinding
  an aliased table/column attribute (``self.likes_edges = [...]``,
  ``rows = rows + [x]`` then written back, a ``list(...)``/slice copy
  assigned over the attribute).  The views keep the *old* object and
  silently fork from the live store.  In-place mutation (``append``,
  ``del``, swap-remove, ``+=``) is the sanctioned write path.
* ``frozen-mutation`` — a frozen/overlay view mutating an adopted base
  column or table (directly or through a local alias): snapshots are
  immutable after construction; writes go to the live store and reach
  readers through the delta overlay.

The rule is flow-sensitive (see :mod:`repro.lint.flow`): a write-back of
the *same* object (``rows = self.likes_edges; rows.remove(x);
self.likes_edges = rows``) is allowed, and construction contexts are
exempt — ``__init__`` and methods reachable only from it (freeze-time
column builders), since the instance they populate has no other view
aliasing it yet.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.base import FileContext
from repro.lint.diagnostics import Diagnostic
from repro.lint.flow import (
    AliasAnalysis,
    Classifier,
    Env,
    FunctionNode,
    UNKNOWN,
    Values,
    class_methods,
    constructor_only_methods,
    module_functions,
)
from repro.lint.spec import (
    FROZEN_COLUMN_FAMILIES,
    FROZEN_VIEW_CLASSES,
    GRAPH_VIEW_CLASSES,
    RAW_STORE_COLLECTIONS,
)

RULE = "R6"

#: Attributes aliased across every view regardless of class body.
_ALIASED_BASE: frozenset[str] = RAW_STORE_COLLECTIONS | FROZEN_COLUMN_FAMILIES

#: Container constructors whose result in ``__init__`` becomes an
#: aliased attribute (position maps, secondary indexes, hook lists).
_CONTAINER_CALLS = frozenset(
    {"list", "dict", "set", "defaultdict", "OrderedDict", "Counter", "array"}
)

#: In-place container mutators — the *allowed* write path on the live
#: store, and exactly what frozen views must never call on adopted state.
_MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "popitem",
        "clear", "update", "setdefault", "add", "discard",
        "sort", "reverse",
    }
)

_FRESH: Values = frozenset({"fresh"})
_FRESH_CALLS = frozenset(
    {"list", "dict", "set", "tuple", "sorted", "frozenset", "filter", "copy"}
)


def _attr_token(name: str) -> str:
    return f"attr:{name}"


def _alias_classifier() -> Classifier:
    """Expression classifier for the aliasing domain.

    Container displays, comprehensions, ``list(...)``-style copies,
    ``+`` concatenation and slice copies are *fresh* objects; attribute
    reads are the attribute's alias token; names look up the flow
    environment.
    """

    def classify(expr: ast.expr, env: Env) -> Values:
        if isinstance(expr, ast.Attribute):
            return frozenset({_attr_token(expr.attr)})
        if isinstance(expr, ast.Name):
            return env.get(expr.id, UNKNOWN)
        if isinstance(
            expr,
            (
                ast.List, ast.Dict, ast.Set, ast.Tuple,
                ast.ListComp, ast.DictComp, ast.SetComp, ast.GeneratorExp,
            ),
        ):
            return _FRESH
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id in _FRESH_CALLS:
                return _FRESH
            if isinstance(func, ast.Attribute) and func.attr == "copy":
                return _FRESH
            return UNKNOWN
        if isinstance(expr, ast.BinOp):
            return _FRESH  # ``rows + [x]`` allocates a new container
        if isinstance(expr, ast.Subscript):
            if isinstance(expr.slice, ast.Slice):
                return _FRESH  # ``rows[:]`` is a copy
            return UNKNOWN
        if isinstance(expr, ast.IfExp):
            return classify(expr.body, env) | classify(expr.orelse, env)
        if isinstance(expr, ast.BoolOp):
            values: Values = frozenset()
            for value in expr.values:
                values |= classify(value, env)
            return values
        if isinstance(expr, ast.NamedExpr):
            return classify(expr.value, env)
        return UNKNOWN

    return classify


def _is_view_class(cls: ast.ClassDef, names: frozenset[str]) -> bool:
    if cls.name in names:
        return True
    for base in cls.bases:
        if isinstance(base, ast.Name) and base.id in names:
            return True
        if isinstance(base, ast.Attribute) and base.attr in names:
            return True
    return False


def _ctor_container_attrs(cls: ast.ClassDef) -> set[str]:
    """``self.X`` attributes bound to containers in ``__init__`` —
    aliased by any view that adopts this instance's ``__dict__``."""
    init = class_methods(cls).get("__init__")
    if init is None:
        return set()
    attrs: set[str] = set()
    for node in ast.walk(init):
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None or not _is_container_expr(value):
            continue
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                attrs.add(target.attr)
    return attrs


def _is_container_expr(expr: ast.expr) -> bool:
    if isinstance(
        expr,
        (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
    ):
        return True
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name) and func.id in _CONTAINER_CALLS:
            return True
        if isinstance(func, ast.Attribute) and func.attr in _CONTAINER_CALLS:
            return True
    return False


def check_snapshot_aliasing(context: FileContext) -> list[Diagnostic]:
    """R6: aliased tables are mutated in place, never rebound; frozen
    views never mutate adopted base columns."""
    if not context.in_graph:
        return []
    found: list[Diagnostic] = []
    classify = _alias_classifier()
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if not _is_view_class(node, GRAPH_VIEW_CLASSES):
            continue
        aliased = frozenset(_ALIASED_BASE | _ctor_container_attrs(node))
        frozen_view = _is_view_class(node, FROZEN_VIEW_CLASSES)
        exempt = constructor_only_methods(node) | {"__init__"}
        for name, method in class_methods(node).items():
            if name in exempt:
                continue
            found.extend(
                _scan_function(context, method, classify, aliased, frozen_view)
            )
    for func in module_functions(context.tree).values():
        found.extend(
            _scan_function(context, func, classify, _ALIASED_BASE, False)
        )
    return found


def _scan_function(
    context: FileContext,
    func: FunctionNode,
    classify: Classifier,
    aliased: frozenset[str],
    frozen_view: bool,
) -> Iterator[Diagnostic]:
    analysis = AliasAnalysis(func, classify)
    aliased_tokens = frozenset(_attr_token(name) for name in aliased)
    for stmt in analysis.cfg.statements():
        env = analysis.env_before.get(stmt, {})
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                yield from _check_rebind(
                    context, target, stmt.value, env, classify, aliased
                )
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            yield from _check_rebind(
                context, stmt.target, stmt.value, env, classify, aliased
            )
        elif (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Call)
            and isinstance(stmt.value.func, ast.Name)
            and stmt.value.func.id == "setattr"
            and len(stmt.value.args) >= 2
            and isinstance(stmt.value.args[1], ast.Constant)
            and stmt.value.args[1].value in aliased
        ):
            yield context.diagnostic(
                stmt,
                RULE,
                "table-rebind",
                f"setattr rebinds aliased table "
                f"{stmt.value.args[1].value!r}; frozen/overlay views share "
                "it by reference — mutate it in place instead",
            )
        if frozen_view:
            yield from _check_frozen_mutation(
                context, stmt, env, classify, aliased_tokens
            )


def _check_rebind(
    context: FileContext,
    target: ast.expr,
    value: ast.expr,
    env: Env,
    classify: Classifier,
    aliased: frozenset[str],
) -> Iterator[Diagnostic]:
    if isinstance(target, (ast.Tuple, ast.List)):
        pairwise = (
            isinstance(value, (ast.Tuple, ast.List))
            and len(value.elts) == len(target.elts)
            and not any(isinstance(e, ast.Starred) for e in target.elts)
        )
        for position, element in enumerate(target.elts):
            if pairwise:
                assert isinstance(value, (ast.Tuple, ast.List))
                yield from _check_rebind(
                    context, element, value.elts[position], env, classify,
                    aliased,
                )
            else:
                yield from _flag_if_aliased(context, element, aliased)
        return
    if not isinstance(target, ast.Attribute) or target.attr not in aliased:
        return
    values = classify(value, env)
    if values and values <= {_attr_token(target.attr)}:
        return  # write-back of the very object the attribute holds
    yield context.diagnostic(
        target,
        RULE,
        "table-rebind",
        f"rebinds aliased table '{target.attr}' "
        "(frozen/overlay views share it by reference); mutate it in "
        "place — append/del/swap-remove — instead of assigning a new "
        "container",
    )


def _flag_if_aliased(
    context: FileContext, target: ast.expr, aliased: frozenset[str]
) -> Iterator[Diagnostic]:
    """Unpacking with no per-element value: any aliased attr target is a
    rebind (the unpacked value cannot be the attribute's own object)."""
    if isinstance(target, ast.Attribute) and target.attr in aliased:
        yield context.diagnostic(
            target,
            RULE,
            "table-rebind",
            f"rebinds aliased table '{target.attr}' via unpacking; "
            "frozen/overlay views share it by reference — mutate it in "
            "place instead",
        )


def _check_frozen_mutation(
    context: FileContext,
    stmt: ast.AST,
    env: Env,
    classify: Classifier,
    aliased_tokens: frozenset[str],
) -> Iterator[Diagnostic]:
    def touches(expr: ast.expr) -> str | None:
        values = classify(expr, env)
        hit = values & aliased_tokens
        if hit:
            return sorted(hit)[0].removeprefix("attr:")
        return None

    if (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Call)
        and isinstance(stmt.value.func, ast.Attribute)
        and stmt.value.func.attr in _MUTATOR_METHODS
    ):
        name = touches(stmt.value.func.value)
        if name is not None:
            yield context.diagnostic(
                stmt,
                RULE,
                "frozen-mutation",
                f"calls .{stmt.value.func.attr}() on adopted column "
                f"'{name}' in a frozen view; snapshots are immutable "
                "after construction — write to the live store and let "
                "the delta overlay carry it",
            )
        return
    targets: list[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    elif isinstance(stmt, ast.Delete):
        targets = list(stmt.targets)
    for target in targets:
        if isinstance(target, ast.Subscript):
            name = touches(target.value)
            if name is not None:
                yield context.diagnostic(
                    target,
                    RULE,
                    "frozen-mutation",
                    f"writes through adopted column '{name}' in a frozen "
                    "view; snapshots are immutable after construction",
                )
        elif isinstance(stmt, ast.AugAssign) and isinstance(
            target, ast.Attribute
        ):
            token = _attr_token(target.attr)
            if token in aliased_tokens:
                yield context.diagnostic(
                    target,
                    RULE,
                    "frozen-mutation",
                    f"augments adopted column '{target.attr}' in a frozen "
                    "view; snapshots are immutable after construction",
                )
