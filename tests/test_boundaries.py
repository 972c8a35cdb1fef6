"""The benchmark's invariants, checked on the code that runs.

The SNB auditing rules ask for deterministic runs, reads that go
through the instrumented operators, and completely specified result
orders.  Each test here holds one of them:

* **Total result orders.** Every BI, IC and IS read, and every morsel
  merge, returns the same rows when its ``top_k`` and ``sorted`` calls
  break key ties the other way (:func:`tests.builders.ties_reversed`).
* **The engine boundary.** While reads run, a guard on
  :class:`SocialGraph` names the module of each attribute read.  Query
  code may not read a ``_``-prefixed index or ``messages()``, and gets
  a point-only view of each table in :attr:`SocialGraph.RAW_TABLES`.
* **Source scans** over ``src/repro``: no stdlib ``random`` outside the
  RNG hub, no wall-clock read outside ``repro/obs/`` but two deadline
  reads, no layout or telemetry import in query code, the tracer clock
  only inside ``repro/obs/``, and frame hooks only in the profiler.

The only exemptions are the reference oracle ``queries/bi/reference.py``,
``repro/obs/``, ``util/rng.py`` and the two functions in
:data:`CLOCK_READS`.
"""

from __future__ import annotations

import ast
import math
from pathlib import Path

import pytest

import repro
from repro.driver.bi_driver import build_microbatches
from repro.graph.frozen import FreezeManager, freeze
from repro.graph.store import SocialGraph
from repro.params.curation import ParameterGenerator
from repro.queries.bi import ALL_QUERIES
from repro.queries.bi.morsels import MORSEL_PLANS

from tests.builders import attribute_reads, run_every_read, ties_reversed
from tests.test_delta_overlay import _apply_batch

REFERENCE = "repro.queries.bi.reference"


# -- Total result orders -----------------------------------------------------

@pytest.mark.parametrize("layout", ["live", "frozen"])
def test_reads_do_not_depend_on_ties(layout, small_graph, small_params):
    """A sort key that is not total lets arrival order pick among tied
    rows; reversing the ties then changes the rows."""
    graph = small_graph if layout == "live" else freeze(small_graph)
    rows = run_every_read(graph, small_params, small_graph)
    with ties_reversed():
        reversed_ties = run_every_read(graph, small_params, small_graph)
    assert [read for read in rows if reversed_ties[read] != rows[read]] == []


def test_morsel_merges_do_not_depend_on_ties(tiny_graph, tiny_config):
    frozen = freeze(tiny_graph)
    params = ParameterGenerator(tiny_graph, tiny_config)
    moved = []
    for number, plan in sorted(MORSEL_PLANS.items()):
        for binding in map(tuple, params.bi(number, count=2)):
            serial = ALL_QUERIES[number][0](frozen, *binding)
            with ties_reversed():
                partials = [
                    plan.partial(frozen, kind, lo, hi, index == 0, binding)
                    for index, (kind, lo, hi) in enumerate(
                        plan.ranges(frozen, binding, 17)
                    )
                ]
                merged = plan.merge(frozen, partials, binding)
            if merged != serial:
                moved.append((number, binding))
    assert moved == []


# -- The engine boundary -----------------------------------------------------

class _PointOnly:
    """A raw table as query code may use it: point lookups, membership
    and size.  Iterating it is recorded (and still answered)."""

    def __init__(self, table, where, found):
        self._table, self._where, self._found = table, where, found

    def __getitem__(self, key):
        return self._table[key]

    def get(self, key, default=None):
        return self._table.get(key, default)

    def __contains__(self, key):
        return key in self._table

    def __len__(self):
        return len(self._table)

    def _scan(self, how):
        self._found.append(f"{self._where}{how}")
        return getattr(self._table, how)()

    def __iter__(self):
        return self._scan("__iter__")

    def keys(self):
        return self._scan("keys")

    def values(self):
        return self._scan("values")

    def items(self):
        return self._scan("items")


def _guarded(found, layout, *args):
    def on_read(caller, name, value):
        if (
            not caller.startswith("repro.queries.")
            or caller == REFERENCE
            or name.startswith("__")
        ):
            return value
        where = f"{layout}: {caller} graph.{name}"
        if name in SocialGraph.RAW_TABLES and name != "messages":
            return _PointOnly(value, f"{where}.", found)
        if name.startswith("_") or name == "messages":
            found.append(where)
        return value

    with attribute_reads(SocialGraph, on_read):
        run_every_read(*args)


def test_reads_reach_the_store_through_the_engine(tiny_net, tiny_config):
    live = SocialGraph.from_data(tiny_net, until=tiny_net.cutoff)
    params = ParameterGenerator(live, tiny_config)
    manager = FreezeManager(live, compact_fraction=math.inf)
    found: list[str] = []
    try:
        _guarded(found, "live", live, params, live)
        _guarded(found, "frozen", manager.frozen(), params, live)
        batches = build_microbatches(tiny_net)
        for batch in batches[: len(batches) // 2]:
            _apply_batch(live, batch)
        overlaid = manager.frozen()
        assert overlaid.delta_overlay is not None
        _guarded(found, "overlaid", overlaid, params, live)
    finally:
        manager.detach()
    assert sorted(set(found)) == []


# -- Source scans --------------------------------------------------------------

#: Wall-clock reads outside ``repro/obs/``, by enclosing function, with
#: why each is there.  Neither value reaches a result.
CLOCK_READS = {
    ("exec/pool.py", "_ProcWorker.assign"):
        "stamps when a task went to a worker, for its deadline",
    ("exec/pool.py", "WorkerPool._supervise"):
        "compares each busy worker's stamp with the pool timeout",
}
_TIME_FUNCS = {"time", "time_ns", "localtime", "monotonic", "monotonic_ns"}
_FRAME_HOOKS = {"_current_frames", "setprofile", "settrace"}
_QUERY_BANNED = ("repro.obs", "repro.graph.frozen", "repro.graph.delta")


def _walk(node, scope=""):
    """Every node under ``node`` with its enclosing def/class path."""
    for child in ast.iter_child_nodes(node):
        yield scope, child
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            inner = f"{scope}.{child.name}".lstrip(".")
        yield from _walk(child, inner)


def _imported(node):
    """Every dotted name an import statement binds from."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module:
        return [node.module] + [
            f"{node.module}.{alias.name}" for alias in node.names
        ]
    return []


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _findings(path, scope, node):
    """The rules ``node`` (in ``path``, inside ``scope``) breaks."""
    imported = _imported(node)
    if path != "util/rng.py" and any(
        name.split(".")[0] == "random" for name in imported
    ):
        yield "random"
    call = node.func if isinstance(node, ast.Call) else None
    if not path.startswith("obs/"):
        if isinstance(call, ast.Attribute) and (
            (call.attr in _TIME_FUNCS and _name(call.value) == "time")
            or (call.attr in {"now", "utcnow", "today"}
                and _name(call.value) in {"datetime", "date"})
        ):
            yield "clock"
        if _name(node) == "now_us" or any(
            name.endswith(".now_us") for name in imported
        ):
            yield "now_us"
    if path.startswith("queries/") and path != "queries/bi/reference.py":
        if any(name == banned or name.startswith(banned + ".")
               for name in imported for banned in _QUERY_BANNED):
            yield "query-import"
    if path != "obs/prof.py" and _name(call) in _FRAME_HOOKS:
        yield "frame-hook"


@pytest.fixture(scope="module")
def findings():
    root = Path(repro.__file__).parent
    found: dict[str, list] = {}
    for file in sorted(root.rglob("*.py")):
        path = file.relative_to(root).as_posix()
        for scope, node in _walk(ast.parse(file.read_text(), path)):
            for rule in _findings(path, scope, node):
                found.setdefault(rule, []).append((path, scope))
    return found


@pytest.mark.parametrize(
    "rule", ["random", "now_us", "query-import", "frame-hook"]
)
def test_source_keeps_the_boundary(rule, findings):
    assert findings.get(rule, []) == []


def test_clock_reads_are_the_deadline_reads(findings):
    assert sorted(findings.get("clock", [])) == sorted(CLOCK_READS)
