"""Contract tests over the query registries and the rows reads return.

* Registration and metadata: every BI module and IC entry point is
  registered, and each query's ``INFO`` number, kind, row limit (against
  the spec tables below), choke points (against Appendix A), row type
  and signature (against the curated parameter files) agree.
* Order: every read's output respects its declared sort order and row
  limit on the *generated* graph, and is exactly the same after a
  reversed or shuffled load and under another ``PYTHONHASHSEED``.

The sort keys and limits here are re-derived from the spec's query
definitions, independently of the implementations — a double-entry
check on contract and ordering bugs.
"""

import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.chokepoints import CHOKE_POINTS
from repro.graph.frozen import freeze
from repro.graph.store import SocialGraph
from repro.params.files import BI_PARAM_NAMES, INTERACTIVE_PARAM_NAMES
from repro.queries import bi as bi_package
from repro.queries import interactive as interactive_package
from repro.queries.bi import ALL_QUERIES as ALL_BI
from repro.queries.interactive.complex import ALL_COMPLEX
from repro.queries.interactive.short import ALL_SHORT

from tests.builders import run_every_read

#: Result-row limits of the BI reads (spec chapter 5 query definitions).
#: ``None``: all groups (BI 1, 18) or a fixed small row set (BI 17).
SPEC_BI_LIMITS = {
    1: None, 2: 100, 3: 100, 4: 20, 5: 100,
    6: 100, 7: 100, 8: 100, 9: 100, 10: 100,
    11: 100, 12: 100, 13: 100, 14: 100, 15: 100,
    16: 100, 17: None, 18: None, 19: 100, 20: 100,
    21: 100, 22: 100, 23: 100, 24: 100, 25: 100,
}

#: Result-row limits of the Interactive complex reads (spec chapter 4).
SPEC_IC_LIMITS = {
    1: 20, 2: 20, 3: 20, 4: 10, 5: 20, 6: 10, 7: 20,
    8: 20, 9: 20, 10: 10, 11: 10, 12: 20, 13: None, 14: None,
}

CHOKE_POINT_IDS = {cp.identifier for cp in CHOKE_POINTS}

# query number -> ascending sort key over a result row (spec sort clause).
BI_SORT_KEYS = {
    1: lambda r: (-r.year, r.is_comment, r.length_category),
    2: lambda r: (
        -r.message_count, r.tag_name, r.age_group, r.person_gender,
        r.message_month, r.country_name,
    ),
    3: lambda r: (-r.diff, r.tag_name),
    4: lambda r: (-r.post_count, r.forum_id),
    5: lambda r: (-r.post_count, r.person_id),
    6: lambda r: (-r.score, r.person_id),
    7: lambda r: (-r.authority_score, r.person_id),
    8: lambda r: (-r.comment_count, r.related_tag_name),
    9: lambda r: (-r.count1, -r.count2, r.forum_id),
    10: lambda r: (-(r.score + r.friends_score), r.person_id),
    11: lambda r: (-r.like_count, r.person_id, r.tag_name),
    12: lambda r: (-r.like_count, r.message_id),
    13: lambda r: (-r.year, r.month),
    14: lambda r: (-r.message_count, r.person_id),
    15: lambda r: (r.person_id,),
    16: lambda r: (-r.message_count, r.tag_name, r.person_id),
    17: lambda r: (),
    18: lambda r: (-r.person_count, -r.message_count),
    19: lambda r: (-r.interaction_count, r.person_id),
    20: lambda r: (-r.message_count, r.tag_class_name),
    21: lambda r: (-r.zombie_score, r.zombie_id),
    22: lambda r: (-r.score, r.person1_id, r.person2_id),
    23: lambda r: (-r.message_count, r.destination_name, r.month),
    24: lambda r: (-r.year, r.month, r.continent_name),
    25: lambda r: (-r.path_weight, r.person_ids_in_path),
}

IC_SORT_KEYS = {
    1: lambda r: (r.distance_from_person, r.friend_last_name, r.friend_id),
    2: lambda r: (-r.message_creation_date, r.message_id),
    3: lambda r: (-r.x_count, r.person_id),
    4: lambda r: (-r.post_count, r.tag_name),
    5: lambda r: (-r.post_count, r.forum_id),
    6: lambda r: (-r.post_count, r.tag_name),
    7: lambda r: (-r.like_creation_date, r.person_id),
    8: lambda r: (-r.comment_creation_date, r.comment_id),
    9: lambda r: (-r.message_creation_date, r.message_id),
    10: lambda r: (-r.common_interest_score, r.person_id),
    11: lambda r: (r.work_from, r.person_id),
    12: lambda r: (-r.reply_count, r.person_id),
    13: lambda r: (),
    14: lambda r: (-r.path_weight,),
}


def _camel_to_snake(name):
    """A curated camelCase parameter name as a Python argument name."""
    return re.sub(r"([A-Z])", r"_\1", name).lower()


def _row_type(query, prefix, number):
    """The ``Bi<N>Row``/``Ic<N>Row`` type next to ``query``."""
    return getattr(sys.modules[query.__module__], f"{prefix}{number}Row")


def _submodules(package, pattern):
    """``package``'s submodules whose name fully matches ``pattern``."""
    return [
        importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
        if re.fullmatch(pattern, info.name)
    ]


def test_every_bi_module_is_registered():
    modules = _submodules(bi_package, r"q\d+")
    found = {
        int(module.__name__.rsplit(".q", 1)[1]): module for module in modules
    }
    assert sorted(found) == sorted(ALL_BI)
    for number, module in found.items():
        assert ALL_BI[number] == (getattr(module, f"bi{number}"), module.INFO)


def test_every_ic_entry_point_is_registered():
    found = {}
    for module in _submodules(interactive_package, r"complex_part\d+"):
        for name, function in inspect.getmembers(module, inspect.isfunction):
            if function.__module__ != module.__name__:
                continue  # imported, not defined here
            if re.fullmatch(r"ic\d+", name):
                number = int(name[2:])
                found[number] = (function, getattr(module, f"IC{number}_INFO"))
    assert found == ALL_COMPLEX


def _assert_contract(query, info, number, limits, curated, row_type):
    assert info.number == number
    assert info.limit == limits[number]
    assert set(info.choke_points) <= CHOKE_POINT_IDS, info.choke_points
    assert issubclass(row_type, tuple) and hasattr(row_type, "_fields"), (
        f"{row_type.__name__} is not a NamedTuple"
    )
    parameters = list(inspect.signature(query).parameters.values())
    expected = ["graph", *map(_camel_to_snake, curated[number])]
    assert [p.name for p in parameters[: len(expected)]] == expected
    extra = parameters[len(expected):]
    assert all(p.default is not p.empty for p in extra), extra


@pytest.mark.parametrize("number", sorted(ALL_BI))
def test_bi_contract(number):
    query, info = ALL_BI[number]
    _assert_contract(
        query, info, number, SPEC_BI_LIMITS, BI_PARAM_NAMES,
        _row_type(query, "Bi", number),
    )


@pytest.mark.parametrize("number", sorted(ALL_COMPLEX))
def test_ic_contract(number):
    query, info = ALL_COMPLEX[number]
    assert info.kind == "complex"
    _assert_contract(
        query, info, number, SPEC_IC_LIMITS, INTERACTIVE_PARAM_NAMES,
        _row_type(query, "Ic", number),
    )


def _assert_sorted(rows, key):
    keys = [key(row) for row in rows]
    assert keys == sorted(keys), "rows violate the declared sort order"


@pytest.mark.parametrize("number", sorted(ALL_BI))
def test_bi_sort_and_limit(number, small_graph, small_params):
    query, info = ALL_BI[number]
    row_type = _row_type(query, "Bi", number)
    for params in small_params.bi(number, count=2):
        rows = query(small_graph, *params)
        if info.limit is not None:
            assert len(rows) <= info.limit
        assert all(isinstance(row, row_type) for row in rows)
        _assert_sorted(rows, BI_SORT_KEYS[number])


@pytest.mark.parametrize("number", sorted(ALL_COMPLEX))
def test_ic_sort_and_limit(number, small_graph, small_params):
    query, info = ALL_COMPLEX[number]
    row_type = _row_type(query, "Ic", number)
    for params in small_params.interactive(number, count=2):
        rows = query(small_graph, *params)
        if info.limit is not None:
            assert len(rows) <= info.limit
        assert all(isinstance(row, row_type) for row in rows)
        _assert_sorted(rows, IC_SORT_KEYS[number])


@pytest.mark.parametrize("number", sorted(ALL_BI))
def test_bi_rows_have_no_duplicates(number, small_graph, small_params):
    query, _ = ALL_BI[number]
    params = small_params.bi(number, count=1)[0]
    rows = query(small_graph, *params)
    assert len(set(map(tuple, rows))) == len(rows)


@pytest.mark.parametrize("number", sorted(ALL_COMPLEX))
def test_ic_deterministic(number, small_graph, small_params):
    """Read queries are pure: re-running yields identical rows."""
    query, _ = ALL_COMPLEX[number]
    params = small_params.interactive(number, count=1)[0]
    assert query(small_graph, *params) == query(small_graph, *params)


# -- Row order independent of load order and hash seed ----------------------

#: Entity-list permutations a load may see.
_ORDERS = {
    "reversed": lambda rows, rng: rows[::-1],
    "shuffled": lambda rows, rng: rng.sample(rows, len(rows)),
}


def _permuted_load(net, order):
    """``net`` loaded with every entity list permuted by ``order``."""
    rng = random.Random(order)
    lists = {
        field.name: _ORDERS[order](getattr(net, field.name), rng)
        for field in dataclasses.fields(net)
        if isinstance(getattr(net, field.name), list)
    }
    # The loader skips a reply whose parent is not loaded yet; replies
    # always postdate their parents, so date order keeps every comment.
    lists["comments"].sort(key=lambda comment: comment.creation_date)
    return SocialGraph.from_data(dataclasses.replace(net, **lists))


@pytest.fixture(scope="module")
def ordered_rows(small_graph, small_params):
    return run_every_read(small_graph, small_params, small_graph)


@pytest.mark.parametrize("order", sorted(_ORDERS))
def test_reads_do_not_depend_on_load_order(
    order, small_net, small_graph, small_params, ordered_rows
):
    """Every BI, IC and IS read returns exactly the rows of the ordered
    load, on the live and the frozen layout of a permuted load: sort
    keys that tie would fall back to store insertion order."""
    graph = _permuted_load(small_net, order)
    assert len(graph.comments) == len(small_graph.comments)
    for layout in (graph, freeze(graph)):
        rows = run_every_read(layout, small_params, small_graph)
        moved = [read for read in ordered_rows
                 if rows[read] != ordered_rows[read]]
        assert moved == [], f"{type(layout).__name__} rows moved: {moved}"


_READ_DIGEST_SCRIPT = """
import hashlib, json
from repro.datagen.config import DatagenConfig
from repro.datagen.generator import generate
from repro.graph.frozen import freeze
from repro.graph.store import SocialGraph
from repro.params.curation import ParameterGenerator
from tests.builders import run_every_read

config = DatagenConfig(num_persons=80, seed=5)
graph = SocialGraph.from_data(generate(config))
params = ParameterGenerator(graph, config)
digests = {}
for layout in (graph, freeze(graph)):
    for (family, number), rows in run_every_read(layout, params, graph).items():
        digests[f"{type(layout).__name__} {family} {number}"] = (
            hashlib.sha256(repr(rows).encode()).hexdigest()
        )
print(json.dumps(digests))
"""


def test_reads_do_not_depend_on_hash_seed():
    """The rows of every read on the ``tiny`` network, live and frozen,
    hash the same under two ``PYTHONHASHSEED`` values: no read's output
    follows set or dict iteration order over hashed strings."""
    src = Path(repro.__file__).resolve().parents[1]
    root = Path(__file__).resolve().parents[1]  # for ``tests.builders``
    path = os.pathsep.join([str(src), str(root)])
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", _READ_DIGEST_SCRIPT],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
        )
        for seed in ("0", "1")
    ]
    digests = []
    for run in runs:
        out, err = run.communicate(timeout=600)
        assert run.returncode == 0, err
        digests.append(json.loads(out))
    reads = len(ALL_BI) + len(ALL_COMPLEX) + len(ALL_SHORT)
    assert len(digests[0]) == 2 * reads
    differ = sorted(read for read in digests[0]
                    if digests[0][read] != digests[1][read])
    assert differ == []
