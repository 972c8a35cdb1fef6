"""Checks of the ledger itself.  Run with ``python -m pytest bench/``;
not part of tier-1 (``pyproject.toml`` collects ``tests/`` only)."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

import pytest

from bench.compare import verdict
from bench.metrics import END_TO_END, EVERY, PER_LAYER, SPECIFIC
from bench.trace import ROOT_LAYER, ROUND, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def script(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("bench", name), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=180)


def ledger(*args: str) -> subprocess.CompletedProcess:
    return script("ledger.py", *args)


@pytest.fixture(scope="module")
def contract() -> dict:
    """``BENCHMARK.json`` as the dictionary and the workload table (which
    imports ``repro``, so another interpreter builds it) define it."""
    done = script("metrics.py")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    started = time.monotonic()
    done = ledger("--smoke", "--seed", "42", "--out", str(out))
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out) as handle:
        return {"document": json.load(handle), "elapsed": elapsed}


def test_smoke_run_is_quick_and_clean(smoke, contract):
    assert smoke["elapsed"] < 30
    document = smoke["document"]
    assert document["persons"] == 150 and document["seed"] == 42
    assert list(document["workloads"]) == sorted(
        w["name"] for w in contract["workloads"])
    for name, entry in document["workloads"].items():
        assert entry["correct"] and entry["failed"] == 0, entry["problems"]
        assert entry["attempted"] >= 1 and entry["rounds"] == 1
        assert set(entry["end_to_end"]) == {m.name for m in END_TO_END}
        assert set(entry["specific"]) == {
            m.name for m in SPECIFIC if m.on(name)}
        for row in (*entry["end_to_end"].values(), *entry["specific"].values()):
            assert row["value"] > 0 and row["samples"] >= 1


def test_stop_children_ends_the_resource_tracker():
    """``restart`` spawns an interpreter, which starts multiprocessing's
    resource tracker; ``main`` ends it (and any child left) on every way
    out, so that no process outlives a run."""
    code = """if True:
        import multiprocessing as mp, os
        from multiprocessing import resource_tracker
        from bench import ledger
        if __name__ == "__main__":
            child = mp.get_context("spawn").Process(target=print)
            child.start()
            child.join()
            tracker = resource_tracker._resource_tracker._pid
            os.kill(tracker, 0)  # running
            ledger.stop_children()
            try:
                os.kill(tracker, 0)
            except ProcessLookupError:
                raise SystemExit(0)
            raise SystemExit("the resource tracker is still running")
    """
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_another_seed_changes_digests_not_names(smoke, tmp_path):
    """The dataset is pinned; a seed draws the bindings every correctness
    pass answers, so it changes the rows checked and nothing else."""
    out = tmp_path / "seed7.json"
    assert ledger("--smoke", "--seed", "7", "--out", str(out)).returncode == 0
    with open(out) as handle:
        other = json.load(handle)["workloads"]
    for name, entry in smoke["document"]["workloads"].items():
        assert set(entry["end_to_end"]) == set(other[name]["end_to_end"])
        assert set(entry["specific"]) == set(other[name]["specific"])
        assert set(entry["digests"]) == set(other[name]["digests"])
        # pool checks all 75 bindings against serial, whatever the seed.
        assert (entry["digests"] != other[name]["digests"]) == (name != "pool")


@pytest.mark.parametrize("trace, declared", [(0, END_TO_END), (1, PER_LAYER)])
def test_contract_line(trace, declared):
    done = ledger("--workload", "pool", "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert list(line["metrics"]) == [m.name for m in declared]
    for metric in declared:
        reported = line["metrics"][metric.name]
        assert set(reported) == {"value", "unit"}
        assert reported["unit"] == metric.unit
        assert isinstance(reported["value"], (int, float))
    if trace:
        assert line["metrics"]["obs.unattributed_pct"]["value"] <= 10
        assert line["metrics"]["exec.snapshot.leaked_files"]["value"] == 0


def test_runs_nowhere_without_the_source_tree(tmp_path):
    done = ledger("--workload", "power", "--seed", "1", "--seconds", "1",
                  "--trace", "0", "--src", str(tmp_path))
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")


def test_no_such_workload():
    done = ledger("--workload", "nope", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")


def test_metric_dictionary_is_well_formed(contract):
    workloads = {w["name"]: w["why"] for w in contract["workloads"]}
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(END_TO_END) <= 16
    assert 1 <= len(PER_LAYER) <= 128
    names = [m.name for m in END_TO_END + SPECIFIC + PER_LAYER]
    assert len(names) == len(set(names))
    for name, why in workloads.items():
        assert NAME.match(name) and "\n" not in why and len(why) <= 200
    for metric in END_TO_END + SPECIFIC + PER_LAYER:
        assert NAME.match(metric.name), metric.name
        assert UNIT.match(metric.unit), metric
        assert metric.better in ("lower", "higher")
        assert set(metric.workloads) <= set(workloads) | set(EVERY)
    for metric in END_TO_END + SPECIFIC:
        assert metric.bound is not None and 0 < metric.bound <= 0.25
    for metric in END_TO_END:
        assert metric.workloads == EVERY
    setup = next(m for m in END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in END_TO_END)
    moved = {
        (m.name, workload)
        for m in END_TO_END + SPECIFIC
        for workload in (*EVERY, *workloads) if m.on(workload)
    }
    for metric in PER_LAYER:
        assert metric.moves, f"{metric.name} names nothing it should move"
        assert set(metric.moves) <= moved, metric.name


def test_benchmark_json_matches_the_dictionary(contract):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        assert json.load(handle) == contract


def test_tracer_self_time_and_unattributed_share():
    tracer = Tracer()
    tracer.workload = "w"
    with tracer.span("prepare", ROOT_LAYER):
        with tracer.span("load", "graph.store"):
            pass
    with tracer.span(ROUND, ROOT_LAYER) as root:
        with tracer.span("outer", "driver") as outer:
            with tracer.span("inner", "engine") as inner:
                pass
    root.start, root.end = 0.0, 10.0
    outer.start, outer.end = 1.0, 9.0
    inner.start, inner.end = 2.0, 5.0
    tracer.leaves[(tracer.spans.index(outer), "op", "store")] = [4, 1.0]
    table = tracer.layer_table("w")
    assert table[ROOT_LAYER]["self_s"] == pytest.approx(2.0)
    assert table["driver"]["self_s"] == pytest.approx(4.0)
    assert table["engine"]["self_s"] == pytest.approx(3.0)
    assert table["store"] == {"self_s": 1.0, "spans": 4}
    assert "graph.store" not in table  # outside the rounds
    assert tracer.unattributed_pct("w") == pytest.approx(20.0)
    events = tracer.chrome_trace("w")["traceEvents"]
    assert {e["name"] for e in events} >= {"round", "outer", "inner", "op"}
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert verdict(steady, [x * 1.02 for x in steady], "lower", 0.1)[0] == "same"
    assert verdict(steady, [x * 1.30 for x in steady], "lower", 0.1)[0] == "worse"
    assert verdict(steady, [x * 0.70 for x in steady], "lower", 0.1)[0] == "better"
    assert verdict(steady, [x * 0.70 for x in steady], "higher", 0.1)[0] == "worse"
    noisy = [60.0, 100.0, 140.0, 180.0]
    assert verdict(steady, noisy, "lower", 0.1)[0] == "unresolved"
    assert verdict([100.0], [105.0], "lower", 0.1)[0] == "same"
