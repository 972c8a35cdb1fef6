"""Frozen-vs-live differential tests.

The acceptance bar for the columnar snapshot: every BI and IC read must
return *identical* rows (same values, same order, same row types) on a
:class:`FrozenGraph` and on the live store it was frozen from — both on
the bulk-loaded graph and again after an interleaved insert/delete
stream has forced a refreeze.  A separate fork-sharing test pins down
the zero-copy claim: worker processes must observe byte-identical CSR
arrays, not per-worker reconstructions.
"""

import hashlib
import os

import pytest

from repro.datagen.delete_streams import build_delete_streams
from repro.datagen.update_streams import build_update_streams
from repro.exec import InlineSnapshot, Task, WorkerPool
from repro.exec.snapshot import active
from repro.graph.frozen import FreezeManager
from repro.graph.store import SocialGraph
from repro.params.curation import ParameterGenerator
from repro.queries.bi import ALL_QUERIES
from repro.queries.interactive.complex import ALL_COMPLEX
from repro.queries.interactive.deletes import ALL_DELETES
from repro.queries.interactive.updates import ALL_UPDATES
from repro.util.rng import DeterministicRng

from tests.builders import run_query


def _apply_ops(graph: SocialGraph, ops: list) -> None:
    """Apply a write sequence the way the driver does (stale operations
    skipped)."""
    for kind, op in ops:
        try:
            if kind == "insert":
                ALL_UPDATES[op.operation_id][0](graph, op.params)
            else:
                ALL_DELETES[op.operation_id][0](graph, op.params)
        except (KeyError, ValueError):
            pass


@pytest.fixture(scope="module")
def bulk_phase(tiny_net, tiny_config):
    """``(live, frozen, params)`` for the bulk-loaded graph with no
    writes after the freeze (the snapshot's validity contract forbids
    comparing a snapshot against a store that moved past it — a stale
    snapshot shares the mutated tables but not refreshed columns)."""
    live = SocialGraph.from_data(tiny_net, until=tiny_net.cutoff)
    return live, FreezeManager(live).frozen(), ParameterGenerator(
        live, tiny_config
    )


@pytest.fixture(scope="module")
def mutated_phase(tiny_net, tiny_config):
    """``(live, refrozen, params)`` after a shuffled interleaved
    insert/delete stream moved ``write_version`` past an earlier
    snapshot and forced the FreezeManager to rebuild.

    ``compact_fraction=0.0`` pins the manager to its pre-delta
    refreeze-on-write behaviour so this phase keeps exercising a *full*
    rebuild from a mutated store; the overlay merge path has its own
    differential in ``tests/test_delta_overlay.py``."""
    live = SocialGraph.from_data(tiny_net, until=tiny_net.cutoff)
    manager = FreezeManager(live, compact_fraction=0.0)
    stale = manager.frozen()
    ops = [("insert", op) for op in build_update_streams(tiny_net)]
    ops += [("delete", op) for op in build_delete_streams(tiny_net)]
    ops.sort(key=lambda pair: pair[1].timestamp)
    DeterministicRng(4099, "frozen-differential").shuffle(ops)
    _apply_ops(live, ops)
    refrozen = manager.frozen()
    assert refrozen is not stale, "writes must invalidate the snapshot"
    assert manager.freezes == 2
    return live, refrozen, ParameterGenerator(live, tiny_config)


def _assert_all_bi_match(live, frozen, params, phase):
    for number, (query, _) in sorted(ALL_QUERIES.items()):
        for binding in params.bi(number, count=2):
            assert run_query(query, frozen, binding) == run_query(
                query, live, binding
            ), f"BI {number} diverged ({phase}) for {binding}"


def _assert_all_ic_match(live, frozen, params, phase):
    for number, (query, _) in sorted(ALL_COMPLEX.items()):
        for binding in params.interactive(number, count=2):
            assert run_query(query, frozen, binding) == run_query(
                query, live, binding
            ), f"IC {number} diverged ({phase}) for {binding}"


class TestFrozenVersusLive:
    """Row-identical results on the snapshot and its source store."""

    def test_every_bi_query_matches_on_bulk_load(self, bulk_phase):
        _assert_all_bi_match(*bulk_phase, "bulk")

    def test_every_ic_query_matches_on_bulk_load(self, bulk_phase):
        _assert_all_ic_match(*bulk_phase, "bulk")

    def test_every_bi_query_matches_after_refreeze(self, mutated_phase):
        _assert_all_bi_match(*mutated_phase, "refrozen")

    def test_every_ic_query_matches_after_refreeze(self, mutated_phase):
        _assert_all_ic_match(*mutated_phase, "refrozen")

    def test_refrozen_columns_track_the_writes(self, mutated_phase):
        """After the update stream, the refrozen message columns hold
        exactly the live store's surviving messages."""
        live, refrozen, _ = mutated_phase
        assert {m.id for m in refrozen._msg_objs} == (
            set(live.posts) | set(live.comments)
        )
        assert len(refrozen._person_ids) == len(live.persons)


def _snapshot_digest() -> tuple[str, int]:
    """sha1 over the active snapshot's knows CSR plus the worker pid
    — the currency of the fork-sharing test."""
    graph = active().graph
    digest = hashlib.sha1(
        graph._knows_offsets.tobytes()
        + graph._knows_targets.tobytes()
    ).hexdigest()
    return digest, os.getpid()


class TestForkSharing:
    def test_workers_observe_identical_snapshot_bytes(self, bulk_phase):
        """Process workers inherit the *same* frozen arrays through fork
        (copy-on-write), so every worker's digest of the knows CSR must
        equal the parent's — and come from distinct worker pids."""
        _, frozen, _ = bulk_phase
        from repro.exec.snapshot import activate

        previous = activate(InlineSnapshot(frozen))
        try:
            parent_digest, parent_pid = _snapshot_digest()
            pool = WorkerPool(workers=2, snapshot=InlineSnapshot(frozen))
            tasks = [
                Task(i, "call", (_snapshot_digest, ())) for i in range(6)
            ]
            merged = pool.run(tasks)
        finally:
            activate(previous)
        assert all(outcome.ok for outcome in merged.outcomes)
        digests = {digest for digest, _ in (o.value for o in merged.outcomes)}
        pids = {pid for _, pid in (o.value for o in merged.outcomes)}
        assert digests == {parent_digest}
        assert parent_pid not in pids
