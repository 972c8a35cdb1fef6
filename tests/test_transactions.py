"""Tests for atomic update execution and serializability (spec §6.4)."""

import pytest

from repro.datagen.delete_streams import DeleteOperation
from repro.datagen.update_streams import UpdateOperation, build_update_streams
from repro.driver.transactions import (
    AtomicExecutor,
    apply_write,
    verify_serializable_history,
)
from repro.queries.interactive.deletes import ALL_DELETES, DeletePersonParams
from repro.graph.store import SocialGraph
from repro.queries.interactive.updates import AddLikeParams, AddPersonParams

from tests.builders import GraphBuilder, PARIS, TAG_ROCK, ts


def _add_person_op(person_id, city=PARIS, tags=(), study=(), work=()):
    return UpdateOperation(
        timestamp=1,
        dependant_timestamp=0,
        operation_id=1,
        params=AddPersonParams(
            person_id=person_id, first_name="T", last_name="X",
            gender="male", birthday=1000, creation_date=ts(5, 1),
            location_ip="ip", browser_used="b", city_id=city,
            tag_ids=tuple(tags), study_at=tuple(study), work_at=tuple(work),
        ),
    )


class TestAtomicAddPerson:
    def test_valid_insert_commits(self):
        b = GraphBuilder()
        executor = AtomicExecutor(b.graph)
        assert executor.apply(
            _add_person_op(77, tags=(TAG_ROCK,), study=((0, 2010),))
        )
        assert 77 in b.graph.persons
        assert executor.history

    def test_invalid_university_rolls_back_everything(self):
        b = GraphBuilder()
        executor = AtomicExecutor(b.graph)
        ok = executor.apply(
            _add_person_op(77, tags=(TAG_ROCK,), study=((999, 2010),))
        )
        assert not ok
        # No partial state: not the person, not the interest edge.
        assert 77 not in b.graph.persons
        assert b.graph.persons_interested_in(TAG_ROCK) == []
        assert b.graph.study_at == []
        assert executor.history == []

    def test_invalid_city_rejected(self):
        b = GraphBuilder()
        executor = AtomicExecutor(b.graph)
        assert not executor.apply(_add_person_op(77, city=9999))
        assert 77 not in b.graph.persons

    def test_invalid_company_rolls_back(self):
        b = GraphBuilder()
        executor = AtomicExecutor(b.graph)
        assert not executor.apply(_add_person_op(77, work=((999, 2010),)))
        assert 77 not in b.graph.persons
        assert b.graph.work_at == []

    def test_duplicate_person_rejected_cleanly(self):
        b = GraphBuilder()
        existing = b.person()
        executor = AtomicExecutor(b.graph)
        assert not executor.apply(_add_person_op(existing))
        assert len(b.graph.persons) == 1


class TestAtomicEdgeInserts:
    def test_like_on_missing_post_rejected(self):
        b = GraphBuilder()
        person = b.person()
        executor = AtomicExecutor(b.graph)
        op = UpdateOperation(1, 0, 2, AddLikeParams(person, 999, ts(5, 1)))
        assert not executor.apply(op)
        assert b.graph.likes_edges == []
        assert executor.history == []


class TestApplyWrite:
    def test_skipped_write_reports_false(self):
        b = GraphBuilder()
        person = b.person()
        op = UpdateOperation(1, 0, 2, AddLikeParams(person, 999, ts(5, 1)))
        assert not apply_write(b.graph, op)
        assert b.graph.likes_edges == []
        delete = DeleteOperation(1, 1, DeletePersonParams(person))
        assert apply_write(b.graph, delete)
        assert person not in b.graph.persons

    def test_registry_entry_is_read_per_call(self, monkeypatch):
        """Callers that swap a registry entry (to time it, say) must see
        the replacement run: no entry is bound at import."""
        calls = []
        monkeypatch.setitem(
            ALL_DELETES, 1, (lambda graph, params: calls.append(params),
                             ALL_DELETES[1][1]),
        )
        params = DeletePersonParams(12)
        assert apply_write(GraphBuilder().graph, DeleteOperation(1, 1, params))
        assert calls == [params]


class TestSerializability:
    def test_stream_history_is_serializable(self, small_net):
        graph = SocialGraph.from_data(small_net, until=small_net.cutoff)
        executor = AtomicExecutor(graph)
        for op in build_update_streams(small_net)[:400]:
            executor.apply(op)
        fresh = SocialGraph.from_data(small_net, until=small_net.cutoff)
        assert verify_serializable_history(fresh, executor.history, graph)

    def test_checker_detects_divergence(self, small_net):
        graph = SocialGraph.from_data(small_net, until=small_net.cutoff)
        executor = AtomicExecutor(graph)
        for op in build_update_streams(small_net)[:100]:
            executor.apply(op)
        # Tamper with the final state: drop a person silently.
        graph.delete_person(next(iter(graph.persons)))
        fresh = SocialGraph.from_data(small_net, until=small_net.cutoff)
        assert not verify_serializable_history(fresh, executor.history, graph)

    def test_rejected_writes_not_in_history(self, small_net):
        graph = SocialGraph.from_data(small_net, until=small_net.cutoff)
        executor = AtomicExecutor(graph)
        bogus = UpdateOperation(1, 0, 2, AddLikeParams(10 ** 9, 10 ** 9, 1))
        assert not executor.apply(bogus)
        assert bogus not in executor.history
