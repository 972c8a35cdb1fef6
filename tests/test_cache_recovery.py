"""Tests for the §6.3 durability/recovery and the §6.2 warmup phase."""

import gc
import pickle
import warnings

import pytest

from repro.datagen.delete_streams import build_delete_streams
from repro.datagen.update_streams import build_update_streams
from repro.driver.recovery import DurableSut, recover
from repro.graph.store import SocialGraph


class TestDurability:
    @pytest.fixture
    def writes(self, small_net):
        updates = build_update_streams(small_net)[:300]
        deletes = [
            op
            for op in build_delete_streams(small_net)
            if updates and op.timestamp <= updates[-1].timestamp
        ]
        merged = sorted(
            list(updates) + list(deletes), key=lambda op: op.timestamp
        )
        return merged

    def test_recovery_after_crash(self, small_net, writes, tmp_path):
        sut = DurableSut(
            SocialGraph.from_data(small_net, until=small_net.cutoff),
            tmp_path,
            checkpoint_every=100,
        )
        for op in writes:
            sut.apply(op)
        committed = sut.committed_writes
        sut.crash()
        with pytest.raises(RuntimeError):
            sut.apply(writes[0])

        recovered, recovered_writes = recover(tmp_path)
        assert recovered_writes == committed

        # The recovered state equals a straight replay of the same ops.
        reference = SocialGraph.from_data(small_net, until=small_net.cutoff)
        from repro.driver.recovery import _apply

        for op in writes:
            _apply(reference, op)
        assert recovered.node_count() == reference.node_count()
        assert len(recovered.knows_edges) == len(reference.knows_edges)
        assert len(recovered.likes_edges) == len(reference.likes_edges)

    def test_last_committed_update_present(self, small_net, writes, tmp_path):
        """The §6.3 check: the last committed update is in the database."""
        from repro.datagen.update_streams import UpdateOperation

        sut = DurableSut(
            SocialGraph.from_data(small_net, until=small_net.cutoff),
            tmp_path,
            checkpoint_every=97,  # crash lands between checkpoints
        )
        last_insert = None
        for op in writes:
            sut.apply(op)
            if isinstance(op, UpdateOperation) and op.operation_id in (6, 7):
                last_insert = op
        sut.crash()
        recovered, _ = recover(tmp_path)
        assert last_insert is not None
        message_id = (
            last_insert.params.post_id
            if last_insert.operation_id == 6
            else last_insert.params.comment_id
        )
        # Present unless a later delete in the same run cascaded over it
        # (the reference replay below decides which).
        reference = SocialGraph.from_data(small_net, until=small_net.cutoff)
        from repro.driver.recovery import _apply

        for op in writes:
            _apply(reference, op)
        assert recovered.has_message(message_id) == reference.has_message(
            message_id
        )

    def test_checkpoint_interval_respected(self, small_net, writes, tmp_path):
        sut = DurableSut(
            SocialGraph.from_data(small_net, until=small_net.cutoff),
            tmp_path,
            checkpoint_every=50,
        )
        for op in writes[:120]:
            sut.apply(op)
        covered = int((tmp_path / "checkpoint.meta").read_text())
        assert covered == 100  # last multiple of 50 reached
        sut.close()

    def test_rejects_bad_interval(self, small_net, tmp_path):
        with pytest.raises(ValueError):
            DurableSut(
                SocialGraph.from_data(small_net), tmp_path, checkpoint_every=0
            )

    def test_failed_initial_checkpoint_closes_the_wal(self, tmp_path):
        graph = SocialGraph()
        graph.unpicklable = lambda: None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises((pickle.PicklingError, AttributeError)):
                DurableSut(graph, tmp_path)
            gc.collect()
        assert gc.isenabled()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]

    def test_truncated_checkpoint_restores_the_collector(self, tiny_net,
                                                         tmp_path):
        sut = DurableSut(SocialGraph.from_data(tiny_net), tmp_path)
        sut.crash()
        checkpoint = tmp_path / "checkpoint.pickle"
        checkpoint.write_bytes(checkpoint.read_bytes()[:1000])
        with pytest.raises((EOFError, pickle.UnpicklingError)):
            recover(tmp_path)
        assert gc.isenabled()


class TestWarmup:
    def test_warmup_reads_do_not_appear_in_log(self, small_net):
        from repro.core.api import SocialNetworkBenchmark
        from repro.datagen.update_streams import build_update_streams
        from repro.driver.mix import frequencies_for_scale_factor
        from repro.driver.runner import Driver
        from repro.driver.scheduler import Scheduler
        from repro.params.curation import ParameterGenerator

        graph = SocialGraph.from_data(small_net, until=small_net.cutoff)
        params = ParameterGenerator(graph, small_net.config)
        updates = build_update_streams(small_net)[:200]
        schedule = Scheduler(
            updates,
            frequencies_for_scale_factor(1.0),
            {n: params.interactive(n, count=2) for n in range(1, 15)},
        ).build()
        cold = Driver(graph, seed=5).run(schedule, warmup_reads=0)
        graph2 = SocialGraph.from_data(small_net, until=small_net.cutoff)
        warm = Driver(graph2, seed=5).run(schedule, warmup_reads=5)
        # Same logged operation sequence either way.
        assert [e.operation for e in cold.log] == [
            e.operation for e in warm.log
        ]
