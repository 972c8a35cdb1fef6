"""Tests for the §6.3 durability/recovery and the §6.2 warmup phase."""

import errno
import gc
import struct
import warnings
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.datagen.delete_streams import build_delete_streams
from repro.datagen.update_streams import build_update_streams
from repro.driver.recovery import (
    CHECKPOINT, DurableSut, _apply, _encode, recover,
)
from repro.graph import snapfile
from repro.graph.snapfile import SnapshotFormatError, open_snapshot
from repro.graph.store import SocialGraph
from repro.params.curation import ParameterGenerator
from repro.queries.bi import ALL_QUERIES
from tests.builders import run_query


def wal_position(directory) -> int:
    """The WAL position the checkpoint in ``directory`` covers."""
    return open_snapshot(directory / CHECKPOINT).attached.meta["wal_position"]


def reference_store(net, writes) -> SocialGraph:
    """The bulk load with ``writes`` applied directly, no durability."""
    graph = SocialGraph.from_data(net, until=net.cutoff)
    for op in writes:
        _apply(graph, op)
    return graph


def counts(graph) -> tuple[int, int, int]:
    return (graph.node_count(), len(graph.knows_edges),
            len(graph.likes_edges))


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
        assert counts(recovered) == counts(reference_store(small_net, writes))

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
        # (the reference replay decides which).
        reference = reference_store(small_net, writes)
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
        assert wal_position(tmp_path) == 100  # last multiple of 50 reached
        sut.close()

    def test_failed_checkpoint_keeps_the_previous_one(
        self, small_net, writes, tmp_path, monkeypatch
    ):
        """A checkpoint whose write fails partway leaves the last good
        checkpoint in place, and it plus the WAL recover every write."""
        sut = DurableSut(
            SocialGraph.from_data(small_net, until=small_net.cutoff),
            tmp_path,
            checkpoint_every=50,
        )
        for op in writes[:99]:
            sut.apply(op)

        def torn_write(graph, stream, **kwargs):
            stream.write(snapfile.MAGIC)
            raise OSError(errno.ENOSPC, "No space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(snapfile, "write_snapshot", torn_write)
            with pytest.raises(OSError):
                sut.apply(writes[99])  # committed, then its checkpoint fails
        for op in writes[100:120]:
            sut.apply(op)
        sut.crash()
        assert wal_position(tmp_path) == 50
        recovered, recovered_writes = recover(tmp_path)
        assert recovered_writes == 120
        assert counts(recovered) == counts(
            reference_store(small_net, writes[:120])
        )

    def test_bi_rows_survive_mid_run_checkpoints(self, small_net, tmp_path):
        """Every BI read answers the same on the recovered store as on
        the store that took the writes, with the crash landing between
        checkpoints taken mid-stream."""
        updates = build_update_streams(small_net)[:600]
        horizon = updates[-1].timestamp
        stream = sorted(
            updates + [op for op in build_delete_streams(small_net)
                       if op.timestamp <= horizon],
            key=lambda op: op.timestamp,
        )
        written = SocialGraph.from_data(small_net, until=small_net.cutoff)
        sut = DurableSut(written, tmp_path, checkpoint_every=97)
        for op in stream:
            sut.apply(op)
        sut.crash()
        recovered, recovered_writes = recover(tmp_path)
        assert recovered_writes == len(stream)
        assert wal_position(tmp_path) == len(stream) // 97 * 97 > 0
        params = ParameterGenerator(written, small_net.config)
        for number, (query, _) in sorted(ALL_QUERIES.items()):
            for binding in params.bi(number, count=2):
                assert run_query(query, recovered, binding) == run_query(
                    query, written, binding
                ), (number, binding)

    def test_rejects_bad_interval(self, small_net, tmp_path):
        with pytest.raises(ValueError):
            DurableSut(
                SocialGraph.from_data(small_net), tmp_path, checkpoint_every=0
            )

    def test_failed_initial_checkpoint_closes_the_wal(self, tmp_path,
                                                      monkeypatch):
        def failing_write(graph, stream, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(snapfile, "write_snapshot", failing_write)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(OSError):
                DurableSut(SocialGraph(), tmp_path)
            gc.collect()
        assert gc.isenabled()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]

    def test_truncated_checkpoint_restores_the_collector(self, tiny_net,
                                                         tmp_path):
        sut = DurableSut(SocialGraph.from_data(tiny_net), tmp_path)
        sut.crash()
        checkpoint = tmp_path / CHECKPOINT
        checkpoint.write_bytes(checkpoint.read_bytes()[:1000])
        with pytest.raises(SnapshotFormatError):
            recover(tmp_path)
        assert gc.isenabled()


class TestWalTail:
    @pytest.fixture
    def crashed(self, tiny_net, tmp_path):
        """A durable directory holding 6 committed writes past its
        checkpoint, and the next write of the stream."""
        updates = build_update_streams(tiny_net)[:7]
        sut = DurableSut(
            SocialGraph.from_data(tiny_net, until=tiny_net.cutoff), tmp_path
        )
        for op in updates[:6]:
            sut.apply(op)
        sut.crash()
        return tmp_path, updates

    def test_torn_final_record_is_dropped(self, tiny_net, crashed):
        """A last record without its newline was never committed: its
        ``apply`` had not returned when the process died."""
        directory, updates = crashed
        record = _encode(updates[6]).encode()
        with open(directory / "wal.log", "ab") as wal:
            wal.write(record[: len(record) // 2])
        recovered, recovered_writes = recover(directory)
        assert recovered_writes == 6
        assert counts(recovered) == counts(
            reference_store(tiny_net, updates[:6])
        )

    def test_undecodable_record_names_its_line(self, crashed):
        directory, _ = crashed
        wal = directory / "wal.log"
        lines = wal.read_bytes().split(b"\n")
        lines[2] = b"not a record"
        wal.write_bytes(b"\n".join(lines))
        with pytest.raises(SnapshotFormatError, match="line 3"):
            recover(directory)


class TestRecoveryFuzz:
    """Damaged checkpoints: ``recover`` returns or raises the one typed
    error, whatever the damage."""

    @pytest.fixture(scope="class")
    def durable(self, tiny_net, tmp_path_factory):
        """A checkpoint with a 20-write WAL tail, and its pristine bytes."""
        directory = tmp_path_factory.mktemp("durable")
        updates = build_update_streams(tiny_net)[:20]
        sut = DurableSut(
            SocialGraph.from_data(tiny_net, until=tiny_net.cutoff),
            directory,
            checkpoint_every=10 ** 9,
        )
        for op in updates:
            sut.apply(op)
        sut.crash()
        return directory, (directory / CHECKPOINT).read_bytes()

    @staticmethod
    def recovers_or_rejects(directory, damaged) -> None:
        (directory / CHECKPOINT).write_bytes(damaged)
        try:
            recover(directory)
        except SnapshotFormatError:
            pass

    _fuzz = settings(
        max_examples=100,
        derandomize=True,
        deadline=timedelta(seconds=5),  # a hang or a runaway replay fails
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )

    @_fuzz
    @given(data=st.data())
    def test_truncation(self, durable, data):
        directory, pristine = durable
        length = data.draw(st.integers(0, len(pristine) - 1))
        self.recovers_or_rejects(directory, pristine[:length])

    @_fuzz
    @given(data=st.data())
    def test_single_byte_flip(self, durable, data):
        """Flips land anywhere, with the header and the TOC (where one
        byte steers the whole decode) drawn as often as the body."""
        directory, pristine = durable
        toc_offset, _ = struct.unpack_from("<QQ", pristine, 16)
        position = data.draw(st.one_of(
            st.integers(0, snapfile.HEADER_SIZE - 1),
            st.integers(toc_offset, len(pristine) - 1),
            st.integers(0, len(pristine) - 1),
        ))
        damaged = bytearray(pristine)
        damaged[position] ^= data.draw(st.integers(1, 255))
        self.recovers_or_rejects(directory, bytes(damaged))


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
