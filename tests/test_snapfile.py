"""The on-disk snapshot format (:mod:`repro.graph.snapfile`).

Pins down the format contract: byte-identical round-trips for every
column family, strict header and TOC validation (magic, version,
endianness, TOC shape, layout bounds), clean errors on truncated
buffers — a worker must never operate on a silently-corrupt mapping —
and that every serialized column is one some read actually uses.
"""

from __future__ import annotations

import gc
import io
import json
import math
import struct

import pytest

from repro.driver.bi_driver import build_microbatches
from repro.engine import scan_messages
from repro.graph.frozen import FreezeManager, FrozenGraph, freeze
from repro.graph.snapfile import (
    FLAT_COLUMNS,
    HEADER_SIZE,
    KEYED_COLUMNS,
    MAGIC,
    STRING_COLUMNS,
    SnapshotFormatError,
    attach,
    open_snapshot,
    rebuild_store,
    write_snapshot,
)
from repro.graph.store import SocialGraph
from repro.params.curation import ParameterGenerator

from tests.builders import attribute_reads, run_every_read
from tests.test_delta_overlay import _apply_batch


def snapshot_bytes(graph: FrozenGraph) -> bytes:
    stream = io.BytesIO()
    write_snapshot(graph, stream)
    return stream.getvalue()


def with_toc(blob: bytes, edit) -> bytes:
    """``blob`` with its JSON TOC replaced by ``edit(toc)`` (the header's
    TOC pointer patched to match)."""
    toc_offset, toc_length = struct.unpack_from("<QQ", blob, 16)
    toc = json.loads(blob[toc_offset : toc_offset + toc_length])
    payload = json.dumps(edit(toc)).encode("utf-8")
    mutated = bytearray(blob[:toc_offset] + payload)
    struct.pack_into("<QQ", mutated, 16, toc_offset, len(payload))
    return bytes(mutated)


def _edit_sections(toc, edit):
    return {**toc, "sections": [edit(s) for s in toc["sections"]]}


#: TOC corruptions ``attach`` must reject as a format error rather than
#: leak the ``TypeError``/``KeyError``/``ValueError`` of decoding them.
MALFORMED_TOCS = {
    "toc-is-a-list": lambda toc: toc["sections"],
    "no-sections": lambda toc: {
        key: value for key, value in toc.items() if key != "sections"
    },
    "section-without-offset": lambda toc: _edit_sections(
        toc, lambda s: {k: v for k, v in s.items() if k != "offset"}
    ),
    "unknown-typecode": lambda toc: _edit_sections(
        toc, lambda s: {**s, "typecode": "Z"}
    ),
    "float-offset": lambda toc: _edit_sections(
        toc, lambda s: {**s, "offset": float(s["offset"])}
    ),
    "negative-length": lambda toc: _edit_sections(
        toc, lambda s: {**s, "nbytes": -s["itemsize"]}
    ),
    "list-name": lambda toc: _edit_sections(
        toc, lambda s: {**s, "name": [s["name"]]}
    ),
    "infinite-version": lambda toc: {
        **toc, "meta": {"frozen_at_version": float("inf")}
    },
    "short-keyed-offsets": lambda toc: _edit_sections(
        toc, lambda s: {**s, "nbytes": s["nbytes"] - 8}
        if s["name"].endswith(".offsets") else s
    ),
    "dictionaries-is-a-list": lambda toc: {**toc, "dictionaries": []},
}


@pytest.fixture(scope="module")
def frozen(tiny_graph) -> FrozenGraph:
    return freeze(tiny_graph)


@pytest.fixture(scope="module")
def blob(frozen) -> bytes:
    return snapshot_bytes(frozen)


class TestRoundTrip:
    def test_flat_columns_byte_identical(self, frozen, blob):
        columns = attach(blob).columns
        for name in FLAT_COLUMNS:
            original = getattr(frozen, name)
            attached = columns[name]
            assert attached.itemsize == original.itemsize, name
            assert bytes(attached) == original.tobytes(), name

    def test_string_columns_round_trip(self, frozen, blob):
        columns = attach(blob).columns
        for name in STRING_COLUMNS:
            original = getattr(frozen, name)
            attached = columns[name]
            assert attached.dictionary == original.dictionary, name
            assert bytes(attached.codes) == original.codes.tobytes(), name

    def test_keyed_columns_round_trip(self, frozen, blob):
        columns = attach(blob).columns
        for name in KEYED_COLUMNS:
            original = getattr(frozen, name)
            attached = columns[name]
            assert sorted(attached) == sorted(original), name
            for key, values in original.items():
                assert bytes(attached[key]) == values.tobytes(), (name, key)

    def test_write_returns_section_bytes(self, frozen):
        stream = io.BytesIO()
        section_bytes = write_snapshot(frozen, stream)
        assert 0 < section_bytes < len(stream.getvalue())

    def test_serialization_is_deterministic(self, frozen, blob):
        assert snapshot_bytes(frozen) == blob

    def test_attached_graph_rows_identical(self, frozen, blob):
        attached = frozen.with_columns(attach(blob).columns)
        expected = [m.id for m in scan_messages(frozen)]
        assert [m.id for m in scan_messages(attached)] == expected


class TestRebuildStore:
    @staticmethod
    def postings(graph):
        return [
            (list(family), list(family.values()))
            for family in (
                graph._messages_with_tag, graph._forum_posts_by_date
            )
        ]

    def test_posting_lists_equal_the_parents(self, tiny_graph, blob):
        rebuilt = rebuild_store(attach(blob).entities)
        assert self.postings(rebuilt) == self.postings(tiny_graph)
        assert "_bulk" not in rebuilt.__dict__

    @pytest.mark.parametrize("payload", [b"{not json", b'{"places": []}'])
    def test_corrupt_payload_restores_the_collector(self, payload):
        with pytest.raises(SnapshotFormatError):
            rebuild_store(payload)
        assert gc.isenabled()

    @pytest.mark.parametrize(
        "payload",
        [b"", b"[]", b"{}", b'{"places": [[1]]}', b"\xff\xfe\x00",
         b'{"places": 5}'],
    )
    def test_damaged_entities_raise_a_format_error(self, payload):
        """What the decode or the replay raises on a damaged section is
        chained under the one typed error."""
        with pytest.raises(SnapshotFormatError) as raised:
            rebuild_store(payload)
        assert raised.value.__cause__ is not None


class TestHeaderValidation:
    def test_bad_magic_rejected(self, blob):
        with pytest.raises(SnapshotFormatError, match="magic"):
            attach(b"XXXX" + blob[4:])

    def test_future_version_rejected(self, blob):
        mutated = bytearray(blob)
        struct.pack_into("<H", mutated, 4, 99)
        with pytest.raises(SnapshotFormatError, match="version"):
            attach(bytes(mutated))

    def test_foreign_endianness_rejected(self, blob):
        mutated = bytearray(blob)
        mutated[8:16] = mutated[8:16][::-1]
        with pytest.raises(SnapshotFormatError, match="byte order"):
            attach(bytes(mutated))

    def test_truncated_header_rejected(self, blob):
        with pytest.raises(SnapshotFormatError, match="truncated"):
            attach(blob[:HEADER_SIZE - 1])

    def test_truncated_sections_rejected(self, blob):
        # Keep the header but cut the body: the TOC pointer now runs
        # past the end of the buffer.
        with pytest.raises(SnapshotFormatError):
            attach(blob[:HEADER_SIZE + 8])

    def test_magic_constant_leads_the_file(self, blob):
        assert blob[:4] == MAGIC

    @pytest.mark.parametrize(
        "edit", list(MALFORMED_TOCS.values()), ids=list(MALFORMED_TOCS)
    )
    def test_malformed_toc_rejected(self, blob, edit):
        with pytest.raises(SnapshotFormatError):
            attach(with_toc(blob, edit))


class TestMappedFile:
    def test_open_snapshot_round_trips(self, frozen, blob, tmp_path):
        path = tmp_path / "graph.rsnb"
        path.write_bytes(blob)
        mapped = open_snapshot(path)
        try:
            for name in FLAT_COLUMNS:
                assert (
                    bytes(mapped.columns[name])
                    == getattr(frozen, name).tobytes()
                )
        finally:
            mapped.close()

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.rsnb"
        path.write_bytes(b"")
        with pytest.raises(SnapshotFormatError):
            open_snapshot(path)

    def test_truncated_file_rejected(self, blob, tmp_path):
        path = tmp_path / "cut.rsnb"
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(SnapshotFormatError):
            open_snapshot(path)

    def test_close_is_idempotent(self, blob, tmp_path):
        path = tmp_path / "graph.rsnb"
        path.write_bytes(blob)
        mapped = open_snapshot(path)
        mapped.close()
        mapped.close()


class TestLiveViewsRejected:
    def test_overlaid_view_rejected(self, tiny_net):
        from repro.datagen.update_streams import build_update_streams
        from repro.graph.frozen import FreezeManager
        from repro.graph.store import SocialGraph
        from repro.queries.interactive.updates import ALL_UPDATES

        live = SocialGraph.from_data(tiny_net, until=tiny_net.cutoff)
        manager = FreezeManager(live)
        try:
            base = manager.frozen()
            for op in build_update_streams(tiny_net)[:5]:
                try:
                    ALL_UPDATES[op.operation_id][0](live, op.params)
                except (KeyError, ValueError):
                    pass
            overlaid = manager.frozen()
            assert overlaid.delta_overlay is not None
            with pytest.raises(ValueError):
                snapshot_bytes(overlaid)
            # The clean base stays serializable either way.
            assert snapshot_bytes(base)
        finally:
            manager.detach()


def _recording(names):
    """An ``attribute_reads`` callback adding each read name to ``names``."""

    def on_read(caller, name, value):
        names.add(name)
        return value

    return on_read


class TestEverySerializedColumnIsRead:
    """The file carries exactly the columns a read uses: a column no
    accessor or operator reads is build and serialization cost for
    nothing, so it fails here until it is deleted."""

    def test_every_serialized_column_is_read(self, tiny_graph, tiny_config):
        reads: set[str] = set()
        params = ParameterGenerator(tiny_graph, tiny_config)
        snapshot = freeze(tiny_graph)
        # Recorded after the freeze, so the freeze's own reads
        # (``_derive_lookups``) do not count — only queries' and
        # operators' do.
        with attribute_reads(FrozenGraph, _recording(reads)):
            run_every_read(snapshot, params, tiny_graph)
        unread = [
            name
            for name in FLAT_COLUMNS + STRING_COLUMNS + KEYED_COLUMNS
            if name not in reads
        ]
        assert unread == []


class TestEveryLiveContainerIsRead:
    """The live store is the write store: each container it keeps is
    read by ``freeze``, ``write_snapshot`` or a read on the frozen or
    overlaid layout — the layouts every driver reads — or is one of the
    write path's own lookups below.  An index only a live scan reads is
    upkeep on every load and write for nothing, so it fails here."""

    #: Containers only the write path reads, and why it needs each.
    WRITE_PATH = {
        "_delta_hooks": "mutators fan each row event out to the overlay",
        "_knows_pos": "delete_knows swap-removes by position",
        "_likes_pos": "like deletes swap-remove by position",
        "_member_pos": "membership deletes swap-remove by position",
        "_study_pos": "a person delete swap-removes its studyAt rows",
        "_work_pos": "a person delete swap-removes its workAt rows",
        "_moderated_forums": "the DEL 1 cascade deletes a person's forums",
    }

    def test_every_live_container_is_read(self, tiny_net, tiny_config):
        reads: set[str] = set()

        def recorded(phase, *args):
            with attribute_reads(SocialGraph, _recording(reads)):
                return phase(*args)

        live = SocialGraph.from_data(tiny_net, until=tiny_net.cutoff)
        params = ParameterGenerator(live, tiny_config)
        manager = FreezeManager(live, compact_fraction=math.inf)
        try:
            snapshot = recorded(manager.frozen)
            recorded(run_every_read, snapshot, params, live)
            recorded(write_snapshot, snapshot, io.BytesIO())
            batches = build_microbatches(tiny_net)
            for batch in batches[: len(batches) // 2]:
                _apply_batch(live, batch)
            overlaid = manager.frozen()
            assert overlaid.delta_overlay is not None
            recorded(run_every_read, overlaid, params, live)
        finally:
            manager.detach()
        containers = {
            name
            for name, value in vars(SocialGraph()).items()
            if isinstance(value, (dict, list))
        }
        assert set(self.WRITE_PATH) <= containers
        assert sorted(containers - reads - set(self.WRITE_PATH)) == []
