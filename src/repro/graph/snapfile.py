"""Versioned on-disk binary snapshot of a :class:`FrozenGraph`'s columns.

The frozen columnar layout (:mod:`repro.graph.frozen`) is a set of flat
``array('q')``/``array('i')`` slabs plus dictionary-encoded string
columns — exactly the shapes that serialize to raw bytes and attach
back as zero-copy ``memoryview`` casts over an ``mmap``.  This module
defines that byte layout (format v3) and the write/attach halves:

* :func:`write_snapshot` — serialize every column family of a frozen
  graph into one self-describing blob;
* :func:`attach` — validate the header and hand back per-attribute
  zero-copy columns over any readable buffer;
* :func:`open_snapshot` — ``mmap`` a snapshot file read-only and
  attach it (:class:`MappedSnapshot` owns the mapping).

File layout (all header integers little-endian except the byte-order
probe, which is written native on purpose)::

    offset  size  field
    0       4     magic  b"RSNB"
    4       2     format version (currently 3)
    6       2     flags (reserved, 0)
    8       8     byte-order probe: native int64 0x0102030405060708
    16      8     TOC offset
    24      8     TOC length
    32      ...   8-byte-aligned column sections (raw array bytes)
    toc     ...   JSON table of contents

The TOC records every section's ``(name, typecode, itemsize, offset,
nbytes, count)`` plus the string-column dictionary and snapshot
metadata (``frozen_at_version``).  Column bytes are written in the
machine's native byte order — a snapshot is an IPC artifact between
processes of one host, not an interchange format — and the probe makes
a cross-endian open fail loudly instead of returning garbage rows.

The file is *self-contained*: besides the column sections
it carries one required ``__entities__`` section (typecode ``B``) — a
compact JSON encoding of every entity and relation row, written in
replayable order (dimension tables first, then entities before the
relations that reference them, each family in the live store's own
insertion order — see :func:`_entity_payload`).  :func:`rebuild_store`
replays that payload through the ordinary ``SocialGraph`` mutators,
and ``FrozenGraph._rebuilt`` re-derives the object-side columns
(``_post_objs``, ordinal maps, postings lists) from the rebuilt store
plus the mapped columns — so a ``spawn`` worker cold-starts from the
mapped bytes alone, with no object-state pickle crossing the ship
boundary.  (The in-process parent attach needs neither: it is
``FrozenGraph.with_columns`` over the snapshot that was written.)

The section set is the format: it carries exactly the columns some
accessor or engine operator reads, and only the current version is
readable — a snapfile is written per run, never archived.
"""

from __future__ import annotations

import json
import mmap
import struct
import sys
from array import array
from dataclasses import dataclass
from typing import Any, BinaryIO, Iterator

from repro.graph.frozen import FrozenGraph, StringColumn
from repro.graph.store import SocialGraph
from repro.schema.entities import (
    Comment,
    Forum,
    ForumKind,
    Organisation,
    OrganisationType,
    Person,
    Place,
    PlaceType,
    Post,
    Tag,
    TagClass,
)
from repro.schema.relations import HasMember, Knows, Likes, StudyAt, WorkAt
from repro.util.alloc import collector_paused

__all__ = [
    "MAGIC",
    "VERSION",
    "ENTITY_SECTION",
    "SnapshotFormatError",
    "AttachedColumns",
    "MappedSnapshot",
    "attach",
    "open_snapshot",
    "rebuild_store",
    "write_snapshot",
]

MAGIC = b"RSNB"
VERSION = 3

#: Name of the required entity section: the canonical JSON encoding
#: of every entity/relation row, replayed by :func:`rebuild_store`.
ENTITY_SECTION = "__entities__"

#: Native int64 written at offset 8; reads as 0x0807060504030201 when
#: the snapshot was produced on an opposite-endian host.
_PROBE = 0x0102030405060708
#: What the probe reads as when the file was written on a host of the
#: opposite byte order.
_PROBE_SWAPPED = 0x0807060504030201

_HEADER = struct.Struct("<4sHH")  # magic, version, flags
_PROBE_STRUCT = struct.Struct("=q")  # native on purpose — see module doc
_TOC_POINTER = struct.Struct("<QQ")  # toc offset, toc length
HEADER_SIZE = 32

#: Flat array-valued column attributes of :class:`FrozenGraph`, in file
#: order.  Everything here is ``array('q')`` except the root-language
#: code column, which shares the ``array('i')`` width of the language
#: column's codes.
FLAT_COLUMNS: tuple[str, ...] = (
    "_person_ids", "_person_country",
    "_knows_offsets", "_knows_targets",
    "_post_dates", "_comment_dates",
    "_root_ord", "_forum_ids", "_comment_root_lang",
)

#: Dictionary-encoded string columns: codes are mapped, dictionaries
#: ride in the TOC (small, interned on attach).
STRING_COLUMNS: tuple[str, ...] = ("_post_language",)

#: ``dict[int, array('q')]`` column families, serialized as three
#: parallel sections: sorted keys, CSR offsets, concatenated values.
KEYED_COLUMNS: tuple[str, ...] = ("_tag_dates", "_forum_post_date_cols")

class SnapshotFormatError(ValueError):
    """A snapshot buffer failed header or layout validation."""


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


def _keyed_sections(
    name: str, mapping: dict[int, array]
) -> Iterator[tuple[str, array]]:
    keys = sorted(mapping)
    offsets = array("q", [0])
    values = array("q")
    for key in keys:
        values.extend(mapping[key])
        offsets.append(len(values))
    yield f"{name}.keys", array("q", keys)
    yield f"{name}.offsets", offsets
    yield f"{name}.values", values


def _sections(graph: FrozenGraph) -> Iterator[tuple[str, array]]:
    for attr in FLAT_COLUMNS:
        yield attr, getattr(graph, attr)
    for attr in STRING_COLUMNS:
        yield f"{attr}.codes", getattr(graph, attr).codes
    for attr in KEYED_COLUMNS:
        yield from _keyed_sections(attr, getattr(graph, attr))


@collector_paused()
def _entity_payload(graph: FrozenGraph, overlay: Any = None) -> bytes:
    """The ``__entities__`` section: every entity/relation row as a
    compact JSON document, listed in :func:`rebuild_store`'s replay
    order.  Rows are written in the live store's own insertion order
    (dict/list iteration order), so replaying them through the ordinary
    mutators reproduces every secondary index — including adjacency-list
    orders, which queries observe through group-insertion tie-breaks —
    byte-for-byte.  The file fixes the order once; every worker that
    attaches it rebuilds the identical store.

    The frozen view shares the live store's tables by reference, so
    under a dirty :class:`~repro.graph.frozen.FreezeManager` they hold
    *current* state, not freeze-time state.  Passing the manager's
    ``overlay`` restores the freeze-time section: rows the overlay
    recorded as post-freeze inserts are skipped here (they replay from
    the shipped overlay instead), and rows deleted since the freeze are
    naturally absent — their tombstones make the absence unobservable
    through the worker's merge view."""
    if overlay is None:
        skip: dict[str, Any] = {}
    else:
        skip = {
            family: keys
            for family, keys in overlay.inserts.items()
            if keys
        }
    skip_persons = skip.get("persons", ())
    skip_forums = skip.get("forums", ())
    skip_posts = skip.get("posts", ())
    skip_comments = skip.get("comments", ())
    skip_knows = skip.get("knows", ())
    skip_memberships = skip.get("memberships", ())
    skip_likes = skip.get("likes", ())
    payload = {
        "places": [
            [p.id, p.name, p.url, p.type.value, p.part_of]
            for p in graph.places.values()
        ],
        "organisations": [
            [o.id, o.type.value, o.name, o.url, o.place_id]
            for o in graph.organisations.values()
        ],
        "tag_classes": [
            [t.id, t.name, t.url, t.subclass_of]
            for t in graph.tag_classes.values()
        ],
        "tags": [
            [t.id, t.name, t.url, t.type_id] for t in graph.tags.values()
        ],
        "persons": [
            [p.id, p.first_name, p.last_name, p.gender, p.birthday,
             p.creation_date, p.location_ip, p.browser_used, p.city_id,
             p.emails, p.speaks, p.interests]
            for p in graph.persons.values()
            if p.id not in skip_persons
        ],
        "study_at": [
            [r.person_id, r.university_id, r.class_year]
            for r in graph.study_at
        ],
        "work_at": [
            [r.person_id, r.company_id, r.work_from]
            for r in graph.work_at
        ],
        "knows": [
            [e.person1, e.person2, e.creation_date]
            for e in graph.knows_edges
            if (min(e.person1, e.person2), max(e.person1, e.person2))
            not in skip_knows
        ],
        "forums": [
            [f.id, f.title, f.creation_date, f.moderator_id,
             f.kind.value, f.tag_ids]
            for f in graph.forums.values()
            if f.id not in skip_forums
        ],
        "memberships": [
            [m.forum_id, m.person_id, m.join_date]
            for m in graph.memberships
            if (m.forum_id, m.person_id) not in skip_memberships
        ],
        "posts": [
            [p.id, p.creation_date, p.location_ip, p.browser_used,
             p.content, p.length, p.creator_id, p.forum_id, p.country_id,
             p.language, p.image_file, p.tag_ids]
            for p in graph.posts.values()
            if p.id not in skip_posts
        ],
        "comments": [
            [c.id, c.creation_date, c.location_ip, c.browser_used,
             c.content, c.length, c.creator_id, c.country_id,
             c.reply_of_post, c.reply_of_comment, c.tag_ids]
            for c in graph.comments.values()
            if c.id not in skip_comments
        ],
        "likes": [
            [e.person_id, e.message_id, e.creation_date, e.is_post]
            for e in graph.likes_edges
            if (e.person_id, e.message_id) not in skip_likes
        ],
    }
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def rebuild_store(data: Any) -> SocialGraph:
    """Replay an ``__entities__`` payload into a fresh
    :class:`SocialGraph` through the ordinary mutators, in
    ``SocialGraph.from_data`` order (dimension tables, persons,
    person relations, forums, memberships, messages, likes) — so every
    secondary index is rebuilt by the same code path that built the
    parent's, and a shipped overlay can keep replaying writes on top.
    Parse and replay run inside the store's insert-only bulk scope; a
    payload that does not decode or replay is a
    :class:`SnapshotFormatError`."""
    graph = SocialGraph()
    try:
        with graph._bulk_insert():
            _replay(graph, json.loads(bytes(data)))
    except (LookupError, TypeError, ValueError) as error:
        raise SnapshotFormatError(
            f"corrupt snapshot: malformed entity section "
            f"({type(error).__name__}: {error})"
        ) from error
    return graph


def _replay(graph: SocialGraph, payload: dict[str, Any]) -> None:
    for row in payload["places"]:
        graph.add_place(
            Place(row[0], row[1], row[2], PlaceType(row[3]), row[4])
        )
    for row in payload["organisations"]:
        graph.add_organisation(
            Organisation(
                row[0], OrganisationType(row[1]), row[2], row[3], row[4]
            )
        )
    for row in payload["tag_classes"]:
        graph.add_tag_class(TagClass(*row))
    for row in payload["tags"]:
        graph.add_tag(Tag(*row))
    for row in payload["persons"]:
        graph.add_person(Person(*row))
    for row in payload["study_at"]:
        graph.add_study_at(StudyAt(*row))
    for row in payload["work_at"]:
        graph.add_work_at(WorkAt(*row))
    for row in payload["knows"]:
        graph.add_knows(Knows(*row))
    for row in payload["forums"]:
        graph.add_forum(
            Forum(row[0], row[1], row[2], row[3], ForumKind(row[4]), row[5])
        )
    for row in payload["memberships"]:
        graph.add_membership(HasMember(*row))
    for row in payload["posts"]:
        graph.add_post(Post(*row))
    for row in payload["comments"]:
        graph.add_comment(Comment(*row))
    for row in payload["likes"]:
        graph.add_like(Likes(*row))


def write_snapshot(
    graph: FrozenGraph, stream: BinaryIO, *, overlay: Any = None
) -> int:
    """Serialize ``graph``'s column families plus the entity section
    into ``stream`` (format v3); returns the number of section bytes
    written (the size a reader will map, excluding header and TOC).
    ``overlay`` (the owning manager's delta overlay, when the base is
    serialized under a dirty manager) keeps post-freeze inserts out of
    the entity section — see :func:`_entity_payload`."""
    if graph.delta_overlay is not None:
        raise ValueError(
            "cannot serialize an overlaid view; write its base_snapshot "
            "and carry the overlay beside the file"
        )
    sections: list[dict[str, Any]] = []
    offset = HEADER_SIZE
    stream.write(b"\0" * HEADER_SIZE)  # back-patched below
    entity_data = _entity_payload(graph, overlay)
    payloads: Iterator[tuple[str, str, int, int, bytes]] = iter(
        [
            *(
                (name, col.typecode, col.itemsize, len(col), col.tobytes())
                for name, col in _sections(graph)
            ),
            (ENTITY_SECTION, "B", 1, len(entity_data), entity_data),
        ]
    )
    for name, typecode, itemsize, count, data in payloads:
        pad = (-offset) % 8
        if pad:
            stream.write(b"\0" * pad)
            offset += pad
        stream.write(data)
        sections.append(
            {
                "name": name,
                "typecode": typecode,
                "itemsize": itemsize,
                "offset": offset,
                "nbytes": len(data),
                "count": count,
            }
        )
        offset += len(data)
    toc = json.dumps(
        {
            "sections": sections,
            "dictionaries": {
                attr: list(getattr(graph, attr).dictionary)
                for attr in STRING_COLUMNS
            },
            "meta": {"frozen_at_version": graph.frozen_at_version},
        },
        separators=(",", ":"),
    ).encode("utf-8")
    stream.write(toc)
    stream.seek(0)
    stream.write(_HEADER.pack(MAGIC, VERSION, 0))
    stream.write(_PROBE_STRUCT.pack(_PROBE))
    stream.write(_TOC_POINTER.pack(offset, len(toc)))
    stream.seek(offset + len(toc))
    return sum(section["nbytes"] for section in sections)


# ---------------------------------------------------------------------------
# Attaching
# ---------------------------------------------------------------------------


@dataclass
class AttachedColumns:
    """Zero-copy column families decoded from a snapshot buffer:
    ``columns`` maps every flat, string and keyed column attribute to
    its memoryview-backed value, ready for ``FrozenGraph._rebuilt`` /
    ``with_columns``;
    ``entities`` is the raw (unparsed) ``__entities__`` section for
    :func:`rebuild_store` — parsing is deferred because the in-process
    parent attach never needs it."""

    columns: dict[str, Any]
    bytes_mapped: int
    frozen_at_version: int
    entities: Any


def _validate_header(view: memoryview) -> tuple[int, int]:
    if len(view) < HEADER_SIZE:
        raise SnapshotFormatError(
            f"snapshot truncated: {len(view)} bytes is smaller than the "
            f"{HEADER_SIZE}-byte header"
        )
    magic, version, _flags = _HEADER.unpack_from(view, 0)
    if magic != MAGIC:
        raise SnapshotFormatError(
            f"not a snapshot file: bad magic {bytes(magic)!r} "
            f"(expected {MAGIC!r})"
        )
    if version != VERSION:
        raise SnapshotFormatError(
            f"unsupported snapshot format version {version} "
            f"(this reader understands version {VERSION})"
        )
    (probe,) = _PROBE_STRUCT.unpack_from(view, 8)
    if probe != _PROBE:
        if probe == _PROBE_SWAPPED:
            raise SnapshotFormatError(
                "snapshot byte order does not match this host "
                "(cross-endian snapshots are not supported)"
            )
        raise SnapshotFormatError(
            f"corrupt snapshot: byte-order probe reads 0x{probe:x}"
        )
    toc_offset, toc_length = _TOC_POINTER.unpack_from(view, 16)
    if toc_offset + toc_length > len(view):
        raise SnapshotFormatError(
            f"snapshot truncated: TOC [{toc_offset}, "
            f"{toc_offset + toc_length}) extends past the "
            f"{len(view)}-byte buffer"
        )
    return toc_offset, toc_length


def _toc_entries(toc: Any) -> tuple[list[tuple[Any, ...]], int]:
    """The TOC's section rows as ``(name, typecode, itemsize, offset,
    nbytes)`` tuples plus its ``frozen_at_version`` — or a
    :class:`SnapshotFormatError` when the TOC is not an object, or it or
    one of its sections lacks a field."""
    try:
        entries = [
            (s["name"], s["typecode"], s["itemsize"], s["offset"], s["nbytes"])
            for s in toc["sections"]
        ]
        return entries, int(toc["meta"]["frozen_at_version"])
    except (KeyError, TypeError, ValueError) as error:
        raise SnapshotFormatError(
            f"corrupt snapshot: malformed TOC ({type(error).__name__}: "
            f"{error})"
        ) from error


def _section_views(
    view: memoryview, entries: list[tuple[Any, ...]], toc_offset: int
) -> dict[str, memoryview]:
    views: dict[str, memoryview] = {}
    for name, typecode, declared, offset, nbytes in entries:
        try:
            itemsize = array(typecode).itemsize
        except (TypeError, ValueError) as error:
            raise SnapshotFormatError(
                f"corrupt snapshot: section {name!r} has unknown typecode "
                f"{typecode!r}"
            ) from error
        if itemsize != declared:
            raise SnapshotFormatError(
                f"section {name!r}: itemsize {declared} does not match "
                f"this host's '{typecode}' width {itemsize}"
            )
        if offset < HEADER_SIZE or offset + nbytes > toc_offset:
            raise SnapshotFormatError(
                f"corrupt snapshot: section {name!r} "
                f"[{offset}, {offset + nbytes}) falls outside the data "
                f"region [{HEADER_SIZE}, {toc_offset})"
            )
        if nbytes % itemsize:
            raise SnapshotFormatError(
                f"corrupt snapshot: section {name!r} length "
                f"{nbytes} is not a multiple of itemsize {itemsize}"
            )
        views[name] = view[offset : offset + nbytes].cast(typecode)
    return views


def attach(buffer: Any) -> AttachedColumns:
    """Decode a snapshot buffer (bytes or ``mmap``) into zero-copy
    column families.

    Raises :class:`SnapshotFormatError` on bad magic, an unsupported
    version, an endianness mismatch, a malformed TOC, or a
    truncated/corrupt layout.
    """
    view = memoryview(buffer)
    toc_offset, toc_length = _validate_header(view)
    try:
        toc = json.loads(bytes(view[toc_offset : toc_offset + toc_length]))
    except ValueError as error:
        raise SnapshotFormatError(
            f"corrupt snapshot: TOC is not valid JSON ({error})"
        ) from error
    entries, frozen_at_version = _toc_entries(toc)
    sections = _section_views(view, entries, toc_offset)
    columns: dict[str, Any] = {}
    try:
        for attr in FLAT_COLUMNS:
            columns[attr] = sections[attr]
        dictionaries = toc["dictionaries"]
        for attr in STRING_COLUMNS:
            column = StringColumn.__new__(StringColumn)
            column.codes = sections[f"{attr}.codes"]
            column.dictionary = [
                sys.intern(value) for value in dictionaries[attr]
            ]
            columns[attr] = column
        for attr in KEYED_COLUMNS:
            keys = sections[f"{attr}.keys"]
            offsets = sections[f"{attr}.offsets"]
            values = sections[f"{attr}.values"]
            columns[attr] = {
                keys[index]: values[offsets[index] : offsets[index + 1]]
                for index in range(len(keys))
            }
        entities = sections[ENTITY_SECTION]
    except KeyError as error:
        raise SnapshotFormatError(
            f"corrupt snapshot: missing section {error}"
        ) from error
    return AttachedColumns(
        columns=columns,
        bytes_mapped=sum(entry[4] for entry in entries),
        frozen_at_version=frozen_at_version,
        entities=entities,
    )


class MappedSnapshot:
    """A snapshot file mapped read-only: owns the ``mmap`` and exposes
    the attached columns.  ``close()`` is best-effort — exported
    memoryviews (an attached graph still holding columns) keep the
    mapping alive until they are dropped, which is exactly the safety
    the buffer protocol guarantees."""

    def __init__(self, path: str):
        self.path = path
        with open(path, "rb") as handle:
            if handle.seek(0, 2) == 0:
                raise SnapshotFormatError(f"snapshot file {path!r} is empty")
            self._mmap = mmap.mmap(
                handle.fileno(), 0, access=mmap.ACCESS_READ
            )
        try:
            self.attached = attach(self._mmap)
        except Exception:
            try:
                self._mmap.close()
            except BufferError:
                # attach() failed after exporting some views; the
                # in-flight exception's traceback still references
                # them, so the mapping closes when it is collected.
                pass
            raise

    @property
    def columns(self) -> dict[str, Any]:
        return self.attached.columns

    @property
    def bytes_mapped(self) -> int:
        return self.attached.bytes_mapped

    def close(self) -> None:
        self.attached.columns.clear()
        try:
            self._mmap.close()
        except BufferError:  # views still exported; GC will finish it
            pass


def open_snapshot(path: str) -> MappedSnapshot:
    """``mmap`` a snapshot file read-only and attach its columns."""
    return MappedSnapshot(path)
