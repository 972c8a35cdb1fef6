"""Read-optimized frozen snapshots of a :class:`SocialGraph`.

Graph systems audited under LDBC SNB win the BI workload's choke points
(CP-1 aggregation, CP-2 join/expand, CP-3 data locality) with
compressed-sparse-row adjacency and columnar storage.  This module
brings that layout to the reproduction without leaving pure Python:

* :class:`FrozenGraph` — an immutable snapshot built once from a live
  store.  It *shares* the live store's entity tables and adjacency
  indexes by reference (freezing copies nothing heavy) and adds
  columnar read structures on top:

  - dense id -> ordinal remapping for persons and messages (posts
    occupy ordinals ``[0, P)``, comments ``[P, P+C)``) and a sorted
    forum id column the engine's forum morsels slice;
  - ``array('q')``-backed CSR adjacency for the knows edges;
  - int64 epoch-millisecond date columns parallel to the
    ``(creationDate, id)``-sorted message lists, so window predicates
    bisect a flat array instead of probing month buckets;
  - a precomputed root-post column (``replyOf*`` transitive closure),
    making :meth:`FrozenGraph.root_post_of` O(1);
  - a dictionary-encoded, ``sys.intern``-ed post language column
    (:class:`StringColumn`) plus the comments' root-language codes.

  Every column is read by an accessor or an engine operator; a family
  nothing reads is not built (``tests/test_snapfile.py`` records the
  reads of every query and fails on a write-only column).

* :func:`freeze` — build a snapshot and publish per-column-family
  footprint gauges (``repro_frozen_bytes``) to the metrics registry;
* :class:`FreezeManager` — the merge-on-read lifecycle the drivers use
  around write batches: the live store remains the write path, a
  registered write-hook records every mutation into a
  :class:`~repro.graph.delta.DeltaOverlay`, and ``frozen()`` returns
  the cached snapshot (overlay empty), an
  :class:`~repro.graph.delta.OverlaidGraph` merge view (small
  overlay), or a freshly compacted snapshot (overlay past the
  threshold fraction of the base row count) — never a per-write
  refreeze.

Because the snapshot shares the live store's tables, a bare
:class:`FrozenGraph`'s validity contract is strict: **any write to the
source store invalidates every snapshot built from it** — its columnar
structures go stale even though the shared tables stay current.  All
mutators raise on the snapshot itself.  :class:`FreezeManager` is what
makes reads survive writes: the delta overlay records exactly which
keys went stale, and the overlaid view serves those from the live
indexes while everything else stays columnar.  Code holding a bare
snapshot past a write without the manager is outside the contract
(exactly like holding an iterator over a dict across a mutation).

Query code must not import this module (lint R2, slug ``frozen-import``)
— queries receive whichever graph the driver passes and stay
representation-agnostic; the engine picks the columnar fast paths off
``graph.is_frozen``.
"""

from __future__ import annotations

import copy
import sys
from array import array
from bisect import bisect_left
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.graph.store import SocialGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.delta import DeltaOverlay
from repro.obs.metrics import registry
from repro.schema.entities import Comment, Message, Post
from repro.util.alloc import collector_paused
from repro.util.dates import DateTime

__all__ = [
    "FrozenGraph",
    "FreezeManager",
    "StringColumn",
    "freeze",
    "window_range",
]


def window_range(
    dates: "array | memoryview",
    start: DateTime | None,
    end: DateTime | None,
) -> tuple[int, int]:
    """The ``[lo, hi)`` row range of a sorted date column that falls in
    the closed-open ``[start, end)`` window (either bound ``None``)."""
    lo = 0 if start is None else bisect_left(dates, start)
    hi = len(dates) if end is None else bisect_left(dates, end)
    return lo, hi


def _array_bytes(values: "array | memoryview") -> int:
    # Columns are ``array`` objects on a freshly frozen graph and
    # ``memoryview`` casts on one attached from a mapped snapshot
    # (:mod:`repro.graph.snapfile`); both carry len and itemsize.
    return len(values) * values.itemsize


class StringColumn:
    """A dictionary-encoded string column: ``array('i')`` codes over an
    interned dictionary.  A low-cardinality attribute (the post
    language) compresses to 4 bytes per row, and ``sys.intern`` makes every
    repeated value one shared object, so downstream equality checks are
    pointer comparisons."""

    __slots__ = ("codes", "dictionary")

    def __init__(self, values: Iterable[str]):
        code_of: dict[str, int] = {}
        dictionary: list[str] = []
        codes = array("i")
        for value in values:
            code = code_of.get(value)
            if code is None:
                code = code_of[value] = len(dictionary)
                dictionary.append(sys.intern(value))
            codes.append(code)
        self.codes = codes
        self.dictionary = dictionary

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index: int) -> str:
        return self.dictionary[self.codes[index]]

    def nbytes(self) -> int:
        return _array_bytes(self.codes)


class FrozenGraph(SocialGraph):
    """An immutable, column-augmented view of a loaded store.

    Entity tables and adjacency indexes are the *same objects* as the
    source store's (see the module docstring for the validity
    contract); everything below is built at freeze time.  The hot-path
    accessors the engine and the queries hit per row —
    ``messages_with_tag_in_window``, ``posts_in_forum_window``,
    ``root_post_of``, ``language_of_message``, ``country_of_person`` — are
    overridden to serve from the columns; everything else inherits the
    live implementations over the shared indexes.
    """

    is_frozen = True

    #: The outstanding write overlay, set only on
    #: :class:`~repro.graph.delta.OverlaidGraph` instances; ``None``
    #: means the columns are exact and the engine takes the clean
    #: frozen fast paths unconditionally.
    delta_overlay: "DeltaOverlay | None" = None

    # -- columns (annotated for the engine's strict-typed fast paths) ----
    _person_ids: array
    _person_ord: dict[int, int]
    _person_country: array
    _knows_offsets: array
    _knows_targets: array
    _post_objs: list[Post]
    _post_dates: array
    _comment_objs: list[Comment]
    _comment_dates: array
    _msg_objs: list[Message]
    _msg_ord: dict[int, int]
    _root_ord: array
    _forum_ids: array
    _forum_post_objs: dict[int, list[Post]]
    _forum_post_date_cols: dict[int, array]
    _tag_objs: dict[int, list[Message]]
    _tag_dates: dict[int, array]
    _comment_root_lang: array
    _lang_code_of: dict[str, int]
    _country_persons: dict[int, list[int]]
    _post_language: StringColumn

    @collector_paused()
    def __init__(self, source: SocialGraph):
        if isinstance(source, FrozenGraph):
            raise TypeError("cannot freeze a FrozenGraph; freeze the live store")
        self._adopt(source, source.write_version)
        self._derive_message_lists()
        self._build_columns()
        self._derive_lookups()

    @classmethod
    @collector_paused()
    def _rebuilt(
        cls,
        store: SocialGraph,
        columns: "dict[str, object]",
        frozen_at_version: int,
    ) -> "FrozenGraph":
        """Rebuild a snapshot worker-side from a replayed entity store
        (:func:`repro.graph.snapfile.rebuild_store`) plus the mapped
        column families — the self-contained snapfile path, where no
        object-state pickle crosses the ship boundary.

        The mapped columns are adopted as-is in place of
        ``_build_columns``; the object side is derived by the same two
        methods ``__init__`` runs.  It comes out identical to the
        parent's because the mapped orders are canonical:
        ``_person_ids``/``_forum_ids`` are sorted ids and message slabs
        are ``(creation_date, id)``-sorted, none of which depend on
        original insertion order.  Must run *before* any overlay replay
        mutates ``store`` — the derived lists capture freeze-time
        state."""
        graph = cls.__new__(cls)
        graph._adopt(store, frozen_at_version)
        graph.__dict__.update(columns)
        graph._derive_message_lists()
        graph._derive_lookups()
        return graph

    def with_columns(self, columns: "dict[str, object]") -> "FrozenGraph":
        """The same snapshot over these column buffers: a shallow copy
        that shares every table and object-side list by reference and
        swaps in ``columns`` (the zero-copy families attached from a
        mapped snapfile of this very snapshot) — the parent-side view a
        mapped provider serves, so serial runs read the exact layout
        workers see."""
        view = copy.copy(self)
        view.__dict__.update(columns)
        return view

    def _adopt(self, source: SocialGraph, frozen_at_version: int) -> None:
        # Adopt the live tables and indexes by reference — freezing must
        # not copy the object graph (that is what it exists to avoid).
        self.__dict__.update(source.__dict__)
        # A snapshot always has its columns, whatever the source's
        # ``use_indexes``: the adopted indexes are maintained regardless.
        self.use_indexes = True
        #: The source's write_version at freeze time; FreezeManager
        #: rebuilds when the live store has moved past it.
        self.frozen_at_version = frozen_at_version

    # ------------------------------------------------------------------
    # Object-side derivation (shared by freeze and worker-side rebuild)
    # ------------------------------------------------------------------

    def _derive_message_lists(self) -> None:
        """The ``(creationDate, id)``-sorted entity lists the message
        columns run parallel to, from the entity tables alone."""
        by_date = lambda m: (m.creation_date, m.id)  # noqa: E731
        post_objs = sorted(self.posts.values(), key=by_date)
        comment_objs = sorted(self.comments.values(), key=by_date)
        self._post_objs = post_objs
        self._comment_objs = comment_objs
        msg_objs: list[Message] = [*post_objs, *comment_objs]
        self._msg_objs = msg_objs
        self._msg_ord = {m.id: i for i, m in enumerate(msg_objs)}

    def _derive_lookups(self) -> None:
        """Ordinal maps, per-key entity lists and the language
        dictionary index, from the (built or mapped) columns plus the
        shared index structures."""
        self._person_ord = {pid: i for i, pid in enumerate(self._person_ids)}
        posts = self.posts
        self._forum_post_objs = {
            fid: [posts[mid] for _, mid in self._forum_posts_by_date[fid]]
            for fid in self._forum_post_date_cols
        }
        message = self.message
        self._tag_objs = {
            tag_id: [message(mid) for _, mid in self._messages_with_tag[tag_id]]
            for tag_id in self._tag_dates
        }
        self._lang_code_of = {
            value: code
            for code, value in enumerate(self._post_language.dictionary)
        }
        # Residents in sorted-id order: the canonical order the engine's
        # country scan yields and its person morsels slice
        # (``persons_in_country`` keeps the live city-by-city order,
        # which BI 2's tie-breaks observe).
        self._country_persons = {
            country_id: sorted(
                SocialGraph.persons_in_country(self, country_id)
            )
            for country_id in set(self._person_country)
        }

    # ------------------------------------------------------------------
    # Column construction
    # ------------------------------------------------------------------

    def _build_columns(self) -> None:
        self._build_person_columns()
        self._build_message_columns()
        self._build_root_columns()
        self._build_forum_columns()
        self._build_tag_columns()

    def _build_person_columns(self) -> None:
        person_ids = array("q", sorted(self.persons))
        offsets = array("q", [0])
        targets = array("q")
        country = array("q")
        persons = self.persons
        places = self.places
        for pid in person_ids:
            row = self._friends.get(pid)
            if row:
                targets.extend(row)
            offsets.append(len(targets))
            country.append(places[persons[pid].city_id].part_of)
        self._person_ids = person_ids
        self._knows_offsets = offsets
        self._knows_targets = targets
        self._person_country = country

    def _build_message_columns(self) -> None:
        post_objs = self._post_objs
        comment_objs = self._comment_objs
        self._post_dates = array("q", (p.creation_date for p in post_objs))
        self._comment_dates = array(
            "q", (c.creation_date for c in comment_objs)
        )
        self._post_language = StringColumn(p.language for p in post_objs)

    def _build_root_columns(self) -> None:
        msg_ord = self._msg_ord
        msg_objs = self._msg_objs
        posts = len(self._post_objs)
        # Root-post column: replyOf* resolved bottom-up with memoization.
        root_of_id: dict[int, int] = {}
        comments = self.comments
        root_ord = array("q", range(posts))
        for ordinal in range(posts, len(msg_objs)):
            chain: list[int] = []
            current = msg_objs[ordinal].id
            while current in comments:
                known = root_of_id.get(current)
                if known is not None:
                    current = known
                    break
                chain.append(current)
                reply = comments[current]
                current = (
                    reply.reply_of_post
                    if reply.reply_of_post >= 0
                    else reply.reply_of_comment
                )
            for mid in chain:
                root_of_id[mid] = current
            root_ord.append(msg_ord[current])
        self._root_ord = root_ord
        # Root-language code column for the comment slab: a comment's
        # BI-18 language is its root Post's, so its code indexes the
        # post language dictionary (the post slab reuses the post
        # language codes directly).
        post_codes = self._post_language.codes
        self._comment_root_lang = array(
            "i",
            (
                post_codes[root_ord[ordinal]]
                for ordinal in range(posts, len(msg_objs))
            ),
        )

    def _build_forum_columns(self) -> None:
        forum_ids = array("q", sorted(self.forums))
        self._forum_ids = forum_ids
        dated_of = self._forum_posts_by_date
        self._forum_post_date_cols = {
            fid: array("q", (d for d, _ in dated_of[fid]))
            for fid in forum_ids
            if dated_of.get(fid)
        }

    def _build_tag_columns(self) -> None:
        self._tag_dates = {
            tag_id: array("q", (d for d, _ in postings))
            for tag_id, postings in self._messages_with_tag.items()
            if postings
        }

    # ------------------------------------------------------------------
    # Columnar accessor overrides (identical rows, slice-backed)
    # ------------------------------------------------------------------

    def message_slabs(
        self, kind: str | None
    ) -> "tuple[tuple[str, list[Message], array, array], ...]":
        """The engine's frozen scan slabs, restricted to ``kind``: per
        slab its name, the ``(creationDate, id)``-sorted message list,
        and the parallel date and root-language code columns.  Codes
        index the post language dictionary (a Comment's language is its
        root Post's, per BI 18)."""
        post_slab = (
            "post", self._post_objs, self._post_dates,
            self._post_language.codes,
        )
        comment_slab = (
            "comment", self._comment_objs, self._comment_dates,
            self._comment_root_lang,
        )
        if kind == "post":
            return (post_slab,)
        if kind == "comment":
            return (comment_slab,)
        return (post_slab, comment_slab)

    def language_codes(self, languages: Iterable[str]) -> set[int]:
        """The language-dictionary codes of ``languages`` (values the
        dictionary never saw drop out — no message can match them)."""
        code_of = self._lang_code_of
        return {code_of[v] for v in languages if v in code_of}

    def messages_with_tag_in_window(
        self,
        tag_id: int,
        start: DateTime | None = None,
        end: DateTime | None = None,
    ) -> Iterator[Message]:
        objs = self._tag_objs.get(tag_id)
        if objs is None:
            return
        lo, hi = window_range(self._tag_dates[tag_id], start, end)
        yield from objs[lo:hi]

    def posts_in_forum_window(
        self,
        forum_id: int,
        start: DateTime | None = None,
        end: DateTime | None = None,
    ) -> Iterator[Post]:
        objs = self._forum_post_objs.get(forum_id)
        if objs is None:
            return
        lo, hi = window_range(
            self._forum_post_date_cols[forum_id], start, end
        )
        yield from objs[lo:hi]

    def root_post_of(self, message: Message) -> Post:
        # Root ordinals are < len(_post_objs) by construction, so the
        # combined-list lookup always lands on a Post.
        return self._msg_objs[  # type: ignore[return-value]
            self._root_ord[self._msg_ord[message.id]]
        ]

    def language_of_message(self, message: Message) -> str:
        # The root ordinal indexes the post language column directly
        # (a Post is its own root), skipping the root object entirely.
        return self._post_language[self._root_ord[self._msg_ord[message.id]]]

    def country_of_person(self, person_id: int) -> int:
        return self._person_country[self._person_ord[person_id]]

    # ------------------------------------------------------------------
    # Footprint
    # ------------------------------------------------------------------

    def footprint(self) -> dict[str, int]:
        """Bytes per column family (array buffers and code columns; the
        shared live tables are deliberately excluded — they exist with
        or without the snapshot)."""
        return {
            "person_columns": _array_bytes(self._person_ids)
            + _array_bytes(self._person_country),
            "knows_csr": _array_bytes(self._knows_offsets)
            + _array_bytes(self._knows_targets),
            "root_column": _array_bytes(self._root_ord),
            "forum_columns": _array_bytes(self._forum_ids),
            "date_columns": _array_bytes(self._post_dates)
            + _array_bytes(self._comment_dates)
            + sum(_array_bytes(a) for a in self._tag_dates.values())
            + sum(
                _array_bytes(a)
                for a in self._forum_post_date_cols.values()
            ),
            "string_columns": self._post_language.nbytes()
            + _array_bytes(self._comment_root_lang),
        }


def _immutable(name: str):
    def method(self: FrozenGraph, *args: object, **kwargs: object) -> None:
        raise TypeError(
            f"FrozenGraph is immutable: {name}() is not allowed; apply "
            "writes to the live SocialGraph and refreeze"
        )

    method.__name__ = name
    return method


#: Every SocialGraph mutator, overridden to raise on the snapshot.
_MUTATORS = (
    "add_place", "add_organisation", "add_tag_class", "add_tag",
    "add_person", "add_study_at", "add_work_at", "add_knows",
    "add_forum", "add_membership", "add_post", "add_comment", "add_like",
    "delete_like", "delete_knows", "delete_membership", "delete_comment",
    "delete_post", "delete_forum", "delete_person",
)
for _name in _MUTATORS:
    setattr(FrozenGraph, _name, _immutable(_name))
del _name


def freeze(graph: SocialGraph) -> FrozenGraph:
    """Build a :class:`FrozenGraph` snapshot of ``graph`` and publish
    its per-column-family footprint to the metrics registry
    (``repro_frozen_bytes{family=...}`` gauges and the
    ``repro_frozen_freezes_total`` counter)."""
    if isinstance(graph, FrozenGraph):
        return graph
    snapshot = FrozenGraph(graph)
    metrics = registry()
    for family, nbytes in snapshot.footprint().items():
        metrics.gauge("repro_frozen_bytes", family=family).set(float(nbytes))
    metrics.counter("repro_frozen_freezes_total").inc()
    return snapshot


class FreezeManager:
    """The merge-on-read snapshot lifecycle around write batches.

    Construction registers a write-hook on the live store that records
    every mutation into a :class:`~repro.graph.delta.DeltaOverlay`.
    ``frozen()`` then serves reads without per-write refreezes:

    * no snapshot yet (or after ``invalidate()``) — freeze, clear the
      overlay (``freezes`` += 1);
    * overlay empty — the cached snapshot, unchanged.  Static-world
      inserts (places, tags, organisations, study/work records) land
      here even though ``write_version`` moved: no frozen column
      depends on them;
    * overlay outstanding rows above ``compact_fraction`` of the base
      snapshot's row count — :meth:`compact` folds the overlay into a
      fresh snapshot (``compactions`` += 1 and the
      ``repro_delta_compactions_total`` counter);
    * otherwise — a cached :class:`~repro.graph.delta.OverlaidGraph`
      merge view over the snapshot and the (live, still-recording)
      overlay.

    Every ``frozen()`` call republishes the per-family
    ``repro_delta_rows`` / ``repro_delta_tombstones`` gauges.
    ``compact_fraction`` defaults to 0.25 (negative or NaN is a
    :class:`ValueError`); ``0.0`` restores the old
    refreeze-on-any-write behaviour, which the delta-overlay benchmark
    uses as its baseline.  ``detach()``
    unregisters the write-hook — drivers call it when their run ends so
    abandoned managers stop recording.
    """

    def __init__(
        self, graph: SocialGraph, compact_fraction: float = 0.25
    ):
        if isinstance(graph, FrozenGraph):
            raise TypeError("FreezeManager wraps the live store")
        if not compact_fraction >= 0.0:  # also rejects NaN
            raise ValueError("compact fraction must be >= 0")
        from repro.graph.delta import DeltaOverlay

        self.graph = graph
        self.compact_fraction = compact_fraction
        self.overlay = DeltaOverlay()
        graph.register_delta_hook(self.overlay.record)
        self._snapshot: FrozenGraph | None = None
        self._overlaid: FrozenGraph | None = None
        self._base_rows = 0
        self.freezes = 0
        self.compactions = 0

    def frozen(self) -> FrozenGraph:
        snapshot = self._snapshot
        if snapshot is None:
            return self._refreeze()
        overlay = self.overlay
        if overlay.is_empty():
            return snapshot
        self._publish_overlay_gauges()
        if overlay.total_rows() > self.compact_fraction * max(
            self._base_rows, 1
        ):
            return self.compact()
        overlaid = self._overlaid
        if overlaid is None:
            from repro.graph.delta import OverlaidGraph

            overlaid = self._overlaid = OverlaidGraph(snapshot, overlay)
        return overlaid

    def compact(self) -> FrozenGraph:
        """Fold the outstanding overlay into a fresh snapshot."""
        registry().counter("repro_delta_compactions_total").inc()
        self.compactions += 1
        return self._refreeze()

    def _refreeze(self) -> FrozenGraph:
        graph = self.graph
        snapshot = self._snapshot = freeze(graph)
        self._overlaid = None
        self._base_rows = (
            len(graph.persons) + len(graph.knows_edges)
            + len(graph.likes_edges) + len(graph.memberships)
            + len(graph.posts) + len(graph.comments) + len(graph.forums)
        )
        self.overlay.clear()
        self.freezes += 1
        self._publish_overlay_gauges()
        return snapshot

    def _publish_overlay_gauges(self) -> None:
        from repro.graph.delta import FAMILIES

        metrics = registry()
        overlay = self.overlay
        for family in FAMILIES:
            metrics.gauge("repro_delta_rows", family=family).set(
                float(overlay.rows(family))
            )
            metrics.gauge("repro_delta_tombstones", family=family).set(
                float(overlay.tombstone_count(family))
            )

    def invalidate(self) -> None:
        """Drop the cached snapshot unconditionally; the next
        ``frozen()`` rebuilds (a freeze, not a compaction)."""
        self._snapshot = None
        self._overlaid = None

    def detach(self) -> None:
        """Stop recording: unregister this manager's write-hook."""
        self.graph.unregister_delta_hook(self.overlay.record)
