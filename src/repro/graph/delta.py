"""Delta overlay: reads that survive writes without a full refreeze.

The BI workload's defining trait is *concurrent refreshes*: reads
interleave with daily insert/delete microbatches.  Until this module,
any single mutator bumped ``SocialGraph.write_version`` and discarded
the whole :class:`~repro.graph.frozen.FrozenGraph`, so every microbatch
paid a full columnar rebuild.  The delta overlay is the standard
LSM-style answer: keep the immutable snapshot, record the writes since
freeze time as per-family *inserts* and *tombstones*, and merge them at
read time.

* :class:`DeltaOverlay` — the write-side record.  ``SocialGraph``
  mutators feed it through a registered write-hook
  (:meth:`SocialGraph.register_delta_hook`): one ``(family, op, key,
  entity)`` event per logical row touched, across the seven dynamic
  families (persons, knows, likes, memberships, posts, comments,
  forums).  Deletes always tombstone (a tombstone for a key the base
  snapshot never held is a harmless no-op in the merge); an insert
  after a delete of the same key keeps the tombstone, so the *base*
  row stays filtered while the fresh row merges in from the insert
  map.  Alongside the raw maps the overlay maintains the derived dirty
  sets the read side keys its fallbacks on (tags and forums with
  message churn, persons with knows churn).

* :class:`OverlaidGraph` — the read-side merge view.  A
  :class:`FrozenGraph` subclass that adopts the base snapshot's columns
  by reference (building one costs a dict copy, never a rebuild) and
  re-points the column-backed accessors at a per-key decision: keys
  untouched by the overlay serve from the frozen columns; dirty keys
  fall back to the live ``SocialGraph`` implementations — which are
  *always current*, because a snapshot shares the live store's entity
  tables and adjacency indexes by reference.  The engine's operator
  fast paths stay columnar: ``expand`` walks the knows CSR per clean
  source, and the ``scan_messages`` window scan emits chunks like the
  clean frozen path — each slab's base slice through a per-slab
  tombstone ``bytearray`` (:meth:`DeltaOverlay.live_mask`, folded
  from an append-only log of message deletes) with
  ``itertools.compress``, and the date-windowed overlay inserts
  spliced in at their ``(creationDate, id)`` positions — under the
  same operator counters as the clean frozen path.

Compaction — folding the overlay into a fresh snapshot — is the
:class:`~repro.graph.frozen.FreezeManager`'s job: it refreezes when the
overlay outgrows its ``compact_fraction=`` argument (default 0.25)
times the base row count; ``0.0`` degenerates to the old
refreeze-per-batch behaviour.

Query code must not import this module (lint R2, slug
``frozen-import``) for the same reason it must not import
``repro.graph.frozen``: the overlay is an engine-level storage detail,
and queries stay representation-agnostic.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Iterator

from repro.graph.frozen import FrozenGraph
from repro.graph.store import SocialGraph
from repro.schema.entities import Message, Post
from repro.util.dates import DateTime

__all__ = [
    "FAMILIES",
    "DeltaOverlay",
    "OverlaidGraph",
]

#: The dynamic row families the overlay tracks, in gauge-label order.
FAMILIES = (
    "persons", "knows", "likes", "memberships",
    "posts", "comments", "forums",
)

#: The write-hook signature mutators call: (family, op, key, entity).
DeltaHook = Callable[[str, str, object, object], None]

_MESSAGE_FAMILY = {"post": "posts", "comment": "comments"}


class DeltaOverlay:
    """Per-family inserts and tombstones since the last freeze.

    ``record`` is the write-hook :class:`SocialGraph` mutators call; the
    read side (engine operators and :class:`OverlaidGraph`) consumes
    the maps and the derived dirty sets.  Keys are the stores' natural
    ones: entity ids for persons/posts/comments/forums, the canonical
    ``(min, max)`` endpoint pair for knows, ``(person, message)`` for
    likes and ``(forum, person)`` for memberships.
    """

    def __init__(self) -> None:
        self.inserts: dict[str, dict[object, object]] = {
            family: {} for family in FAMILIES
        }
        self.tombstones: dict[str, set[object]] = {
            family: set() for family in FAMILIES
        }
        #: Tags whose postings saw message churn — the tag-window
        #: accessor falls back to the (current) live postings index.
        self.dirty_tags: set[int] = set()
        #: Forums with post churn or themselves inserted/deleted.
        self.dirty_forums: set[int] = set()
        #: Persons whose knows adjacency changed — the CSR expand walks
        #: the live ``_friends`` row for exactly these sources.
        self.knows_dirty_persons: set[int] = set()
        #: Monotonic event count; 0 iff the overlay is empty.  Also the
        #: sorted-window cache's invalidation stamp.
        self.version = 0
        self._window_cache: dict[str, tuple[list[Message], list[DateTime]]] = {}
        #: Append-only log of deleted message ids (both families).
        #: :meth:`live_mask` folds it into per-slab masks over the base
        #: snapshot whose ordinal map is ``_mask_ords``; the first
        #: ``_masked`` entries are folded.
        self._message_log: list[int] = []
        self._masks: dict[str, bytearray] = {}
        self._mask_ords: dict[int, int] | None = None
        self._masked = 0

    def __getstate__(self) -> dict[str, object]:
        # The masks index one process's base snapshot; a shipped
        # overlay refolds its log against the receiver's.
        state = self.__dict__.copy()
        state.update(_masks={}, _mask_ords=None)
        return state

    # -- write side ----------------------------------------------------

    def record(
        self, family: str, op: str, key: object, entity: object = None
    ) -> None:
        """Record one mutator event (``op`` is ``insert`` or ``delete``).

        A delete always tombstones — even when it cancels an overlay
        insert — because the same key may also exist in the base
        snapshot (delete-then-reinsert keeps the base row filtered
        while the reinserted row rides the insert map).
        """
        self.version += 1
        if op == "insert":
            self.inserts[family][key] = entity
        else:
            self.inserts[family].pop(key, None)
            self.tombstones[family].add(key)
        if family == "knows":
            self.knows_dirty_persons.update(key)  # type: ignore[arg-type]
        elif family == "forums":
            self.dirty_forums.add(key)  # type: ignore[arg-type]
        elif family == "posts" or family == "comments":
            self._window_cache.pop(family, None)
            if op != "insert":
                self._message_log.append(key)  # type: ignore[arg-type]
            message = entity
            if isinstance(message, Message):
                self.dirty_tags.update(message.tag_ids)
                if isinstance(message, Post):
                    self.dirty_forums.add(message.forum_id)

    def replay_into(self, store: SocialGraph) -> None:
        """Re-apply the recorded writes to a rebuilt entity ``store``
        (the worker half of the self-contained ship path: the snapfile
        entity section reproduces freeze-time state; this reproduces
        the post-freeze writes the overlay carries).

        Deletes run first — a delete-then-reinsert must land the fresh
        row, and the insert maps never hold a row that a later event
        tombstoned (``record`` pops it).  Replaying a cascade's root
        alongside its already-cascaded children is safe because the
        store mutators individually recorded every cascaded key (the
        tombstone closure) and deletes are no-ops for absent rows.
        Inserts replay in foreign-key order (persons before knows and
        forums, containers before messages, messages before likes);
        within a family the insert map is chronological, so every
        ``add_*`` precondition holds by construction."""
        for person_id in self.tombstones["persons"]:
            store.delete_person(person_id)  # type: ignore[arg-type]
        for forum_id in self.tombstones["forums"]:
            store.delete_forum(forum_id)  # type: ignore[arg-type]
        for message_id in self.tombstones["posts"]:
            store.delete_post(message_id)  # type: ignore[arg-type]
        for message_id in self.tombstones["comments"]:
            store.delete_comment(message_id)  # type: ignore[arg-type]
        for pair in self.tombstones["knows"]:
            store.delete_knows(*pair)  # type: ignore[misc]
        for pair in self.tombstones["memberships"]:
            store.delete_membership(*pair)  # type: ignore[misc]
        for pair in self.tombstones["likes"]:
            store.delete_like(*pair)  # type: ignore[misc]
        for person in self.inserts["persons"].values():
            store.add_person(person)  # type: ignore[arg-type]
        for edge in self.inserts["knows"].values():
            store.add_knows(edge)  # type: ignore[arg-type]
        for forum in self.inserts["forums"].values():
            store.add_forum(forum)  # type: ignore[arg-type]
        for membership in self.inserts["memberships"].values():
            store.add_membership(membership)  # type: ignore[arg-type]
        for post in self.inserts["posts"].values():
            store.add_post(post)  # type: ignore[arg-type]
        for comment in self.inserts["comments"].values():
            store.add_comment(comment)  # type: ignore[arg-type]
        for like in self.inserts["likes"].values():
            store.add_like(like)  # type: ignore[arg-type]

    def clear(self) -> None:
        """Drop everything — the snapshot was just (re)built."""
        for family in FAMILIES:
            self.inserts[family].clear()
            self.tombstones[family].clear()
        self.dirty_tags.clear()
        self.dirty_forums.clear()
        self.knows_dirty_persons.clear()
        self.version = 0
        self._window_cache.clear()
        self._message_log.clear()
        self._mask_ords = None

    # -- read side -----------------------------------------------------

    def is_empty(self) -> bool:
        return self.version == 0

    def dirty(self, family: str) -> bool:
        return bool(self.inserts[family] or self.tombstones[family])

    def rows(self, family: str) -> int:
        return len(self.inserts[family])

    def tombstone_count(self, family: str) -> int:
        return len(self.tombstones[family])

    def total_rows(self) -> int:
        """Outstanding overlay size (insert rows plus tombstones) — the
        quantity the FreezeManager's compaction threshold bounds."""
        return sum(len(self.inserts[f]) for f in FAMILIES) + sum(
            len(self.tombstones[f]) for f in FAMILIES
        )

    def messages_dirty(self, kind: str | None) -> bool:
        """Whether a ``kind``-restricted message scan must merge."""
        if kind != "comment" and self.dirty("posts"):
            return True
        if kind != "post" and self.dirty("comments"):
            return True
        return False

    def message_gone(self, message_id: int) -> bool:
        return (
            message_id in self.tombstones["posts"]
            or message_id in self.tombstones["comments"]
        )

    def person_gone(self, person_id: int) -> bool:
        return person_id in self.tombstones["persons"]

    def live_mask(self, graph: FrozenGraph, kind: str) -> bytearray | None:
        """One byte per row of ``graph``'s ``kind`` message slab: 1 for
        a surviving base row, 0 for a tombstoned one — the selector the
        engine's overlaid window scan feeds ``itertools.compress``.
        ``None`` while the family has no tombstones (every row lives).

        Built on first use per base snapshot, then kept current by
        folding only the log entries appended since the last call; ids
        the base never held (overlay-only rows) fold to nothing."""
        if not self.tombstones[_MESSAGE_FAMILY[kind]]:
            return None
        ordinal_of = graph._msg_ord
        masks = self._masks
        if self._mask_ords is not ordinal_of:
            masks["post"] = bytearray(b"\x01") * len(graph._post_objs)
            masks["comment"] = bytearray(b"\x01") * len(graph._comment_objs)
            self._mask_ords = ordinal_of
            self._masked = 0
        log = self._message_log
        if self._masked < len(log):
            posts = masks["post"]
            comments = masks["comment"]
            first_comment = len(posts)
            for message_id in log[self._masked :]:
                ordinal = ordinal_of.get(message_id)
                if ordinal is None:
                    continue
                if ordinal < first_comment:
                    posts[ordinal] = 0
                else:
                    comments[ordinal - first_comment] = 0
            self._masked = len(log)
        return masks[kind]

    def window_messages(
        self, kind: str, start: DateTime | None, end: DateTime | None
    ) -> list[Message]:
        """Overlay-inserted messages of ``kind`` with creationDate in
        ``[start, end)``, sorted by ``(creationDate, id)`` — the rows
        the engine's overlaid window scan splices into the base slabs.
        The sorted list is cached until the family next changes."""
        family = _MESSAGE_FAMILY[kind]
        cached = self._window_cache.get(family)
        if cached is None:
            objs = sorted(
                (
                    m
                    for m in self.inserts[family].values()
                    if isinstance(m, Message)
                ),
                key=lambda m: (m.creation_date, m.id),
            )
            dates = [m.creation_date for m in objs]
            cached = self._window_cache[family] = (objs, dates)
        objs, dates = cached
        lo = 0 if start is None else bisect_left(dates, start)
        hi = len(dates) if end is None else bisect_left(dates, end)
        return objs[lo:hi]


class OverlaidGraph(FrozenGraph):
    """A frozen snapshot merged with its delta overlay at read time.

    Construction adopts the base snapshot's ``__dict__`` (columns,
    shared live tables, everything) by reference — no column is
    rebuilt.  Every column-backed accessor then routes per key: clean
    keys serve from the frozen columns exactly like the base snapshot;
    keys the overlay dirtied fall back to the inherited live
    ``SocialGraph`` implementations, which read the shared (and
    therefore current) entity tables and adjacency indexes.  Row-level
    equivalence with the live store is the delta differential suite's
    acceptance bar (``tests/test_delta_overlay.py``).

    Mutators raise exactly like any :class:`FrozenGraph`; writes go to
    the live store and reach readers through the overlay.
    """

    def __init__(self, base: FrozenGraph, overlay: DeltaOverlay):
        if not isinstance(base, FrozenGraph):
            raise TypeError("OverlaidGraph wraps a FrozenGraph snapshot")
        # Deliberately skip FrozenGraph.__init__: adopt the built
        # columns by reference instead of rebuilding them.
        self.__dict__.update(base.__dict__)
        self.base_snapshot = base
        self.delta_overlay: DeltaOverlay = overlay

    # -- per-key merge/fallback accessors ------------------------------

    def messages_with_tag_in_window(
        self,
        tag_id: int,
        start: DateTime | None = None,
        end: DateTime | None = None,
    ) -> Iterator[Message]:
        if tag_id in self.delta_overlay.dirty_tags:
            # The live tag postings list is shared and maintained by
            # every message insert/delete — bisects just like the
            # frozen column, over current rows.
            return SocialGraph.messages_with_tag_in_window(
                self, tag_id, start, end
            )
        return FrozenGraph.messages_with_tag_in_window(
            self, tag_id, start, end
        )

    def posts_in_forum_window(
        self,
        forum_id: int,
        start: DateTime | None = None,
        end: DateTime | None = None,
    ) -> Iterator[Post]:
        if forum_id in self.delta_overlay.dirty_forums:
            return SocialGraph.posts_in_forum_window(
                self, forum_id, start, end
            )
        return FrozenGraph.posts_in_forum_window(self, forum_id, start, end)

    def root_post_of(self, message: Message) -> Post:
        ordinal = self._msg_ord.get(message.id)
        if ordinal is not None and not self.delta_overlay.message_gone(
            message.id
        ):
            # A surviving base message always has a surviving base
            # ancestry (deletes cascade whole subtrees), so the frozen
            # root column stays exact for it.
            return self._msg_objs[  # type: ignore[return-value]
                self._root_ord[ordinal]
            ]
        return SocialGraph.root_post_of(self, message)

    def language_of_message(self, message: Message) -> str:
        ordinal = self._msg_ord.get(message.id)
        if ordinal is not None and not self.delta_overlay.message_gone(
            message.id
        ):
            return self._post_language[self._root_ord[ordinal]]
        return SocialGraph.language_of_message(self, message)

    def country_of_person(self, person_id: int) -> int:
        ordinal = self._person_ord.get(person_id)
        if ordinal is not None and not self.delta_overlay.person_gone(
            person_id
        ):
            return self._person_country[ordinal]
        # New person (not in the columns) or deleted person — the live
        # path also preserves the KeyError a deleted id must raise.
        return SocialGraph.country_of_person(self, person_id)
