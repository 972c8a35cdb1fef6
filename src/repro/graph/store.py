"""In-memory graph store — the reference SUT.

The LDBC SNB spec deliberately does not prescribe an internal data
representation (section 2.3.2): any store exposing the logical schema is
a valid System Under Test.  This store keeps each entity type in a
dictionary keyed by id and maintains forward/backward adjacency indexes
per relation type, which is what both workloads' traversals need
(choke points CP-2.3 index-based joins, CP-3.3 scattered index access).

``use_indexes=False`` disables all adjacency acceleration and degrades
every traversal to a full scan of the relation — the FABL ablation
benchmark quantifies what the indexes buy.

The store supports the benchmark's two load paths:

* :meth:`SocialGraph.from_data` — bulk load from a generated
  :class:`~repro.datagen.generator.SocialNetworkData`, optionally
  truncated at the update-stream cutoff;
* the ``insert_*`` methods — the Interactive workload's updates
  (IU 1-8), applied by the driver from the update streams, maintaining
  every index incrementally.
"""

from __future__ import annotations

import copy
from bisect import bisect_left, insort
from collections import defaultdict
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.schema.entities import (
    Comment,
    Forum,
    ForumKind,
    Message,
    Organisation,
    Person,
    Place,
    PlaceType,
    Post,
    Tag,
    TagClass,
)
from repro.schema.relations import HasMember, Knows, Likes, StudyAt, WorkAt
from repro.util.alloc import collector_paused
from repro.util.dates import DateTime

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.datagen.generator import SocialNetworkData

__all__ = ["SocialGraph"]


def _like_key(like: Likes) -> tuple[int, int]:
    return (like.person_id, like.message_id)


def _member_key(membership: HasMember) -> tuple[int, int]:
    return (membership.forum_id, membership.person_id)


def _study_key(record: StudyAt) -> int:
    return record.person_id


def _work_key(record: WorkAt) -> int:
    return record.person_id


def _swap_remove(table, pos_map, key, key_of, item) -> None:
    """Remove one ``key``-keyed row from ``table`` in O(1) via its
    position map (the same pattern as ``delete_knows``'s ``_knows_pos``).

    ``pos_map`` maps a key to the list of positions its rows occupy —
    a list, not a scalar, because likes/memberships admit value-distinct
    duplicates under one key.  The popped slot is filled by the table's
    last row, whose own position entry is repointed.  Table order is not
    part of the public contract (accessors return adjacency); callers
    that remove by key always remove *every* row of that key, so which
    duplicate leaves first is immaterial.  A missing map entry falls
    back to ``list.remove`` (correct, just linear).
    """
    positions = pos_map.get(key)
    if not positions:
        table.remove(item)
        return
    position = positions.pop()
    if not positions:
        del pos_map[key]
    moved = table.pop()
    last = len(table)
    if position == last:
        return
    table[position] = moved
    moved_positions = pos_map[key_of(moved)]
    moved_positions[moved_positions.index(last)] = position


def _remove_row(items: list, item: object) -> None:
    """Remove ``item`` itself from the adjacency list ``items``.

    Matches by identity: ``list.remove`` would run the dataclass
    ``__eq__`` on every earlier, non-identical row.  Identity is exact
    because every mutator appends the *same* object to every index it
    maintains — loads and ``rebuild_store`` (which ``recover`` also
    goes through) included.
    """
    del items[list(map(id, items)).index(id(item))]


def _load(
    graph: "SocialGraph", net: "SocialNetworkData", until: DateTime | None
) -> None:
    """Insert ``net``'s rows up to ``until`` — :meth:`SocialGraph.from_data`."""
    for place in net.places:
        graph.add_place(place)
    for organisation in net.organisations:
        graph.add_organisation(organisation)
    for tag_class in net.tag_classes:
        graph.add_tag_class(tag_class)
    for tag in net.tags:
        graph.add_tag(tag)

    def included(creation: DateTime) -> bool:
        return until is None or creation < until

    person_ok = set()
    for person in net.persons:
        if included(person.creation_date):
            graph.add_person(person)
            person_ok.add(person.id)
    for record in net.study_at:
        if record.person_id in person_ok:
            graph.add_study_at(record)
    for record in net.work_at:
        if record.person_id in person_ok:
            graph.add_work_at(record)
    for edge in net.knows:
        if included(edge.creation_date):
            graph.add_knows(edge)
    forum_ok = set()
    for forum in net.forums:
        if included(forum.creation_date):
            # Forums are the one entity the store mutates in place
            # (a group's moderator is detached when the moderator is
            # deleted), so each graph gets its own copy — deleting in
            # one graph must not alter the network or sibling graphs.
            graph.add_forum(copy.copy(forum))
            forum_ok.add(forum.id)
    for membership in net.memberships:
        if included(membership.join_date) and membership.forum_id in forum_ok:
            graph.add_membership(membership)
    message_ok = set()
    for post in net.posts:
        if included(post.creation_date):
            graph.add_post(post)
            message_ok.add(post.id)
    for comment in net.comments:
        parent = (
            comment.reply_of_post
            if comment.reply_of_post >= 0
            else comment.reply_of_comment
        )
        if included(comment.creation_date) and parent in message_ok:
            graph.add_comment(comment)
            message_ok.add(comment.id)
    for like in net.likes:
        if included(like.creation_date) and like.message_id in message_ok:
            graph.add_like(like)


class SocialGraph:
    """The loaded social network plus its adjacency indexes.

    The public surface is the entity/relation tables and the accessor
    methods; everything ``_``-prefixed is a secondary index whose layout
    may change between PRs.  Query modules additionally may not *iterate*
    the raw tables in :attr:`RAW_TABLES` — they scan through
    :mod:`repro.engine` so the work is instrumented (checked on every
    read by ``tests/test_boundaries.py``; point lookups like
    ``graph.persons[pid]`` remain fine).
    """

    #: Raw entity/relation tables (plus the ``messages()`` full-scan
    #: accessor) that are public for point access but off-limits to
    #: iterate from query code.
    RAW_TABLES: frozenset[str] = frozenset(
        {
            "places", "organisations", "tag_classes", "tags",
            "persons", "forums", "posts", "comments",
            "knows_edges", "likes_edges", "memberships",
            "study_at", "work_at",
            "messages",
        }
    )

    #: ``True`` only on :class:`repro.graph.frozen.FrozenGraph` — lets
    #: the engine pick columnar fast paths with one attribute check.
    is_frozen: bool = False

    #: ``True`` only inside :meth:`_bulk_insert`, as an instance
    #: attribute deleted on exit — pickles and frozen views never see it.
    _bulk: bool = False

    def __init__(self, use_indexes: bool = True):
        self.use_indexes = use_indexes
        #: Monotonic write counter: every mutator bumps it (cascading
        #: deletes bump it once per cascaded step — only change-vs-equal
        #: matters).  ``repro.graph.frozen.FreezeManager`` compares it to
        #: decide whether a frozen snapshot is stale.
        self.write_version = 0

        # Entity tables.
        self.places: dict[int, Place] = {}
        self.organisations: dict[int, Organisation] = {}
        self.tag_classes: dict[int, TagClass] = {}
        self.tags: dict[int, Tag] = {}
        self.persons: dict[int, Person] = {}
        self.forums: dict[int, Forum] = {}
        self.posts: dict[int, Post] = {}
        self.comments: dict[int, Comment] = {}

        # Relation tables (kept also in index-free form for ablations).
        self.knows_edges: list[Knows] = []
        self.likes_edges: list[Likes] = []
        self.memberships: list[HasMember] = []
        self.study_at: list[StudyAt] = []
        self.work_at: list[WorkAt] = []

        # Adjacency indexes.
        self._friends: dict[int, dict[int, DateTime]] = defaultdict(dict)
        self._posts_by_creator: dict[int, list[Post]] = defaultdict(list)
        self._comments_by_creator: dict[int, list[Comment]] = defaultdict(list)
        self._replies_of: dict[int, list[Comment]] = defaultdict(list)
        #: Tag postings list: tag id -> [(creationDate, message id), ...]
        #: kept sorted, so tag+date predicates bisect instead of filtering.
        self._messages_with_tag: dict[int, list[tuple[DateTime, int]]] = (
            defaultdict(list)
        )
        #: Forum posts ordered by date: forum id -> [(creationDate, post id)].
        self._forum_posts_by_date: dict[int, list[tuple[DateTime, int]]] = (
            defaultdict(list)
        )
        self._likes_of_message: dict[int, list[Likes]] = defaultdict(list)
        self._likes_by_person: dict[int, list[Likes]] = defaultdict(list)
        self._forums_of_member: dict[int, list[HasMember]] = defaultdict(list)
        self._members_of_forum: dict[int, list[HasMember]] = defaultdict(list)
        self._posts_in_forum: dict[int, list[Post]] = defaultdict(list)
        self._moderated_forums: dict[int, list[Forum]] = defaultdict(list)
        self._persons_in_city: dict[int, list[int]] = defaultdict(list)
        self._cities_of_country: dict[int, list[int]] = defaultdict(list)
        self._persons_interested: dict[int, list[int]] = defaultdict(list)
        self._study_at_of: dict[int, list[StudyAt]] = defaultdict(list)
        self._work_at_of: dict[int, list[WorkAt]] = defaultdict(list)
        self._tagclass_children: dict[int, list[int]] = defaultdict(list)
        self._tags_of_class: dict[int, list[int]] = defaultdict(list)
        self._forums_with_tag: dict[int, list[int]] = defaultdict(list)
        #: (person1, person2) -> position in ``knows_edges``; lets
        #: ``delete_knows`` swap-remove in O(degree) instead of
        #: rebuilding the whole edge list (``knows_edges`` order is not
        #: part of the public contract — accessors return adjacency).
        self._knows_pos: dict[tuple[int, int], int] = {}
        #: Position maps for the remaining relation lists, so every
        #: delete path swap-removes instead of linear-scanning: key ->
        #: positions (a list — likes and memberships admit duplicate
        #: keys with distinct values; study/work key on the person).
        self._likes_pos: dict[tuple[int, int], list[int]] = {}
        self._member_pos: dict[tuple[int, int], list[int]] = {}
        self._study_pos: dict[int, list[int]] = {}
        self._work_pos: dict[int, list[int]] = {}
        #: Delta write-hooks (``repro.graph.delta``): each registered
        #: callable receives one ``(family, op, key, entity)`` event per
        #: logical row a mutator touches.  Empty (zero-cost) unless a
        #: FreezeManager is attached.
        self._delta_hooks: list = []

        # Name lookups (query parameters are names for places/tags/classes).
        self._place_by_name: dict[tuple[str, PlaceType], int] = {}
        self._tag_by_name: dict[str, int] = {}
        self._tagclass_by_name: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Delta write-hooks
    # ------------------------------------------------------------------

    def register_delta_hook(self, hook) -> None:
        """Attach a write-hook called as ``hook(family, op, key,
        entity)`` for every dynamic-family row a mutator touches (the
        :class:`repro.graph.delta.DeltaOverlay` record feed).  Static
        entities (places, organisations, tag classes, tags) and the
        study/work records emit no events: no frozen column depends on
        them — their accessors read the shared live tables."""
        self._delta_hooks.append(hook)

    def unregister_delta_hook(self, hook) -> None:
        """Detach a previously registered write-hook (no-op if absent)."""
        try:
            self._delta_hooks.remove(hook)
        except ValueError:
            pass

    def _record_delta(self, family: str, op: str, key, entity=None) -> None:
        for hook in self._delta_hooks:
            hook(family, op, key, entity)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    @contextmanager
    def _bulk_insert(self) -> Iterator[None]:
        """The insert-only scope of a bulk load (:meth:`from_data`,
        :func:`repro.graph.snapfile.rebuild_store`).

        Inside it the cyclic collector is paused (every row allocated
        survives — see :mod:`repro.util.alloc`), the two sorted posting
        families (``_messages_with_tag``, ``_forum_posts_by_date``)
        append instead of ``insort``-ing, and every delete raises.  On
        exit — also when the body raises — each posting list is sorted
        once.  Entries are unique ``(creationDate, id)`` pairs, so the
        lists come out identical to the ``insort``-built ones.
        """
        self._bulk = True
        with collector_paused():
            try:
                yield
            finally:
                del self._bulk
                for family in (self._messages_with_tag,
                               self._forum_posts_by_date):
                    for postings in family.values():
                        postings.sort()

    def _refuse_in_bulk(self, op: str) -> None:
        if self._bulk:
            raise RuntimeError(f"{op}() inside an insert-only bulk load")

    @classmethod
    def from_data(
        cls,
        net: "SocialNetworkData",
        until: DateTime | None = None,
        use_indexes: bool = True,
    ) -> "SocialGraph":
        """Bulk load a generated network.

        ``until`` truncates the dynamic part at a timestamp: only events
        with ``creationDate < until`` are loaded.  Datagen's timestamps
        are causally ordered (an entity is always created after
        everything it references), so a time-prefix is referentially
        consistent — this realizes the spec's 90 % bulk-load dataset
        when ``until`` is the update cutoff.  Runs inside
        :meth:`_bulk_insert`.
        """
        graph = cls(use_indexes=use_indexes)
        with graph._bulk_insert():
            _load(graph, net, until)
        return graph

    # ------------------------------------------------------------------
    # Static entity inserts
    # ------------------------------------------------------------------

    def add_place(self, place: Place) -> None:
        self.write_version += 1
        self.places[place.id] = place
        self._place_by_name[(place.name, place.type)] = place.id
        if place.type is PlaceType.CITY and place.part_of >= 0:
            self._cities_of_country[place.part_of].append(place.id)

    def add_organisation(self, organisation: Organisation) -> None:
        self.write_version += 1
        self.organisations[organisation.id] = organisation

    def add_tag_class(self, tag_class: TagClass) -> None:
        self.write_version += 1
        self.tag_classes[tag_class.id] = tag_class
        self._tagclass_by_name[tag_class.name] = tag_class.id
        if tag_class.subclass_of >= 0:
            self._tagclass_children[tag_class.subclass_of].append(tag_class.id)

    def add_tag(self, tag: Tag) -> None:
        self.write_version += 1
        self.tags[tag.id] = tag
        self._tag_by_name[tag.name] = tag.id
        self._tags_of_class[tag.type_id].append(tag.id)

    # ------------------------------------------------------------------
    # Dynamic inserts (the IU operations route through these)
    # ------------------------------------------------------------------

    def add_person(self, person: Person) -> None:
        if person.id in self.persons:
            raise ValueError(f"duplicate person id {person.id}")
        self.write_version += 1
        self.persons[person.id] = person
        self._persons_in_city[person.city_id].append(person.id)
        for tag_id in person.interests:
            self._persons_interested[tag_id].append(person.id)
        if self._delta_hooks:
            self._record_delta("persons", "insert", person.id, person)

    def add_study_at(self, record: StudyAt) -> None:
        self.write_version += 1
        self._study_pos.setdefault(record.person_id, []).append(
            len(self.study_at)
        )
        self.study_at.append(record)
        self._study_at_of[record.person_id].append(record)

    def add_work_at(self, record: WorkAt) -> None:
        self.write_version += 1
        self._work_pos.setdefault(record.person_id, []).append(
            len(self.work_at)
        )
        self.work_at.append(record)
        self._work_at_of[record.person_id].append(record)

    def add_knows(self, edge: Knows) -> None:
        self.write_version += 1
        self._knows_pos[(edge.person1, edge.person2)] = len(self.knows_edges)
        self.knows_edges.append(edge)
        self._friends[edge.person1][edge.person2] = edge.creation_date
        self._friends[edge.person2][edge.person1] = edge.creation_date
        if self._delta_hooks:
            self._record_delta(
                "knows", "insert",
                (min(edge.person1, edge.person2),
                 max(edge.person1, edge.person2)),
                edge,
            )

    def add_forum(self, forum: Forum) -> None:
        if forum.id in self.forums:
            raise ValueError(f"duplicate forum id {forum.id}")
        self.write_version += 1
        self.forums[forum.id] = forum
        self._moderated_forums[forum.moderator_id].append(forum)
        for tag_id in forum.tag_ids:
            self._forums_with_tag[tag_id].append(forum.id)
        if self._delta_hooks:
            self._record_delta("forums", "insert", forum.id, forum)

    def add_membership(self, membership: HasMember) -> None:
        self.write_version += 1
        self._member_pos.setdefault(
            (membership.forum_id, membership.person_id), []
        ).append(len(self.memberships))
        self.memberships.append(membership)
        self._forums_of_member[membership.person_id].append(membership)
        self._members_of_forum[membership.forum_id].append(membership)
        if self._delta_hooks:
            self._record_delta(
                "memberships", "insert",
                (membership.forum_id, membership.person_id), membership,
            )

    def _index_message(self, message: Message) -> None:
        """Post a new Post or Comment to its tags' postings lists."""
        entry = (message.creation_date, message.id)
        place = list.append if self._bulk else insort
        for tag_id in message.tag_ids:
            place(self._messages_with_tag[tag_id], entry)

    def _unindex_message(self, message: Message) -> None:
        """Evict a deleted Post or Comment from its tags' postings lists."""
        entry = (message.creation_date, message.id)
        for tag_id in message.tag_ids:
            postings = self._messages_with_tag[tag_id]
            index = bisect_left(postings, entry)
            if index < len(postings) and postings[index] == entry:
                del postings[index]

    def add_post(self, post: Post) -> None:
        if post.id in self.posts or post.id in self.comments:
            raise ValueError(f"duplicate message id {post.id}")
        self.write_version += 1
        self.posts[post.id] = post
        self._posts_by_creator[post.creator_id].append(post)
        self._posts_in_forum[post.forum_id].append(post)
        place = list.append if self._bulk else insort
        place(self._forum_posts_by_date[post.forum_id],
              (post.creation_date, post.id))
        self._index_message(post)
        if self._delta_hooks:
            self._record_delta("posts", "insert", post.id, post)

    def add_comment(self, comment: Comment) -> None:
        if comment.id in self.posts or comment.id in self.comments:
            raise ValueError(f"duplicate message id {comment.id}")
        self.write_version += 1
        self.comments[comment.id] = comment
        self._comments_by_creator[comment.creator_id].append(comment)
        parent = (
            comment.reply_of_post
            if comment.reply_of_post >= 0
            else comment.reply_of_comment
        )
        self._replies_of[parent].append(comment)
        self._index_message(comment)
        if self._delta_hooks:
            self._record_delta("comments", "insert", comment.id, comment)

    def add_like(self, like: Likes) -> None:
        self.write_version += 1
        self._likes_pos.setdefault(
            (like.person_id, like.message_id), []
        ).append(len(self.likes_edges))
        self.likes_edges.append(like)
        self._likes_of_message[like.message_id].append(like)
        self._likes_by_person[like.person_id].append(like)
        if self._delta_hooks:
            self._record_delta(
                "likes", "insert", (like.person_id, like.message_id), like
            )

    # ------------------------------------------------------------------
    # Dynamic deletes (the DEL operations route through these).
    #
    # Cascade semantics follow the benchmark's delete design (the VLDB
    # 2022 BI paper; the supplied spec flags deletes as in design,
    # section 5.2): deleting an entity removes everything that cannot
    # exist without it — a Message's likes and reply tree, a Forum's
    # posts and memberships, a Person's personal forums, messages,
    # likes, memberships and knows edges.  Group forums survive their
    # moderator's deletion with the moderator detached.
    # ------------------------------------------------------------------

    def delete_like(self, person_id: int, message_id: int) -> None:
        """Remove one likes edge (no-op if absent).

        O(likes-of-message): the edge leaves ``likes_edges`` by
        swap-remove through ``_likes_pos`` — no O(E) list scan.
        """
        self._refuse_in_bulk("delete_like")
        self.write_version += 1
        existing = [
            l
            for l in self._likes_of_message.get(message_id, [])
            if l.person_id == person_id
        ]
        for like in existing:
            _swap_remove(
                self.likes_edges, self._likes_pos,
                (person_id, message_id), _like_key, like,
            )
            _remove_row(self._likes_of_message[message_id], like)
            _remove_row(self._likes_by_person[person_id], like)
            if self._delta_hooks:
                self._record_delta(
                    "likes", "delete", (person_id, message_id), like
                )

    def delete_knows(self, person1: int, person2: int) -> None:
        """Remove a friendship edge (no-op if absent).

        O(degree-of-caller) overall: the ``_friends`` pops are dict
        deletes and the edge leaves ``knows_edges`` by swap-remove via
        the ``_knows_pos`` position map — no O(E) list rebuild.
        """
        self._refuse_in_bulk("delete_knows")
        self.write_version += 1
        a, b = min(person1, person2), max(person1, person2)
        self._friends.get(a, {}).pop(b, None)
        self._friends.get(b, {}).pop(a, None)
        position = self._knows_pos.pop((a, b), None)
        if position is None:
            return
        edges = self.knows_edges
        moved = edges.pop()
        if position < len(edges):
            edges[position] = moved
            self._knows_pos[(moved.person1, moved.person2)] = position
        if self._delta_hooks:
            self._record_delta("knows", "delete", (a, b))

    def delete_membership(self, forum_id: int, person_id: int) -> None:
        """Remove a hasMember edge (no-op if absent).

        O(members-of-forum): the edge leaves ``memberships`` by
        swap-remove through ``_member_pos`` — no O(E) list scan.
        """
        self._refuse_in_bulk("delete_membership")
        self.write_version += 1
        existing = [
            m
            for m in self._members_of_forum.get(forum_id, [])
            if m.person_id == person_id
        ]
        for membership in existing:
            _swap_remove(
                self.memberships, self._member_pos,
                (forum_id, person_id), _member_key, membership,
            )
            _remove_row(self._members_of_forum[forum_id], membership)
            _remove_row(self._forums_of_member[person_id], membership)
            if self._delta_hooks:
                self._record_delta(
                    "memberships", "delete", (forum_id, person_id), membership
                )

    def _delete_message_likes(self, message_id: int) -> None:
        for like in self._likes_of_message.pop(message_id, []):
            _swap_remove(
                self.likes_edges, self._likes_pos,
                (like.person_id, like.message_id), _like_key, like,
            )
            _remove_row(self._likes_by_person[like.person_id], like)
            if self._delta_hooks:
                self._record_delta(
                    "likes", "delete",
                    (like.person_id, like.message_id), like,
                )

    def delete_comment(self, comment_id: int) -> None:
        """Delete a Comment, its likes, and its reply subtree.

        The subtree cascade runs over an explicit stack: reply chains
        grow with thread depth and routinely exceed the interpreter's
        recursion limit at scale, so recursion is not an option here.
        """
        self._refuse_in_bulk("delete_comment")
        comment = self.comments.get(comment_id)
        if comment is None:
            return
        parent = (
            comment.reply_of_post
            if comment.reply_of_post >= 0
            else comment.reply_of_comment
        )
        _remove_row(self._replies_of[parent], comment)
        stack: list[Comment] = [comment]
        while stack:
            node = stack.pop()
            self.write_version += 1
            stack.extend(self._replies_of.pop(node.id, ()))
            self._delete_message_likes(node.id)
            _remove_row(self._comments_by_creator[node.creator_id], node)
            self._unindex_message(node)
            del self.comments[node.id]
            if self._delta_hooks:
                self._record_delta("comments", "delete", node.id, node)

    def delete_post(self, post_id: int) -> None:
        """Delete a Post, its likes, and its whole thread."""
        self._refuse_in_bulk("delete_post")
        post = self.posts.get(post_id)
        if post is None:
            return
        self.write_version += 1
        for reply in list(self._replies_of.get(post_id, [])):
            self.delete_comment(reply.id)
        self._replies_of.pop(post_id, None)
        self._delete_message_likes(post_id)
        _remove_row(self._posts_by_creator[post.creator_id], post)
        _remove_row(self._posts_in_forum[post.forum_id], post)
        dated = self._forum_posts_by_date[post.forum_id]
        index = bisect_left(dated, (post.creation_date, post.id))
        if index < len(dated) and dated[index] == (post.creation_date, post.id):
            del dated[index]
        self._unindex_message(post)
        del self.posts[post_id]
        if self._delta_hooks:
            self._record_delta("posts", "delete", post_id, post)

    def delete_forum(self, forum_id: int) -> None:
        """Delete a Forum with its posts (cascading) and memberships."""
        self._refuse_in_bulk("delete_forum")
        forum = self.forums.get(forum_id)
        if forum is None:
            return
        self.write_version += 1
        for post in list(self._posts_in_forum.get(forum_id, [])):
            self.delete_post(post.id)
        self._posts_in_forum.pop(forum_id, None)
        self._forum_posts_by_date.pop(forum_id, None)
        for membership in self._members_of_forum.pop(forum_id, []):
            _swap_remove(
                self.memberships, self._member_pos,
                (forum_id, membership.person_id), _member_key, membership,
            )
            _remove_row(
                self._forums_of_member[membership.person_id], membership
            )
            if self._delta_hooks:
                self._record_delta(
                    "memberships", "delete",
                    (forum_id, membership.person_id), membership,
                )
        moderated = self._moderated_forums.get(forum.moderator_id)
        if moderated and forum in moderated:
            moderated.remove(forum)
        for tag_id in forum.tag_ids:
            self._forums_with_tag[tag_id].remove(forum_id)
        del self.forums[forum_id]
        if self._delta_hooks:
            self._record_delta("forums", "delete", forum_id, forum)

    def delete_person(self, person_id: int) -> None:
        """Delete a Person and everything anchored on them.

        Cascades: their knows edges, likes given, memberships, created
        messages (with reply trees), and their personal forums (walls
        and albums).  Moderated group forums survive with the moderator
        detached (set to -1).
        """
        self._refuse_in_bulk("delete_person")
        person = self.persons.get(person_id)
        if person is None:
            return
        self.write_version += 1
        for friend in list(self._friends.get(person_id, {})):
            self.delete_knows(person_id, friend)
        self._friends.pop(person_id, None)
        for like in list(self._likes_by_person.get(person_id, [])):
            self.delete_like(person_id, like.message_id)
        self._likes_by_person.pop(person_id, None)
        for membership in list(self._forums_of_member.get(person_id, [])):
            self.delete_membership(membership.forum_id, person_id)
        self._forums_of_member.pop(person_id, None)
        for forum in list(self._moderated_forums.get(person_id, [])):
            if forum.kind is ForumKind.GROUP:
                forum.moderator_id = -1
            else:
                self.delete_forum(forum.id)
        self._moderated_forums.pop(person_id, None)
        for comment in list(self._comments_by_creator.get(person_id, [])):
            self.delete_comment(comment.id)
        for post in list(self._posts_by_creator.get(person_id, [])):
            self.delete_post(post.id)
        self._posts_by_creator.pop(person_id, None)
        self._comments_by_creator.pop(person_id, None)
        # Study/work records leave their lists in place by swap-remove
        # (never a rebound rebuilt list: frozen snapshots share these
        # tables by reference, and a rebind would silently fork them).
        for record in self._study_at_of.pop(person_id, []):
            _swap_remove(
                self.study_at, self._study_pos, person_id, _study_key, record
            )
        for record in self._work_at_of.pop(person_id, []):
            _swap_remove(
                self.work_at, self._work_pos, person_id, _work_key, record
            )
        self._persons_in_city[person.city_id].remove(person_id)
        for tag_id in person.interests:
            self._persons_interested[tag_id].remove(person_id)
        del self.persons[person_id]
        if self._delta_hooks:
            self._record_delta("persons", "delete", person_id, person)

    # ------------------------------------------------------------------
    # Lookups — entity access
    # ------------------------------------------------------------------

    def message(self, message_id: int) -> Message:
        """A Post or a Comment (Messages share one id space)."""
        post = self.posts.get(message_id)
        if post is not None:
            return post
        return self.comments[message_id]

    def has_message(self, message_id: int) -> bool:
        return message_id in self.posts or message_id in self.comments

    def messages(self) -> Iterator[Message]:
        """All Messages (Posts then Comments)."""
        yield from self.posts.values()
        yield from self.comments.values()

    # ------------------------------------------------------------------
    # Lookups — adjacency (all honour ``use_indexes``)
    # ------------------------------------------------------------------

    def friends_of(self, person_id: int) -> dict[int, DateTime]:
        """Friend id -> knows.creationDate."""
        if self.use_indexes:
            return self._friends.get(person_id, {})
        result: dict[int, DateTime] = {}
        for edge in self.knows_edges:
            if edge.person1 == person_id:
                result[edge.person2] = edge.creation_date
            elif edge.person2 == person_id:
                result[edge.person1] = edge.creation_date
        return result

    def posts_by(self, person_id: int) -> list[Post]:
        if self.use_indexes:
            return self._posts_by_creator.get(person_id, [])
        return [p for p in self.posts.values() if p.creator_id == person_id]

    def comments_by(self, person_id: int) -> list[Comment]:
        if self.use_indexes:
            return self._comments_by_creator.get(person_id, [])
        return [c for c in self.comments.values() if c.creator_id == person_id]

    def messages_by(self, person_id: int) -> Iterable[Message]:
        yield from self.posts_by(person_id)
        yield from self.comments_by(person_id)

    def replies_of(self, message_id: int) -> list[Comment]:
        if self.use_indexes:
            return self._replies_of.get(message_id, [])
        return [
            c
            for c in self.comments.values()
            if c.reply_of_post == message_id or c.reply_of_comment == message_id
        ]

    def parent_of(self, comment: Comment) -> Message:
        parent = (
            comment.reply_of_post
            if comment.reply_of_post >= 0
            else comment.reply_of_comment
        )
        return self.message(parent)

    def root_post_of(self, message: Message) -> Post:
        """The Post at the root of a Message's thread (replyOf*)."""
        current = message
        while isinstance(current, Comment):
            current = self.parent_of(current)
        return current

    def language_of_message(self, message: Message) -> str:
        """The language of a Message per BI 18: a Post's own language; a
        Comment's is the language of the Post initiating its thread."""
        if not message.is_comment:
            return message.language  # type: ignore[union-attr]
        return self.root_post_of(message).language

    def messages_with_tag_in_window(
        self,
        tag_id: int,
        start: DateTime | None = None,
        end: DateTime | None = None,
    ) -> Iterator[Message]:
        """Messages carrying a Tag with creationDate in [start, end).

        With the tag postings index the date bounds bisect into the
        date-ordered postings list; without it this degrades to a
        filtered full scan.
        """
        if self.use_indexes:
            postings = self._messages_with_tag.get(tag_id, [])
            lo = 0 if start is None else bisect_left(postings, (start, -1))
            hi = len(postings) if end is None else bisect_left(
                postings, (end, -1)
            )
            for index in range(lo, hi):
                yield self.message(postings[index][1])
            return
        for message in self.messages():
            if tag_id not in message.tag_ids:
                continue
            ts = message.creation_date
            if (start is None or ts >= start) and (end is None or ts < end):
                yield message

    def posts_in_forum_window(
        self,
        forum_id: int,
        start: DateTime | None = None,
        end: DateTime | None = None,
    ) -> Iterator[Post]:
        """A Forum's Posts with creationDate in [start, end), date order."""
        if self.use_indexes:
            dated = self._forum_posts_by_date.get(forum_id, [])
            lo = 0 if start is None else bisect_left(dated, (start, -1))
            hi = len(dated) if end is None else bisect_left(dated, (end, -1))
            for index in range(lo, hi):
                yield self.posts[dated[index][1]]
            return
        for post in self.posts_in_forum(forum_id):
            ts = post.creation_date
            if (start is None or ts >= start) and (end is None or ts < end):
                yield post

    def forums_with_tag(self, tag_id: int) -> list[int]:
        if self.use_indexes:
            return self._forums_with_tag.get(tag_id, [])
        return [f.id for f in self.forums.values() if tag_id in f.tag_ids]

    def likes_of_message(self, message_id: int) -> list[Likes]:
        if self.use_indexes:
            return self._likes_of_message.get(message_id, [])
        return [l for l in self.likes_edges if l.message_id == message_id]

    def likes_by_person(self, person_id: int) -> list[Likes]:
        if self.use_indexes:
            return self._likes_by_person.get(person_id, [])
        return [l for l in self.likes_edges if l.person_id == person_id]

    def forums_of_member(self, person_id: int) -> list[HasMember]:
        if self.use_indexes:
            return self._forums_of_member.get(person_id, [])
        return [m for m in self.memberships if m.person_id == person_id]

    def members_of_forum(self, forum_id: int) -> list[HasMember]:
        if self.use_indexes:
            return self._members_of_forum.get(forum_id, [])
        return [m for m in self.memberships if m.forum_id == forum_id]

    def posts_in_forum(self, forum_id: int) -> list[Post]:
        if self.use_indexes:
            return self._posts_in_forum.get(forum_id, [])
        return [p for p in self.posts.values() if p.forum_id == forum_id]

    def moderated_forums(self, person_id: int) -> list[Forum]:
        if self.use_indexes:
            return self._moderated_forums.get(person_id, [])
        return [f for f in self.forums.values() if f.moderator_id == person_id]

    def persons_in_city(self, city_id: int) -> list[int]:
        if self.use_indexes:
            return self._persons_in_city.get(city_id, [])
        return [p.id for p in self.persons.values() if p.city_id == city_id]

    def cities_of_country(self, country_id: int) -> list[int]:
        return self._cities_of_country.get(country_id, [])

    def persons_in_country(self, country_id: int) -> Iterator[int]:
        for city_id in self.cities_of_country(country_id):
            yield from self.persons_in_city(city_id)

    def country_of_person(self, person_id: int) -> int:
        """The Country Place id of a Person's home City."""
        city = self.places[self.persons[person_id].city_id]
        return city.part_of

    def persons_interested_in(self, tag_id: int) -> list[int]:
        if self.use_indexes:
            return self._persons_interested.get(tag_id, [])
        return [p.id for p in self.persons.values() if tag_id in p.interests]

    def study_at_of(self, person_id: int) -> list[StudyAt]:
        return self._study_at_of.get(person_id, [])

    def work_at_of(self, person_id: int) -> list[WorkAt]:
        return self._work_at_of.get(person_id, [])

    # ------------------------------------------------------------------
    # Tag-class hierarchy
    # ------------------------------------------------------------------

    def tagclass_descendants(self, tagclass_id: int) -> set[int]:
        """isSubclassOf* — the class and all transitive subclasses."""
        result: set[int] = set()
        stack = [tagclass_id]
        while stack:
            current = stack.pop()
            if current in result:
                continue
            result.add(current)
            stack.extend(self._tagclass_children.get(current, []))
        return result

    def tags_of_class(self, tagclass_id: int) -> list[int]:
        """Tags whose *direct* type (hasType) is the class."""
        return self._tags_of_class.get(tagclass_id, [])

    def tags_in_class_tree(self, tagclass_id: int) -> set[int]:
        """Tags whose type is the class or any descendant."""
        tags: set[int] = set()
        for cls in self.tagclass_descendants(tagclass_id):
            tags.update(self._tags_of_class.get(cls, []))
        return tags

    # ------------------------------------------------------------------
    # Name resolution (query parameters)
    # ------------------------------------------------------------------

    def country_id(self, name: str) -> int:
        return self._place_by_name[(name, PlaceType.COUNTRY)]

    def city_id(self, name: str) -> int:
        return self._place_by_name[(name, PlaceType.CITY)]

    def tag_id(self, name: str) -> int:
        return self._tag_by_name[name]

    def tagclass_id(self, name: str) -> int:
        return self._tagclass_by_name[name]

    # ------------------------------------------------------------------
    # Summary statistics
    # ------------------------------------------------------------------

    def node_count(self) -> int:
        return (
            len(self.places)
            + len(self.organisations)
            + len(self.tag_classes)
            + len(self.tags)
            + len(self.persons)
            + len(self.forums)
            + len(self.posts)
            + len(self.comments)
        )
