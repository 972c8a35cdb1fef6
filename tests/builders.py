"""Hand-built graph fixtures for exact query-semantics tests.

``build_micro_world`` creates a small, fully known static world (places,
organisations, tag classes, tags); the ``GraphBuilder`` then adds
dynamic entities with readable defaults so each test constructs exactly
the scenario it asserts about.

Timestamps use :func:`repro.util.dates.make_datetime`; helper ``ts``
abbreviates day-resolution instants inside 2012.

``run_every_read`` runs every registered BI, IC and IS read on a graph
of any layout, for the tests that compare or record what reads do.
``attribute_reads`` routes every attribute read on a graph class through
a callback, for the tests that record which names reads touch, and
``ties_reversed`` makes the query modules break sort-key ties the other
way, for the tests that check every result order is total.
"""

from __future__ import annotations

import builtins
import importlib
import pkgutil
import sys
from contextlib import contextmanager

import repro.queries
from repro.engine import expand
from repro.graph.store import SocialGraph
from repro.queries.bi import ALL_QUERIES
from repro.queries.interactive.complex import ALL_COMPLEX
from repro.queries.interactive.short import ALL_SHORT
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
from repro.util.dates import make_date, make_datetime

# Static world ids.
EUROPE, ASIA = 0, 1
FRANCE, JAPAN = 10, 11
PARIS, LYON, TOKYO = 20, 21, 22
UNI_PARIS, UNI_TOKYO, ACME, KAIJU = 0, 1, 2, 3
TC_THING, TC_MUSIC, TC_SPORT, TC_JAZZ = 0, 1, 2, 3
TAG_ROCK, TAG_JAZZ, TAG_SUMO, TAG_BEBOP = 0, 1, 2, 3


def ts(month: int, day: int, year: int = 2012, hour: int = 12) -> int:
    """A DateTime inside the default simulated window."""
    return make_datetime(year, month, day, hour)


def birthday(year: int, month: int = 6, day: int = 15) -> int:
    return make_date(year, month, day)


def run_query(query, graph, binding):
    """A query outcome: its rows, or the error a stale binding caused."""
    try:
        return query(graph, *binding)
    except KeyError as exc:
        return ("KeyError", str(exc))


def run_every_read(graph, params, source) -> dict[tuple[str, int], list]:
    """Every registered BI, IC and IS read on ``graph``, two bindings
    each (IS on two Persons, Posts and Comments of ``source``), keyed by
    ``(family, number)``.  A friends expansion also runs, for the tests
    that record which containers reads touch; its rows are not kept,
    as adjacency order is not a result order."""
    persons = params.person_ids(2)
    messages = [*sorted(source.posts)[:2], *sorted(source.comments)[:2]]
    outcomes: dict[tuple[str, int], list] = {}
    for number, (query, _) in sorted(ALL_QUERIES.items()):
        outcomes["bi", number] = [
            run_query(query, graph, binding)
            for binding in params.bi(number, count=2)
        ]
    for number, (query, _) in sorted(ALL_COMPLEX.items()):
        outcomes["ic", number] = [
            run_query(query, graph, binding)
            for binding in params.interactive(number, count=2)
        ]
    for number, (query, _) in sorted(ALL_SHORT.items()):
        outcomes["is", number] = [
            run_query(query, graph, (entity_id,))
            for entity_id in (persons if number <= 3 else messages)
        ]
    list(expand(persons, graph.friends_of))
    return outcomes


@contextmanager
def attribute_reads(cls, on_read):
    """While open, every attribute read on an instance of ``cls`` (or of
    a subclass that does not override ``__getattribute__``) returns
    ``on_read(caller, name, value)``, where ``caller`` is the
    ``__name__`` of the module whose code made the read."""
    saved = cls.__dict__.get("__getattribute__")

    def reading(self, name):
        value = object.__getattribute__(self, name)
        return on_read(sys._getframe(1).f_globals["__name__"], name, value)

    cls.__getattribute__ = reading
    try:
        yield
    finally:
        if saved is None:
            del cls.__getattribute__
        else:
            cls.__getattribute__ = saved


class _TiesReversedTopK:
    """A ``top_k`` that keeps every row and puts rows with equal keys
    in reverse arrival order."""

    def __init__(self, limit, key):
        self.k, self._key, self._rows = limit, key, []

    def add(self, row):
        self._rows.append(row)

    def extend(self, rows):
        self._rows.extend(rows)

    def would_enter(self, key):
        return True

    def result(self):
        return builtins.sorted(self._rows[::-1], key=self._key)[: self.k]

    def __iter__(self):
        return iter(self.result())


def _sorted_ties_reversed(rows, /, *, key=None, reverse=False):
    return builtins.sorted(list(rows)[::-1], key=key, reverse=reverse)


@contextmanager
def ties_reversed():
    """While open, ``top_k`` and ``sorted`` in every query module but
    the reference oracle put rows with equal keys in reverse arrival
    order.  A read whose sort keys are total returns the same rows."""
    patched = []
    for info in pkgutil.walk_packages(repro.queries.__path__, "repro.queries."):
        if info.name == "repro.queries.bi.reference":
            continue
        module = importlib.import_module(info.name)
        fakes = {"sorted": _sorted_ties_reversed}
        if hasattr(module, "top_k"):
            fakes["top_k"] = _TiesReversedTopK
        for name, fake in fakes.items():
            patched.append((module, name, module.__dict__.get(name)))
            setattr(module, name, fake)
    try:
        yield
    finally:
        for module, name, saved in patched:
            if saved is None:
                delattr(module, name)
            else:
                setattr(module, name, saved)


def build_micro_world() -> SocialGraph:
    """A graph with the fixed static world and no dynamic entities."""
    graph = SocialGraph()
    graph.add_place(Place(EUROPE, "Europe", "u", PlaceType.CONTINENT))
    graph.add_place(Place(ASIA, "Asia", "u", PlaceType.CONTINENT))
    graph.add_place(Place(FRANCE, "France", "u", PlaceType.COUNTRY, EUROPE))
    graph.add_place(Place(JAPAN, "Japan", "u", PlaceType.COUNTRY, ASIA))
    graph.add_place(Place(PARIS, "Paris", "u", PlaceType.CITY, FRANCE))
    graph.add_place(Place(LYON, "Lyon", "u", PlaceType.CITY, FRANCE))
    graph.add_place(Place(TOKYO, "Tokyo", "u", PlaceType.CITY, JAPAN))
    graph.add_organisation(
        Organisation(UNI_PARIS, OrganisationType.UNIVERSITY, "Uni_Paris", "u", PARIS)
    )
    graph.add_organisation(
        Organisation(UNI_TOKYO, OrganisationType.UNIVERSITY, "Uni_Tokyo", "u", TOKYO)
    )
    graph.add_organisation(
        Organisation(ACME, OrganisationType.COMPANY, "Acme", "u", FRANCE)
    )
    graph.add_organisation(
        Organisation(KAIJU, OrganisationType.COMPANY, "Kaiju", "u", JAPAN)
    )
    graph.add_tag_class(TagClass(TC_THING, "Thing", "u", -1))
    graph.add_tag_class(TagClass(TC_MUSIC, "Music", "u", TC_THING))
    graph.add_tag_class(TagClass(TC_SPORT, "Sport", "u", TC_THING))
    graph.add_tag_class(TagClass(TC_JAZZ, "JazzGenre", "u", TC_MUSIC))
    graph.add_tag(Tag(TAG_ROCK, "Rock", "u", TC_MUSIC))
    graph.add_tag(Tag(TAG_JAZZ, "Jazz", "u", TC_MUSIC))
    graph.add_tag(Tag(TAG_SUMO, "Sumo", "u", TC_SPORT))
    graph.add_tag(Tag(TAG_BEBOP, "Bebop", "u", TC_JAZZ))
    return graph


class GraphBuilder:
    """Thin convenience layer over the store's insert methods."""

    def __init__(self):
        self.graph = build_micro_world()
        self._next_person = 0
        self._next_forum = 0
        self._next_message = 0

    def person(
        self,
        city: int = PARIS,
        first_name: str = "Ann",
        last_name: str = "Lee",
        gender: str = "female",
        born: int | None = None,
        created: int | None = None,
        interests: tuple[int, ...] = (),
    ) -> int:
        pid = self._next_person
        self._next_person += 1
        self.graph.add_person(
            Person(
                id=pid,
                first_name=first_name,
                last_name=last_name,
                gender=gender,
                birthday=born if born is not None else birthday(1985),
                creation_date=created if created is not None else ts(1, 2, 2010),
                location_ip="1.2.3.4",
                browser_used="Firefox",
                city_id=city,
                emails=[f"p{pid}@mail.com"],
                speaks=["en"],
                interests=list(interests),
            )
        )
        return pid

    def knows(self, a: int, b: int, created: int | None = None) -> None:
        self.graph.add_knows(
            Knows(min(a, b), max(a, b), created or ts(2, 1, 2010))
        )

    def forum(
        self,
        moderator: int,
        title: str = "Group for testing",
        created: int | None = None,
        tags: tuple[int, ...] = (),
        kind: ForumKind = ForumKind.GROUP,
    ) -> int:
        fid = self._next_forum
        self._next_forum += 1
        self.graph.add_forum(
            Forum(
                id=fid,
                title=title,
                creation_date=created or ts(1, 5, 2010),
                moderator_id=moderator,
                kind=kind,
                tag_ids=list(tags),
            )
        )
        return fid

    def member(self, forum: int, person: int, joined: int | None = None) -> None:
        self.graph.add_membership(
            HasMember(forum, person, joined or ts(1, 6, 2010))
        )

    def post(
        self,
        creator: int,
        forum: int,
        created: int | None = None,
        content: str = "hello world",
        tags: tuple[int, ...] = (),
        country: int = FRANCE,
        language: str = "en",
        image_file: str = "",
        length: int | None = None,
    ) -> int:
        mid = self._next_message
        self._next_message += 1
        if image_file:
            content = ""
        self.graph.add_post(
            Post(
                id=mid,
                creation_date=created or ts(3, 1),
                location_ip="1.2.3.4",
                browser_used="Firefox",
                content=content,
                length=length if length is not None else len(content),
                creator_id=creator,
                forum_id=forum,
                country_id=country,
                language=language,
                image_file=image_file,
                tag_ids=list(tags),
            )
        )
        return mid

    def comment(
        self,
        creator: int,
        reply_to: int,
        created: int | None = None,
        content: str = "nice one",
        tags: tuple[int, ...] = (),
        country: int = FRANCE,
        length: int | None = None,
    ) -> int:
        mid = self._next_message
        self._next_message += 1
        is_post = reply_to in self.graph.posts
        self.graph.add_comment(
            Comment(
                id=mid,
                creation_date=created or ts(3, 2),
                location_ip="1.2.3.4",
                browser_used="Firefox",
                content=content,
                length=length if length is not None else len(content),
                creator_id=creator,
                country_id=country,
                reply_of_post=reply_to if is_post else -1,
                reply_of_comment=-1 if is_post else reply_to,
                tag_ids=list(tags),
            )
        )
        return mid

    def like(self, person: int, message: int, created: int | None = None) -> None:
        is_post = message in self.graph.posts
        self.graph.add_like(
            Likes(person, message, created or ts(3, 3), is_post)
        )

    def study(self, person: int, university: int, class_year: int = 2007) -> None:
        self.graph.add_study_at(StudyAt(person, university, class_year))

    def work(self, person: int, company: int, since: int = 2009) -> None:
        self.graph.add_work_at(WorkAt(person, company, since))
