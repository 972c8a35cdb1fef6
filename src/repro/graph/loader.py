"""Bulk loader: read a CsvBasic dataset directory into a SocialGraph.

Implements the SUT's load phase (spec section 6.1.3): every file of the
CsvBasic serializer (Table 2.13) is parsed and loaded; nothing may be
filtered out.  The loader is the round-trip counterpart of
:class:`repro.datagen.serializers.CsvBasicSerializer` and is validated
against it by the integration tests.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from pathlib import Path

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
from repro.util.dates import parse_date, parse_datetime


def _rows(directory: Path, name: str):
    """Parse one logical CsvBasic file — all of its thread parts
    (``<name>_0_<part>.csv``) in part order — skipping headers."""
    paths = sorted(directory.glob(f"{name}_0_*.csv"))
    if not paths:
        raise FileNotFoundError(directory / f"{name}_0_0.csv")
    for path in paths:
        with open(path, newline="") as handle:
            reader = csv.reader(handle, delimiter="|")
            next(reader, None)
            yield from reader


def _forum_kind(title: str) -> ForumKind:
    if title.startswith("Wall"):
        return ForumKind.WALL
    if title.startswith("Album"):
        return ForumKind.ALBUM
    return ForumKind.GROUP


def load_csv_basic(dataset_dir: Path | str) -> SocialGraph:
    """Load a ``social_network/`` directory written by CsvBasic."""
    root = Path(dataset_dir)
    static = root / "static"
    dynamic = root / "dynamic"
    graph = SocialGraph()

    # -- static part -----------------------------------------------------
    part_of = {
        int(child): int(parent)
        for child, parent in _rows(static, "place_isPartOf_place")
    }
    for row in _rows(static, "place"):
        place_id = int(row[0])
        graph.add_place(
            Place(
                place_id, row[1], row[2], PlaceType(row[3]),
                part_of.get(place_id, -1),
            )
        )
    org_place = {
        int(org): int(place)
        for org, place in _rows(static, "organisation_isLocatedIn_place")
    }
    for row in _rows(static, "organisation"):
        org_id = int(row[0])
        graph.add_organisation(
            Organisation(
                org_id, OrganisationType(row[1]), row[2], row[3],
                org_place.get(org_id, -1),
            )
        )
    subclass = {
        int(child): int(parent)
        for child, parent in _rows(static, "tagclass_isSubclassOf_tagclass")
    }
    for row in _rows(static, "tagclass"):
        class_id = int(row[0])
        graph.add_tag_class(
            TagClass(class_id, row[1], row[2], subclass.get(class_id, -1))
        )
    tag_type = {
        int(tag): int(cls) for tag, cls in _rows(static, "tag_hasType_tagclass")
    }
    for row in _rows(static, "tag"):
        tag_id = int(row[0])
        graph.add_tag(Tag(tag_id, row[1], row[2], tag_type.get(tag_id, -1)))

    # -- persons -----------------------------------------------------------
    emails = defaultdict(list)
    for person_id, email in _rows(dynamic, "person_email_emailaddress"):
        emails[int(person_id)].append(email)
    speaks = defaultdict(list)
    for person_id, language in _rows(dynamic, "person_speaks_language"):
        speaks[int(person_id)].append(language)
    interests = defaultdict(list)
    for person_id, tag_id in _rows(dynamic, "person_hasInterest_tag"):
        interests[int(person_id)].append(int(tag_id))
    cities = {
        int(person): int(place)
        for person, place in _rows(dynamic, "person_isLocatedIn_place")
    }
    for row in _rows(dynamic, "person"):
        person_id = int(row[0])
        graph.add_person(
            Person(
                id=person_id,
                first_name=row[1],
                last_name=row[2],
                gender=row[3],
                birthday=parse_date(row[4]),
                creation_date=parse_datetime(row[5]),
                location_ip=row[6],
                browser_used=row[7],
                city_id=cities[person_id],
                emails=emails.get(person_id, []),
                speaks=speaks.get(person_id, []),
                interests=interests.get(person_id, []),
            )
        )
    for row in _rows(dynamic, "person_studyAt_organisation"):
        graph.add_study_at(StudyAt(int(row[0]), int(row[1]), int(row[2])))
    for row in _rows(dynamic, "person_workAt_organisation"):
        graph.add_work_at(WorkAt(int(row[0]), int(row[1]), int(row[2])))
    for row in _rows(dynamic, "person_knows_person"):
        graph.add_knows(Knows(int(row[0]), int(row[1]), parse_datetime(row[2])))

    # -- forums ------------------------------------------------------------
    moderators = {
        int(forum): int(person)
        for forum, person in _rows(dynamic, "forum_hasModerator_person")
    }
    forum_tags = defaultdict(list)
    for forum_id, tag_id in _rows(dynamic, "forum_hasTag_tag"):
        forum_tags[int(forum_id)].append(int(tag_id))
    for row in _rows(dynamic, "forum"):
        forum_id = int(row[0])
        graph.add_forum(
            Forum(
                id=forum_id,
                title=row[1],
                creation_date=parse_datetime(row[2]),
                moderator_id=moderators[forum_id],
                kind=_forum_kind(row[1]),
                tag_ids=forum_tags.get(forum_id, []),
            )
        )
    for row in _rows(dynamic, "forum_hasMember_person"):
        graph.add_membership(
            HasMember(int(row[0]), int(row[1]), parse_datetime(row[2]))
        )

    # -- messages ------------------------------------------------------------
    post_creator = {
        int(post): int(person)
        for post, person in _rows(dynamic, "post_hasCreator_person")
    }
    post_forum = {
        int(post): int(forum)
        for forum, post in _rows(dynamic, "forum_containerOf_post")
    }
    post_place = {
        int(post): int(place)
        for post, place in _rows(dynamic, "post_isLocatedIn_place")
    }
    post_tags = defaultdict(list)
    for post_id, tag_id in _rows(dynamic, "post_hasTag_tag"):
        post_tags[int(post_id)].append(int(tag_id))
    for row in _rows(dynamic, "post"):
        post_id = int(row[0])
        graph.add_post(
            Post(
                id=post_id,
                creation_date=parse_datetime(row[2]),
                location_ip=row[3],
                browser_used=row[4],
                content=row[6],
                length=int(row[7]),
                creator_id=post_creator[post_id],
                forum_id=post_forum[post_id],
                country_id=post_place[post_id],
                language=row[5],
                image_file=row[1],
                tag_ids=post_tags.get(post_id, []),
            )
        )

    comment_creator = {
        int(comment): int(person)
        for comment, person in _rows(dynamic, "comment_hasCreator_person")
    }
    comment_place = {
        int(comment): int(place)
        for comment, place in _rows(dynamic, "comment_isLocatedIn_place")
    }
    reply_of_post = {
        int(comment): int(post)
        for comment, post in _rows(dynamic, "comment_replyOf_post")
    }
    reply_of_comment = {
        int(comment): int(parent)
        for comment, parent in _rows(dynamic, "comment_replyOf_comment")
    }
    comment_tags = defaultdict(list)
    for comment_id, tag_id in _rows(dynamic, "comment_hasTag_tag"):
        comment_tags[int(comment_id)].append(int(tag_id))

    # Comments may reply to other comments; insertion requires parents to
    # exist only for index integrity, which add_comment does not enforce,
    # so a single pass in file order suffices (datagen emits causally
    # ordered ids).
    for row in _rows(dynamic, "comment"):
        comment_id = int(row[0])
        graph.add_comment(
            Comment(
                id=comment_id,
                creation_date=parse_datetime(row[1]),
                location_ip=row[2],
                browser_used=row[3],
                content=row[4],
                length=int(row[5]),
                creator_id=comment_creator[comment_id],
                country_id=comment_place[comment_id],
                reply_of_post=reply_of_post.get(comment_id, -1),
                reply_of_comment=reply_of_comment.get(comment_id, -1),
                tag_ids=comment_tags.get(comment_id, []),
            )
        )

    for row in _rows(dynamic, "person_likes_post"):
        graph.add_like(
            Likes(int(row[0]), int(row[1]), parse_datetime(row[2]), True)
        )
    for row in _rows(dynamic, "person_likes_comment"):
        graph.add_like(
            Likes(int(row[0]), int(row[1]), parse_datetime(row[2]), False)
        )
    return graph
