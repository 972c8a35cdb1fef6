"""Delete streams — the insert/delete mix the spec's section 5.2
announces and the VLDB 2022 BI workload ships.

Datagen marks a deterministic fraction of dynamic entities and edges for
deletion and assigns each a deletion timestamp inside the update window
(at or after the insert cutoff, strictly after the entity's creation).
Restricting deletions to the update window keeps the bulk-load dataset a
clean snapshot; entities created *inside* the window can still be
deleted there (insert followed by delete), like the official streams.

Each decision is one SHA-256 of ``(seed, "delete", kind, label)`` (see
:mod:`repro.util.rng`): the row is a victim iff the uniform from digest
bytes 0-7 is below the kind's probability, and its deletion time sits at
the fraction given by bytes 8-15 of ``[max(created + 1, cutoff),
end_millis)``.  A decision depends on nothing but the seed, the kind and
the row's label, so the stream is independent of the order the network
lists its entities in, of the worker count and of hash randomization.

Only group forums receive explicit DEL 4 events — walls and albums
leave the graph through their owner's DEL 1 cascade.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from repro.datagen.generator import SocialNetworkData
from repro.queries.interactive.deletes import (
    DeleteForumParams,
    DeleteFriendshipParams,
    DeleteLikeParams,
    DeleteMembershipParams,
    DeleteMessageParams,
    DeletePersonParams,
)
from repro.schema.entities import ForumKind
from repro.util.dates import DateTime
from repro.util.rng import digests_under, unit

DeleteParams = Union[
    DeletePersonParams,
    DeleteLikeParams,
    DeleteForumParams,
    DeleteMembershipParams,
    DeleteMessageParams,
    DeleteFriendshipParams,
]

#: Default per-type deletion probabilities (fractions of all entities).
DELETE_PROBABILITIES: dict[str, float] = {
    "person": 0.01,
    "like": 0.05,
    "forum": 0.02,
    "membership": 0.03,
    "post": 0.04,
    "comment": 0.04,
    "knows": 0.03,
}


@dataclass(slots=True, frozen=True)
class DeleteOperation:
    """One line of the delete stream."""

    timestamp: DateTime
    operation_id: int
    params: DeleteParams


def _deletion_time(
    fraction: float, net: SocialNetworkData, created: DateTime
) -> DateTime | None:
    """The timestamp ``fraction`` of the way through [max(created + 1,
    cutoff), end), None if that window is empty."""
    earliest = max(created + 1, net.cutoff)
    latest = net.config.end_millis
    if earliest >= latest:
        return None
    return earliest + int(fraction * (latest - earliest))


def _checked(probabilities: dict[str, float] | None) -> dict[str, float]:
    """The defaults overridden by ``probabilities``; an unknown kind or a
    value outside [0, 1] (NaN included) is a ``ValueError``."""
    p = dict(DELETE_PROBABILITIES)
    for kind, value in (probabilities or {}).items():
        if kind not in p:
            raise ValueError(
                f"unknown delete kind {kind!r}; expected one of {sorted(p)}"
            )
        if not 0.0 <= value <= 1.0:
            raise ValueError(
                f"delete probability for {kind!r} must be in [0, 1], "
                f"got {value!r}"
            )
        p[kind] = value
    return p


def build_delete_streams(
    net: SocialNetworkData,
    probabilities: dict[str, float] | None = None,
) -> list[DeleteOperation]:
    """Select deletion victims deterministically and order their events."""
    p = _checked(probabilities)
    digests = {kind: digests_under(net.config.seed, "delete", kind) for kind in p}
    operations: list[DeleteOperation] = []

    def consider(kind: str, label: object, created: DateTime) -> DateTime | None:
        digest = digests[kind](label)
        if unit(digest) >= p[kind]:
            return None
        return _deletion_time(unit(digest, 8), net, created)

    for person in net.persons:
        ts = consider("person", person.id, person.creation_date)
        if ts is not None:
            operations.append(
                DeleteOperation(ts, 1, DeletePersonParams(person.id))
            )
    for like in net.likes:
        ts = consider(
            "like", f"{like.person_id}-{like.message_id}", like.creation_date
        )
        if ts is not None:
            operations.append(
                DeleteOperation(
                    ts,
                    2 if like.is_post else 3,
                    DeleteLikeParams(like.person_id, like.message_id),
                )
            )
    for forum in net.forums:
        if forum.kind is not ForumKind.GROUP:
            continue
        ts = consider("forum", forum.id, forum.creation_date)
        if ts is not None:
            operations.append(
                DeleteOperation(ts, 4, DeleteForumParams(forum.id))
            )
    for membership in net.memberships:
        ts = consider(
            "membership",
            f"{membership.forum_id}-{membership.person_id}",
            membership.join_date,
        )
        if ts is not None:
            operations.append(
                DeleteOperation(
                    ts,
                    5,
                    DeleteMembershipParams(
                        membership.forum_id, membership.person_id
                    ),
                )
            )
    for post in net.posts:
        ts = consider("post", post.id, post.creation_date)
        if ts is not None:
            operations.append(
                DeleteOperation(ts, 6, DeleteMessageParams(post.id))
            )
    for comment in net.comments:
        ts = consider("comment", comment.id, comment.creation_date)
        if ts is not None:
            operations.append(
                DeleteOperation(ts, 7, DeleteMessageParams(comment.id))
            )
    for edge in net.knows:
        ts = consider(
            "knows", f"{edge.person1}-{edge.person2}", edge.creation_date
        )
        if ts is not None:
            operations.append(
                DeleteOperation(
                    ts, 8, DeleteFriendshipParams(edge.person1, edge.person2)
                )
            )

    operations.sort(key=lambda op: (op.timestamp, op.operation_id))
    return operations


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _payload(params: DeleteParams) -> list:
    if isinstance(params, DeletePersonParams):
        return [params.person_id]
    if isinstance(params, DeleteLikeParams):
        return [params.person_id, params.message_id]
    if isinstance(params, DeleteForumParams):
        return [params.forum_id]
    if isinstance(params, DeleteMembershipParams):
        return [params.forum_id, params.person_id]
    if isinstance(params, DeleteMessageParams):
        return [params.message_id]
    if isinstance(params, DeleteFriendshipParams):
        return [params.person1_id, params.person2_id]
    raise TypeError(f"unknown params type {type(params)!r}")


def _parse_payload(operation_id: int, fields: list[str]) -> DeleteParams:
    values = [int(f) for f in fields]
    if operation_id == 1:
        return DeletePersonParams(values[0])
    if operation_id in (2, 3):
        return DeleteLikeParams(values[0], values[1])
    if operation_id == 4:
        return DeleteForumParams(values[0])
    if operation_id == 5:
        return DeleteMembershipParams(values[0], values[1])
    if operation_id in (6, 7):
        return DeleteMessageParams(values[0])
    if operation_id == 8:
        return DeleteFriendshipParams(values[0], values[1])
    raise ValueError(f"unknown delete operation id {operation_id}")


def write_delete_stream(
    operations: list[DeleteOperation], output_dir: Path | str
) -> Path:
    """Write ``deleteStream_0_0.csv`` next to the dataset."""
    root = Path(output_dir) / "social_network"
    root.mkdir(parents=True, exist_ok=True)
    path = root / "deleteStream_0_0.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, delimiter="|")
        for op in operations:
            writer.writerow(
                [op.timestamp, op.operation_id] + _payload(op.params)
            )
    return path


def read_delete_stream(dataset_dir: Path | str) -> list[DeleteOperation]:
    """Read a delete stream written by :func:`write_delete_stream`."""
    path = Path(dataset_dir) / "deleteStream_0_0.csv"
    if not path.exists():
        return []
    operations = []
    with open(path, newline="") as handle:
        for row in csv.reader(handle, delimiter="|"):
            operation_id = int(row[1])
            operations.append(
                DeleteOperation(
                    int(row[0]), operation_id, _parse_payload(operation_id, row[2:])
                )
            )
    operations.sort(key=lambda op: (op.timestamp, op.operation_id))
    return operations
