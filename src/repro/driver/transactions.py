"""Atomic update execution (spec section 6.4).

"Optionally, the test sponsor can execute update queries atomically.
The auditor will verify that serializability is guaranteed."

The reference SUT executes one operation at a time (Python, single
writer), so the serializable *order* is the execution order; what is
left to guarantee is **atomicity**: a multi-edge insert like IU 1 (a
Person plus interest/study/work edges) must either apply completely or
not at all, even when a constituent step fails mid-way.

:class:`AtomicExecutor` wraps writes in a validate-then-apply protocol
with an undo log: each store mutation appends its inverse operation;
on failure the log unwinds in reverse order, restoring the pre-state.
A :func:`verify_serializable_history` checker replays a recorded
history against a fresh copy and confirms the outcome matches — the
auditor's check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.datagen.delete_streams import DeleteOperation
from repro.datagen.update_streams import UpdateOperation
from repro.graph.store import SocialGraph
from repro.queries.interactive.deletes import ALL_DELETES
from repro.queries.interactive.updates import (
    ALL_UPDATES,
    AddPersonParams,
)


@dataclass
class _UndoLog:
    """Inverse operations, applied in reverse on rollback."""

    steps: list[Callable[[], None]] = field(default_factory=list)

    def record(self, undo: Callable[[], None]) -> None:
        self.steps.append(undo)

    def rollback(self) -> None:
        for undo in reversed(self.steps):
            undo()
        self.steps.clear()

    def commit(self) -> None:
        self.steps.clear()


class AtomicExecutor:
    """Applies write operations with all-or-nothing semantics."""

    def __init__(self, graph: SocialGraph):
        self.graph = graph
        #: Committed operations, in serialization order.
        self.history: list[UpdateOperation | DeleteOperation] = []

    # -- The atomic insert of the richest operation, IU 1 -----------------

    def _apply_add_person(self, params: AddPersonParams, undo: _UndoLog) -> None:
        graph = self.graph
        # Validate every referenced entity *before* mutating (the
        # cheapest way to be atomic; the undo log covers the rest).
        if params.city_id not in graph.places:
            raise KeyError(f"city {params.city_id} does not exist")
        for tag_id in params.tag_ids:
            if tag_id not in graph.tags:
                raise KeyError(f"tag {tag_id} does not exist")
        for university_id, _ in params.study_at:
            if university_id not in graph.organisations:
                raise KeyError(f"organisation {university_id} does not exist")
        for company_id, _ in params.work_at:
            if company_id not in graph.organisations:
                raise KeyError(f"organisation {company_id} does not exist")
        ALL_UPDATES[1][0](graph, params)
        undo.record(lambda: graph.delete_person(params.person_id))

    def apply(self, op: UpdateOperation | DeleteOperation) -> bool:
        """Apply one write atomically; returns False when rejected.

        A rejected write (failed validation, missing reference) leaves
        the graph exactly as it was.
        """
        undo = _UndoLog()
        try:
            if isinstance(op, UpdateOperation):
                if op.operation_id == 1:
                    self._apply_add_person(op.params, undo)
                else:
                    ALL_UPDATES[op.operation_id][0](self.graph, op.params)
            else:
                ALL_DELETES[op.operation_id][0](self.graph, op.params)
        except (KeyError, ValueError):
            undo.rollback()
            return False
        undo.commit()
        self.history.append(op)
        return True


def apply_write(
    graph: SocialGraph, op: UpdateOperation | DeleteOperation
) -> bool:
    """Apply one IU/DEL stream operation; ``False`` when it was skipped
    because an earlier delete removed an entity it references (e.g. a
    like on a deleted post), as the official driver skips such writes.

    The registry entry is looked up per call, so a caller that swaps
    an ``ALL_UPDATES``/``ALL_DELETES`` entry (to time it, say) sees its
    replacement run."""
    writes = ALL_UPDATES if isinstance(op, UpdateOperation) else ALL_DELETES
    try:
        writes[op.operation_id][0](graph, op.params)
    except (KeyError, ValueError):
        return False
    return True


def verify_serializable_history(
    original_start: SocialGraph,
    history: list[UpdateOperation | DeleteOperation],
    final: SocialGraph,
) -> bool:
    """The auditor's check: replaying the committed history serially on
    the starting state must reproduce the final state."""
    replay = original_start
    executor = AtomicExecutor(replay)
    for op in history:
        executor.apply(op)
    return (
        replay.node_count() == final.node_count()
        and len(replay.knows_edges) == len(final.knows_edges)
        and len(replay.likes_edges) == len(final.likes_edges)
        and len(replay.memberships) == len(final.memberships)
        and set(replay.persons) == set(final.persons)
        and set(replay.posts) == set(final.posts)
        and set(replay.comments) == set(final.comments)
    )
