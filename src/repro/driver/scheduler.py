"""Schedule construction (spec section 3.4, "Load Definition").

The scheduler assigns a *query issue time* to every operation:

* **Updates** keep the timestamps of their update stream — "the times
  where the actual event happened during the simulation".
* **Complex reads** are expressed in terms of update operations: query
  type *q* with frequency *f_q* is issued once per *f_q* updates, at the
  simulation timestamp of the update that triggered it.  Parameters come
  from the curated substitution-parameter lists, cycled per type.
* **Short reads** are *not* scheduled here: their issue times depend on
  complex-read completion times and are decided by the runner at run
  time, per the spec.

The schedule is deterministic for a given (stream, frequencies,
parameters) triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.datagen.delete_streams import DeleteOperation
from repro.datagen.update_streams import UpdateOperation
from repro.util.dates import DateTime


@dataclass(slots=True, frozen=True)
class ScheduledOperation:
    """One entry of the driver's schedule."""

    #: Simulation-time instant the operation is due.
    due: DateTime
    #: "update", "delete" or "complex" ("short" operations are created
    #: at runtime by the runner).
    kind: str
    #: IU/DEL operation id or IC query number.
    number: int
    #: The IU/DEL stream operation itself (what
    #: :func:`~repro.driver.transactions.apply_write` takes), or the IC
    #: parameter tuple.
    params: Any


class Scheduler:
    """Builds the interleaved update / complex-read schedule."""

    def __init__(
        self,
        updates: list[UpdateOperation],
        frequencies: dict[int, int],
        parameters: dict[int, list[tuple]],
        deletes: list[DeleteOperation] | None = None,
    ):
        """``parameters`` maps complex-read number -> curated bindings.

        ``deletes`` (optional) interleaves DEL 1-8 operations at their
        own timestamps — the insert/delete mix of spec section 5.2.
        """
        self.updates = sorted(updates, key=lambda op: (op.timestamp, op.operation_id))
        self.frequencies = frequencies
        self.parameters = parameters
        self.deletes = sorted(
            deletes or [], key=lambda op: (op.timestamp, op.operation_id)
        )

    def build(self) -> list[ScheduledOperation]:
        """The full schedule, ordered by due time."""
        schedule: list[ScheduledOperation] = [
            ScheduledOperation(op.timestamp, "update", op.operation_id, op)
            for op in self.updates
        ]
        schedule.extend(
            ScheduledOperation(op.timestamp, "delete", op.operation_id, op)
            for op in self.deletes
        )
        cursors = {query: 0 for query in self.frequencies}
        for index, update in enumerate(self.updates, start=1):
            for query, frequency in self.frequencies.items():
                if index % frequency != 0:
                    continue
                bindings = self.parameters.get(query)
                if not bindings:
                    continue
                cursor = cursors[query]
                cursors[query] = cursor + 1
                schedule.append(
                    ScheduledOperation(
                        update.timestamp,
                        "complex",
                        query,
                        bindings[cursor % len(bindings)],
                    )
                )
        # At equal due times writes precede reads: a complex read
        # triggered by the Nth update is issued after that update
        # applied (spec: one read per freq updates *performed*).
        kind_order = {"update": 0, "delete": 1, "complex": 2}
        schedule.sort(key=lambda op: (op.due, kind_order[op.kind], op.number))
        return schedule
