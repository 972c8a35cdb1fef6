"""Durability and recovery (spec section 6.3).

The auditing rules require that after a crash "the last committed update
(in the driver log file) is actually in the database" and that
checkpoints happen at bounded intervals.  The reference SUT is
in-memory, so durability is layered on top:

* every write (IU 1-8 / DEL 1-8) is appended to a **write-ahead log**
  and flushed before it is applied — the commit point;
* a **checkpoint** (a full snapshot plus the WAL position it covers) is
  taken every ``checkpoint_every`` writes;
* :func:`recover` rebuilds the store from the latest checkpoint and
  replays the WAL tail.

:class:`DurableSut` exposes ``crash()`` for the §6.3 test: it drops the
in-memory state, after which only recovery can resurrect the data.
"""

from __future__ import annotations

import base64
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from repro.datagen.delete_streams import DeleteOperation
from repro.datagen.update_streams import UpdateOperation
from repro.graph.store import SocialGraph
from repro.queries.interactive.deletes import ALL_DELETES
from repro.queries.interactive.updates import ALL_UPDATES
from repro.util.alloc import collector_paused

WriteOperation = Union[UpdateOperation, DeleteOperation]


def _apply(graph: SocialGraph, op: WriteOperation) -> None:
    registry = ALL_UPDATES if isinstance(op, UpdateOperation) else ALL_DELETES
    try:
        registry[op.operation_id][0](graph, op.params)
    except (KeyError, ValueError):
        pass  # skipped write (reference deleted earlier); still logged


def _encode(op: WriteOperation) -> str:
    return base64.b64encode(pickle.dumps(op)).decode()


def _decode(line: str) -> WriteOperation:
    return pickle.loads(base64.b64decode(line))


@dataclass
class Checkpoint:
    """A snapshot plus the number of WAL entries it covers."""

    wal_position: int
    path: Path


class DurableSut:
    """The reference SUT with WAL + checkpoint durability."""

    def __init__(
        self,
        graph: SocialGraph,
        directory: Path | str,
        checkpoint_every: int = 500,
    ):
        if checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.wal_path = self.directory / "wal.log"
        self.checkpoint_path = self.directory / "checkpoint.pickle"
        self.meta_path = self.directory / "checkpoint.meta"
        self.checkpoint_every = checkpoint_every
        self.graph: SocialGraph | None = graph
        # A fresh WAL: the initial checkpoint covers the loaded state.
        self._wal = open(self.wal_path, "w")
        self._writes = 0
        try:
            self.checkpoint()
        except BaseException:
            self._wal.close()
            raise

    def apply(self, op: WriteOperation) -> None:
        """Commit one write: WAL first (flushed), then apply."""
        if self.graph is None:
            raise RuntimeError("SUT has crashed; recover first")
        self._wal.write(_encode(op) + "\n")
        self._wal.flush()
        _apply(self.graph, op)
        self._writes += 1
        if self._writes % self.checkpoint_every == 0:
            self.checkpoint()

    def checkpoint(self) -> Checkpoint:
        """Snapshot the current state and record the WAL position."""
        if self.graph is None:
            raise RuntimeError("SUT has crashed; recover first")
        with open(self.checkpoint_path, "wb") as handle, collector_paused():
            pickle.dump(self.graph, handle)
        self.meta_path.write_text(str(self._writes))
        return Checkpoint(self._writes, self.checkpoint_path)

    @property
    def committed_writes(self) -> int:
        return self._writes

    def crash(self) -> None:
        """Lose all volatile state (the §6.3 'machine disconnected')."""
        self.graph = None
        self._wal.close()

    def close(self) -> None:
        if not self._wal.closed:
            self._wal.close()


def recover(directory: Path | str) -> tuple[SocialGraph, int]:
    """Rebuild the store: latest checkpoint + WAL tail replay.

    Returns the recovered graph and the number of committed writes it
    contains — every WAL entry, i.e. everything acknowledged before the
    crash.
    """
    directory = Path(directory)
    checkpoint = directory / "checkpoint.pickle"
    with open(checkpoint, "rb") as handle, collector_paused():
        graph: SocialGraph = pickle.load(handle)
    covered = int((directory / "checkpoint.meta").read_text())
    replayed = 0
    with open(directory / "wal.log") as handle:
        for index, line in enumerate(handle):
            if index < covered:
                continue
            _apply(graph, _decode(line.strip()))
            replayed += 1
    return graph, covered + replayed
