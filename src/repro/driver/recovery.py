"""Durability and recovery (spec section 6.3).

The auditing rules require that after a crash "the last committed update
(in the driver log file) is actually in the database" and that
checkpoints happen at bounded intervals.  The reference SUT is
in-memory, so durability is layered on top:

* every write (IU 1-8 / DEL 1-8) is appended to a **write-ahead log**
  and flushed before it is applied — the commit point;
* a **checkpoint** (the frozen store as a v3 snapfile whose TOC
  ``meta`` holds the WAL position it covers) is taken every
  ``checkpoint_every`` writes, into a temp file renamed over the last;
* :func:`recover` rebuilds the store from the latest checkpoint with
  ``snapfile.rebuild_store`` and replays the WAL tail.

:data:`CHECKPOINT` keeps the name the benchmark ledger reads, though
the file is a snapfile, not a serialized object graph.

:class:`DurableSut` exposes ``crash()`` for the §6.3 test: it drops the
in-memory state, after which only recovery can resurrect the data.
"""

from __future__ import annotations

import base64
import os
import pickle
from pathlib import Path
from typing import Union

from repro.datagen.delete_streams import DeleteOperation
from repro.datagen.update_streams import UpdateOperation
from repro.driver.transactions import apply_write
from repro.graph import snapfile
from repro.graph.frozen import FrozenGraph
from repro.graph.store import SocialGraph

WriteOperation = Union[UpdateOperation, DeleteOperation]

CHECKPOINT = "checkpoint.pickle"


def _encode(op: WriteOperation) -> str:
    return base64.b64encode(pickle.dumps(op)).decode()


def _decode(record: bytes, line: int) -> WriteOperation:
    """One WAL record; unpickling damaged bytes can raise anything."""
    try:
        op = pickle.loads(base64.b64decode(record, validate=True))
        if not isinstance(op, (UpdateOperation, DeleteOperation)):
            raise TypeError(f"{type(op).__name__} is not a write")
    except Exception as error:
        raise snapfile.SnapshotFormatError(
            f"corrupt WAL: line {line} does not decode "
            f"({type(error).__name__}: {error})"
        ) from error
    return op


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
        self.checkpoint_path = self.directory / CHECKPOINT
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
        apply_write(self.graph, op)  # a skipped write stays in the WAL
        self._writes += 1
        if self._writes % self.checkpoint_every == 0:
            self.checkpoint()

    def checkpoint(self) -> None:
        """Freeze the store and write it, with the WAL position it
        covers, as the snapfile that replaces the previous checkpoint."""
        if self.graph is None:
            raise RuntimeError("SUT has crashed; recover first")
        partial = self.checkpoint_path.with_suffix(".partial")
        with open(partial, "wb") as stream:
            snapfile.write_snapshot(FrozenGraph(self.graph), stream,
                                    meta={"wal_position": self._writes})
        os.replace(partial, self.checkpoint_path)

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
    crash.  A final record without its newline was never committed (its
    ``apply`` never returned) and is dropped; a damaged checkpoint or
    WAL record is a :class:`~repro.graph.snapfile.SnapshotFormatError`.
    """
    directory = Path(directory)
    attached = snapfile.open_snapshot(str(directory / CHECKPOINT)).attached
    covered = attached.meta.get("wal_position")
    if type(covered) is not int or covered < 0:
        raise snapfile.SnapshotFormatError(
            f"checkpoint TOC meta holds no WAL position ({covered!r})"
        )
    graph = snapfile.rebuild_store(attached.entities)
    replayed = 0
    with open(directory / "wal.log", "rb") as handle:
        for line, record in enumerate(handle, 1):
            if line <= covered:
                continue
            if not record.endswith(b"\n"):
                break  # torn tail
            apply_write(graph, _decode(record[:-1], line))
            replayed += 1
    return graph, covered + replayed
