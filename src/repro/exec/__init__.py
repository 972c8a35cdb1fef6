"""repro.exec — process-parallel benchmark execution.

The execution subsystem the BI throughput methodology calls for: a
worker-pool scheduler (:class:`WorkerPool` — serial at one worker, one
process per worker above) running registered task
kinds (:mod:`repro.exec.tasks`) over an immutable shared snapshot
handle (:mod:`repro.exec.snapshot` — inline/fork-inherited or a mapped
snapshot file), with bounded dispatch, per-task
deadlines, retry-once-then-record semantics, worker-crash recovery and
deterministic result merging.  ``power_test`` / ``throughput_test`` /
``concurrent_read_test`` execute through it, each taking its worker
count as a ``workers`` argument; the Interactive driver replays
serially and does not use it.
"""

from repro.exec.pool import (
    PoolResult,
    WorkerPool,
    accumulate_exec_stats,
)
from repro.exec.snapshot import (
    PROVIDERS,
    InlineSnapshot,
    MmapFileSnapshot,
    ShippedSnapshot,
    SnapshotConfig,
    SnapshotHandle,
    activate,
    active,
    provide_snapshot,
)
from repro.exec.tasks import (
    STATUS_CRASHED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    Task,
    TaskOutcome,
    run_task,
)

__all__ = [
    "PROVIDERS",
    "InlineSnapshot",
    "MmapFileSnapshot",
    "PoolResult",
    "STATUS_CRASHED",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_TIMEOUT",
    "ShippedSnapshot",
    "SnapshotConfig",
    "SnapshotHandle",
    "Task",
    "TaskOutcome",
    "WorkerPool",
    "accumulate_exec_stats",
    "activate",
    "active",
    "provide_snapshot",
    "run_task",
]
