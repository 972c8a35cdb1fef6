"""The unified run envelope: one request shape in, one report surface out.

Before this module, each run surface invented its own parameter passing
and result shape (``DriverReport`` vs the ``bi_driver`` result classes).
Now every benchmark entry point — ``power_test``, ``throughput_test``,
``concurrent_read_test`` and ``Driver.run`` — returns a
:class:`RunReport`, which guarantees the same three methods everywhere
(:data:`REPORT_SURFACE`):

* ``summary_dict()`` — the machine-readable results summary (§6.2);
* ``format_table()`` — the human-readable results table;
* ``write_results_dir()`` — the §6.2 results directory
  (``configuration.json``, ``results_summary.json`` and, for reports
  that keep a per-operation log, ``results_log.csv``).

:class:`RunRequest` is the matching parameter envelope consumed by
:meth:`repro.core.api.SocialNetworkBenchmark.run` and the CLI ``run``
command, carrying the executor knobs (``workers``, ``timeout``) next to
the workload selection so every surface threads them identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.exec.snapshot import SnapshotConfig

#: The methods every report class must implement (contract-tested).
REPORT_SURFACE = ("summary_dict", "format_table", "write_results_dir")

WORKLOADS = ("bi", "interactive")
#: Valid modes per workload; ``None`` in a request selects the first.
WORKLOAD_MODES = {
    "bi": ("power", "throughput", "concurrent"),
    "interactive": ("driver",),
}
#: Stream count of the concurrent read test when none is given.
DEFAULT_STREAMS = 4


@dataclass
class RunRequest:
    """Parameters of one benchmark run, whatever the workload.

    ``options`` carries the mode-specific knobs (``bindings_per_query``,
    ``reads_per_batch``, ``streams``, ``max_updates``,
    ``time_compression_ratio``, ``include_deletes``, …) so the envelope
    itself stays stable as modes grow.
    """

    workload: str = "bi"
    mode: str | None = None
    #: Worker-pool size; ``None`` selects the mode's own: one worker
    #: per stream for ``concurrent``, else 1 (serial).  The Interactive
    #: driver is serial: any other count is a ``ValueError``.
    workers: int | None = None
    #: Per-query deadline in seconds (``None`` = no deadline); BI only,
    #: a ``ValueError`` for the Interactive driver.
    timeout: float | None = None
    seed: int = 1234
    #: How BI workers obtain graph state (provider, freeze, compaction,
    #: morsel size); the Interactive driver reads the live store.
    snapshot: SnapshotConfig = field(default_factory=SnapshotConfig)
    options: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.workload not in WORKLOADS:
            raise ValueError(
                f"workload must be one of {WORKLOADS}, got {self.workload!r}"
            )
        modes = WORKLOAD_MODES[self.workload]
        if self.mode is None:
            self.mode = modes[0]
        if self.mode not in modes:
            raise ValueError(
                f"mode for workload {self.workload!r} must be one of "
                f"{modes}, got {self.mode!r}"
            )
        if self.workload == "interactive" and (
            self.workers not in (None, 1) or self.timeout is not None
        ):
            raise ValueError(
                "the Interactive driver replays serially: it takes no"
                f" workers ({self.workers!r}) or timeout ({self.timeout!r})"
            )
        if self.workers is None:
            self.workers = (
                self.options.get("streams", DEFAULT_STREAMS)
                if self.mode == "concurrent"
                else 1
            )

    def configuration_dict(self) -> dict[str, Any]:
        """The request as a §6.2 ``configuration.json`` document: every
        setting the run used, defaults included."""
        document = {
            "workload": self.workload,
            "mode": self.mode,
            "workers": self.workers,
            "timeout": self.timeout,
            "seed": self.seed,
            **self.options,
        }
        if self.workload == "bi":
            document["snapshot"] = self.snapshot.configuration_dict()
        return document


class RunReport:
    """Base class of every benchmark report (the shared surface).

    Subclasses implement :meth:`summary_dict` and :meth:`format_table`;
    :meth:`write_results_dir` is inherited, and reports that keep a
    per-operation log additionally override :meth:`write_results_log`
    (the base implementation writes nothing).

    Runs dispatched through :meth:`repro.core.api.SocialNetworkBenchmark.run`
    additionally carry the run's telemetry document
    (:func:`repro.obs.telemetry_document`), which
    :meth:`write_results_dir` persists as ``telemetry.json``.
    """

    #: Deliberately not a dataclass field: attached post-construction by
    #: the run envelope, absent on hand-built reports.
    _telemetry = None

    def summary_dict(self) -> dict[str, Any]:
        """The machine-readable results summary."""
        raise NotImplementedError

    def format_table(self) -> str:
        """The human-readable results table."""
        raise NotImplementedError

    @property
    def telemetry(self) -> dict[str, Any] | None:
        """The run's versioned telemetry document, if one was attached."""
        return self._telemetry

    def attach_telemetry(self, document: dict[str, Any]) -> None:
        """Attach the run's telemetry document (spans + metrics)."""
        self._telemetry = document

    def write_results_log(self, path: Path | str) -> None:
        """Hook: reports with a per-operation log write it here."""

    def write_results_dir(
        self, directory: Path | str, configuration: dict | None = None
    ) -> None:
        """Write the §6.2 results directory: ``configuration.json``,
        ``results_summary.json``, (when the report logs operations)
        ``results_log.csv``, (when telemetry is attached)
        ``telemetry.json`` and (when the telemetry carries a profiler
        section) ``profile.collapsed`` — everything the auditor
        retrieves and discloses after a valid run."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / "configuration.json", "w") as handle:
            json.dump(configuration or {}, handle, indent=2)
        self.write_results_log(directory / "results_log.csv")
        with open(directory / "results_summary.json", "w") as handle:
            json.dump(self.summary_dict(), handle, indent=2)
        if self._telemetry is not None:
            with open(directory / "telemetry.json", "w") as handle:
                json.dump(self._telemetry, handle, indent=2)
            if self._telemetry.get("profile"):
                from repro.obs.exporters import to_collapsed

                (directory / "profile.collapsed").write_text(
                    to_collapsed(self._telemetry)
                )
