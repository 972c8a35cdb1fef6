"""Benchmark reporting: the Appendix C checklist and a Full Disclosure
Report skeleton (spec chapter 6).

Research-paper runs are rarely fully audited; Appendix C asks authors to
disclose a fixed set of facts so readers can put results in context.
:class:`BenchmarkChecklist` captures those answers and renders them;
:func:`full_disclosure_report` assembles the FDR-style document for a
driver run: versions, configuration, load time, results summary.
"""

from __future__ import annotations

import platform
import sys
from dataclasses import dataclass, field

from repro.driver.runner import DriverReport
from repro.util.alloc import PAUSED_PHASES

#: The SUT tuning the store applies to itself, disclosed per spec §6.
COLLECTOR_TUNING = (
    "cyclic garbage collector paused during "
    + ", ".join(PAUSED_PHASES)
    + "; data generation (datagen generate) runs with it enabled"
)


@dataclass
class BenchmarkChecklist:
    """Answers to the Appendix C checklist."""

    cross_validated_one_sf: bool = True
    cross_validated_all_sfs: bool = False
    persistent_storage: bool = False
    acid_transactions: bool = False
    fault_tolerance: bool = False
    warmup_rounds: int = 1
    execution_rounds: int = 3
    summarization: str = "median of repeated runs"
    load_included_in_times: bool = False
    contacted_experts: bool = False

    def format(self) -> str:
        rows = [
            ("Cross-validated for at least one scale factor",
             self.cross_validated_one_sf),
            ("Cross-validated for all scale factors",
             self.cross_validated_all_sfs),
            ("SUT has persistent storage", self.persistent_storage),
            ("SUT provides ACID transactions", self.acid_transactions),
            ("SUT provides fault-tolerance", self.fault_tolerance),
            ("Warmup rounds", self.warmup_rounds),
            ("Execution rounds", self.execution_rounds),
            ("Execution times summarized as", self.summarization),
            ("Loading included in query times", self.load_included_in_times),
            ("Contacted system experts", self.contacted_experts),
        ]
        width = max(len(label) for label, _ in rows)
        return "\n".join(f"{label:<{width}}  {value}" for label, value in rows)


@dataclass
class SystemDetails:
    """The §6.1.1 system-description block, self-collected."""

    dbms: str = "repro SocialGraph (in-memory reference SUT)"
    dbms_version: str = "1.0.0"
    os_name: str = field(default_factory=platform.system)
    os_version: str = field(default_factory=platform.release)
    python_version: str = field(default_factory=lambda: sys.version.split()[0])
    cpu: str = field(default_factory=platform.machine)
    tuning: str = COLLECTOR_TUNING

    def format(self) -> str:
        return (
            f"DBMS: {self.dbms} {self.dbms_version}\n"
            f"OS: {self.os_name} {self.os_version}\n"
            f"Python: {self.python_version}\n"
            f"CPU architecture: {self.cpu}\n"
            f"SUT tuning: {self.tuning}"
        )


def full_disclosure_report(
    scale_description: str,
    load_seconds: float,
    report: DriverReport,
    checklist: BenchmarkChecklist | None = None,
    system: SystemDetails | None = None,
) -> str:
    """Assemble the FDR-style text document for a run."""
    checklist = checklist or BenchmarkChecklist()
    system = system or SystemDetails()
    sections = [
        "LDBC SNB - Full Disclosure Report (reproduction)",
        "=" * 50,
        "",
        "System under test",
        "-" * 20,
        system.format(),
        "",
        "Benchmark configuration",
        "-" * 20,
        f"Dataset: {scale_description}",
        f"Load time: {load_seconds:.2f} s",
        "",
        "Results",
        "-" * 20,
        report.format_table(),
        f"Valid run (95% on-time rule): {report.is_valid_run}",
        "",
        "Appendix C checklist",
        "-" * 20,
        checklist.format(),
    ]
    return "\n".join(sections)
