"""repro — a from-scratch Python reproduction of the LDBC Social Network
Benchmark (Business Intelligence workload, with the full Interactive
workload, Datagen, parameter curation and test driver).

Public entry points:

* :class:`repro.SocialNetworkBenchmark` — generate, load, query, drive.
* :mod:`repro.datagen` — the deterministic data generator.
* :mod:`repro.graph` — the in-memory reference SUT.
* :mod:`repro.queries.bi` / :mod:`repro.queries.interactive` — workloads.
* :mod:`repro.params` — substitution-parameter curation.
* :mod:`repro.driver` — scheduling, execution, validation.
* :mod:`repro.analysis` — choke points, checklists, disclosure reports.

The top-level names resolve lazily (PEP 562): importing a submodule such
as :mod:`repro.graph.snapfile` does not pull in the API facade, the
drivers and datagen behind it.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - static view of the lazy names
    from repro.core.api import (
        BiWorkload,
        InteractiveWorkload,
        SocialNetworkBenchmark,
    )
    from repro.core.run import RunReport, RunRequest
    from repro.datagen.config import DatagenConfig
    from repro.datagen.generator import SocialNetworkData, generate
    from repro.graph.store import SocialGraph

__version__ = "1.0.0"

#: Lazily exported name -> the module that defines it.
_EXPORTS: dict[str, str] = {
    "BiWorkload": "repro.core.api",
    "InteractiveWorkload": "repro.core.api",
    "SocialNetworkBenchmark": "repro.core.api",
    "RunReport": "repro.core.run",
    "RunRequest": "repro.core.run",
    "DatagenConfig": "repro.datagen.config",
    "SocialNetworkData": "repro.datagen.generator",
    "generate": "repro.datagen.generator",
    "SocialGraph": "repro.graph.store",
}

__all__ = [
    "BiWorkload",
    "DatagenConfig",
    "InteractiveWorkload",
    "RunReport",
    "RunRequest",
    "SocialGraph",
    "SocialNetworkBenchmark",
    "SocialNetworkData",
    "generate",
    "__version__",
]


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value
