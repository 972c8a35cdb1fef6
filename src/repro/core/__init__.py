"""Public API of the reproduction.

The facade names resolve lazily (PEP 562), so ``repro.core.run`` can be
imported by the drivers that :mod:`repro.core.api` itself imports.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any

__all__ = ["BiWorkload", "InteractiveWorkload", "SocialNetworkBenchmark"]


def __getattr__(name: str) -> Any:
    if name not in __all__:
        raise AttributeError(f"module 'repro.core' has no attribute {name!r}")
    return getattr(import_module("repro.core.api"), name)
