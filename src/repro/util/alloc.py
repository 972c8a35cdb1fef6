"""Allocation-heavy bulk phases: the cyclic collector, paused.

CPython's cyclic collector runs whenever allocations outnumber
deallocations by a threshold, and each full pass re-traverses every
surviving container.  A bulk phase whose allocations all survive (a
load, a freeze, a rebuild, a snapfile entity encode) therefore
pays for repeated traversals of a heap that only grows while finding
nothing to free.  :func:`collector_paused` turns the collector off for
such a phase; the survivors are traversed once, later, by the first
collection after it.

This is SUT tuning in the spec's full-disclosure sense (§6): the phases
that use it are listed in :data:`PAUSED_PHASES` and rendered by the
full disclosure report.  ``datagen.generate`` is deliberately not one
of them: pausing it did not make it reliably faster and moved its
deferred traversal into the update-stream build that follows.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

__all__ = ["PAUSED_PHASES", "collector_paused"]

#: The phases run under :func:`collector_paused`, for the disclosure.
PAUSED_PHASES: tuple[str, ...] = (
    "SocialGraph.from_data",
    "snapfile.rebuild_store (worker attach, recover)",
    "FrozenGraph construction",
    "snapfile entity encode (ship, checkpoint)",
)


@contextmanager
def collector_paused() -> Iterator[None]:
    """Disable the cyclic collector for the body, if it was enabled.

    Nestable: only the outermost pause re-enables it, and a caller who
    disabled the collector before entering keeps it disabled.  The
    collector is restored on every exit path, exceptions included.
    Also usable as a decorator.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
