"""The Snapshot API: how workers obtain graph state.

Every pool — serial, forked or spawned process —
receives graph state through one typed surface:

* :class:`SnapshotConfig` — the declarative knobs (provider, freeze,
  compaction fraction, morsel size), threaded through ``RunRequest``
  and the BI tests.  Every knob is an argument with its real default
  in the dataclass field; nothing is read from the environment.
* :class:`SnapshotHandle` — the protocol every provider implements: a
  ``graph``, a ``context`` dict for task runners, ``ship()`` to cross a
  process boundary, ``bytes_mapped()`` and ``close()``.
* Providers — :class:`InlineSnapshot` (the object graph itself;
  forked children inherit it copy-on-write, spawned children unpickle
  it) and :class:`MmapFileSnapshot` (columns serialized once into a
  versioned snapshot file that every process maps read-only).
  :func:`provide_snapshot` picks one from a config.

The mapped provider serializes a frozen graph completely into the
snapfile (format v3, :mod:`repro.graph.snapfile`): column families
attach back as zero-copy ``memoryview`` casts over the shared buffer,
and the file's entity section lets a worker rebuild the entity store
from the same bytes — so ``ship()`` returns a token of buffer
coordinates plus the overlay, with **no object-state pickle**.  An
:class:`~repro.graph.delta.OverlaidGraph` ships its base's buffer and
its current overlay (captured at ship time); the worker replays the
overlay onto its rebuilt store, so post-freeze writes reach workers
exactly as they would through fork.

``materialize()`` on the worker side maps the file again, rebuilds
the entity store from the entity section, re-derives the frozen view
around the mapped columns (``FrozenGraph._rebuilt``), and
replays/re-wraps the overlay.
:func:`activate` / :func:`active` install the process-local handle
task runners read.  The ``repro_snapshot_state_bytes`` gauge records
both sides of the split: the entity section's size (``section=
"entities"``) and the shipped token's pickled size (``section=
"stub"``).
"""

from __future__ import annotations

import os
import pickle
import tempfile
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

from repro.obs.metrics import registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.store import SocialGraph

__all__ = [
    "PROVIDERS",
    "AttachedSnapshot",
    "InlineSnapshot",
    "MmapFileSnapshot",
    "ShippedSnapshot",
    "SnapshotConfig",
    "SnapshotHandle",
    "activate",
    "active",
    "provide_snapshot",
]

#: Recognized snapshot providers, in documentation order.
PROVIDERS = ("inline", "mmap_file")


@dataclass(frozen=True)
class SnapshotConfig:
    """Declarative snapshot knobs, validated on construction.

    ``provider`` picks how process workers obtain graph state;
    ``freeze`` whether drivers freeze the live store for read phases;
    ``compact_fraction`` the delta-overlay compaction threshold
    (``0.0`` refreezes on any write; negative or NaN is rejected);
    ``morsel_size`` enables morsel-driven intra-query parallelism for
    queries with a registered morsel plan (``None`` disables);
    ``directory`` where ``mmap_file`` snapshots are written (system
    temp dir when unset).
    """

    provider: str = "inline"
    freeze: bool = True
    compact_fraction: float = 0.25
    morsel_size: int | None = None
    directory: str | None = None

    def __post_init__(self) -> None:
        if self.provider not in PROVIDERS:
            raise ValueError(
                f"unknown snapshot provider {self.provider!r}; "
                f"expected one of {', '.join(PROVIDERS)}"
            )
        if not self.compact_fraction >= 0.0:  # also rejects NaN
            raise ValueError("compact fraction must be >= 0")
        if self.morsel_size is not None and self.morsel_size <= 0:
            raise ValueError("morsel size must be positive")

    def configuration_dict(self) -> dict[str, Any]:
        """The knobs as report-friendly primitives."""
        return {
            "provider": self.provider,
            "freeze": self.freeze,
            "compact_fraction": self.compact_fraction,
            "morsel_size": self.morsel_size,
        }


@runtime_checkable
class SnapshotHandle(Protocol):
    """What every snapshot provider exposes: the graph and context task
    runners read, plus the ship/attach lifecycle the pool drives."""

    provider: str
    graph: Any
    context: dict[str, Any]

    def ship(self) -> "ShippedSnapshot":
        """A picklable token a worker can materialize into an
        equivalent handle."""
        ...

    def bytes_mapped(self) -> int:
        """Bytes served from a shared buffer (0 for inline)."""
        ...

    def close(self) -> None:
        """Release buffers/files owned by this handle (idempotent)."""
        ...


@dataclass
class ShippedSnapshot:
    """The picklable form of a snapshot handle crossing a process
    boundary: provider-specific payload (the whole object graph for
    inline; the file path plus the delta overlay for ``mmap_file`` —
    entity state rebuilds from the mapped bytes)."""

    provider: str
    payload: Any

    def materialize(self) -> "SnapshotHandle":
        if self.provider == "inline":
            graph, context = self.payload
            return InlineSnapshot(graph, context)
        return _materialize_mapped(self.provider, self.payload)


class InlineSnapshot:
    """The in-process provider: the graph object itself.  Forked
    workers inherit it through copy-on-write pages; spawned workers
    unpickle the whole object graph (the pre-snapfile behaviour, and
    still the right answer for serial pools and live graphs)."""

    provider = "inline"

    def __init__(
        self,
        graph: "SocialGraph | None" = None,
        context: dict[str, Any] | None = None,
    ):
        self.graph = graph
        self.context: dict[str, Any] = {} if context is None else context

    def ship(self) -> ShippedSnapshot:
        return ShippedSnapshot("inline", (self.graph, self.context))

    def bytes_mapped(self) -> int:
        return 0

    def close(self) -> None:
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(graph={self.graph!r})"


def _split_overlay(graph: Any) -> tuple[Any, Any]:
    """A frozen view split into (base snapshot, overlay-or-None) —
    overlaid views map their base's columns and carry the overlay
    beside the buffer."""
    overlay = getattr(graph, "delta_overlay", None)
    if overlay is not None:
        return graph.base_snapshot, overlay
    return graph, None


def _publish_attach(provider: str, nbytes: int) -> None:
    metrics = registry()
    metrics.gauge("repro_snapshot_bytes_mapped", provider=provider).set(
        float(nbytes)
    )
    metrics.counter("repro_snapshot_attaches_total", provider=provider).inc()


def _publish_state_bytes(section: str, nbytes: int) -> None:
    """Record one side of the ship-payload split: the snapfile's entity
    section (``section="entities"``) or the pickled size of the token
    ``ship()`` actually sends (``section="stub"``)."""
    registry().gauge("repro_snapshot_state_bytes", section=section).set(
        float(nbytes)
    )


class AttachedSnapshot:
    """The worker-side handle a :class:`ShippedSnapshot` materializes
    into: a frozen view over mapped columns plus the shipped context.
    It owns the mapping for the worker's lifetime and cannot be
    re-shipped."""

    def __init__(
        self,
        provider: str,
        graph: Any,
        context: dict[str, Any],
        nbytes: int,
        resource: Any,
    ):
        self.provider = provider
        self.graph = graph
        self.context = context
        self._nbytes = nbytes
        self._resource = resource

    def ship(self) -> ShippedSnapshot:
        raise RuntimeError(
            "an attached snapshot is worker-side state; ship the "
            "parent's provider handle instead"
        )

    def bytes_mapped(self) -> int:
        return self._nbytes

    def close(self) -> None:
        self.graph = None
        resource, self._resource = self._resource, None
        if resource is not None:
            resource.close()


def _materialize_mapped(provider: str, payload: dict[str, Any]) -> Any:
    """The worker side of a mapped ship: map the file, rebuild the
    entity store from its entity section, re-derive the frozen view
    around the mapped columns, then replay the shipped overlay onto the
    store (the frozen object columns must capture freeze-time state, so
    the replay runs after ``_rebuilt``) and serve the merge view."""
    from repro.graph import snapfile
    from repro.graph.frozen import FrozenGraph

    if provider != "mmap_file":
        raise ValueError(f"unknown shipped provider {provider!r}")
    mapped = snapfile.open_snapshot(payload["path"])
    attached = mapped.attached
    store = snapfile.rebuild_store(attached.entities)
    graph = FrozenGraph._rebuilt(
        store, dict(attached.columns), attached.frozen_at_version
    )
    overlay = payload["overlay"]
    if overlay is not None:
        overlay.replay_into(store)
    _publish_attach(provider, mapped.bytes_mapped)
    _publish_state_bytes("entities", len(attached.entities))
    return AttachedSnapshot(
        provider,
        _overlay_view(graph, overlay),
        payload["context"],
        mapped.bytes_mapped,
        mapped,
    )


def _unlink_quietly(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _overlay_view(base: Any, overlay: Any) -> Any:
    if overlay is None:
        return base
    from repro.graph.delta import OverlaidGraph

    return OverlaidGraph(base, overlay)


class MmapFileSnapshot:
    """Columns serialized once into a versioned snapshot file
    (:mod:`repro.graph.snapfile`) that the parent and every worker map
    read-only.  The parent's own ``graph`` is already the attached
    view, so forked children inherit file-backed pages and serial runs
    exercise the exact layout workers see."""

    provider = "mmap_file"

    def __init__(
        self,
        graph: Any,
        context: dict[str, Any] | None = None,
        *,
        directory: str | None = None,
    ):
        from repro.graph import snapfile

        base, overlay = _split_overlay(graph)
        descriptor, path = tempfile.mkstemp(
            prefix="repro-snapshot-", suffix=".rsnb", dir=directory
        )
        try:
            with os.fdopen(descriptor, "wb") as stream:
                snapfile.write_snapshot(base, stream, overlay=overlay)
            self._mapped = snapfile.open_snapshot(path)
        except Exception:
            _unlink_quietly(path)
            raise
        self.path = path
        self._finalizer = weakref.finalize(self, _unlink_quietly, path)
        self._base = base
        self._source = graph
        self.context: dict[str, Any] = {} if context is None else context
        self.graph = _overlay_view(
            base.with_columns(self._mapped.columns), overlay
        )
        _publish_attach(self.provider, self._mapped.bytes_mapped)
        _publish_state_bytes("entities", len(self._mapped.attached.entities))

    def ship(self) -> ShippedSnapshot:
        """The boundary-crossing remainder, captured at ship time: the
        file path, the overlay and the task context.  Entity state does
        not travel — the worker rebuilds it from the snapfile's entity
        section and replays the overlay on top, so a dirty manager's
        post-freeze writes reach workers exactly as they would through
        fork."""
        _, overlay = _split_overlay(self._source)
        token = ShippedSnapshot(
            self.provider,
            {"path": self.path, "overlay": overlay, "context": self.context},
        )
        _publish_state_bytes("stub", len(pickle.dumps(token)))
        return token

    def bytes_mapped(self) -> int:
        return self._mapped.bytes_mapped

    def close(self) -> None:
        self.graph = None
        self._mapped.close()
        self._finalizer()


def provide_snapshot(
    graph: "SocialGraph | None" = None,
    context: dict[str, Any] | None = None,
    config: SnapshotConfig = SnapshotConfig(),
) -> SnapshotHandle:
    """Build the configured provider's handle around ``graph``.

    ``mmap_file`` requires a frozen view (clean or overlaid); a live
    graph — or no graph — falls back to :class:`InlineSnapshot` and
    bumps ``repro_snapshot_fallback_total`` so the degradation is
    visible instead of silent.
    """
    if config.provider == "inline" or graph is None:
        return InlineSnapshot(graph, context)
    if not getattr(graph, "is_frozen", False):
        registry().counter(
            "repro_snapshot_fallback_total", reason="live-graph"
        ).inc()
        return InlineSnapshot(graph, context)
    return MmapFileSnapshot(graph, context, directory=config.directory)


#: The handle visible to task runners in this process.  In the parent
#: it is activated around a pool run; in a forked worker it is
#: inherited; in a spawned worker it is materialized from the shipped
#: payload.
_ACTIVE: SnapshotHandle | None = None


def activate(handle: SnapshotHandle | None) -> SnapshotHandle | None:
    """Install ``handle`` process-globally; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = handle
    return previous


def active() -> SnapshotHandle:
    """The handle task runners execute against (empty inline if none)."""
    return _ACTIVE if _ACTIVE is not None else InlineSnapshot()
