"""Reusable query operators with predicate pushdown and instrumentation.

The BI and Interactive read queries are compositions of a handful of
physical operators:

* :func:`scan_messages` — Message access with pushdown of temporal
  (creationDate window), tag, and creator predicates into the store's
  secondary indexes (CP-2.2 late projection / CP-3.2 dimensional
  clustering / CP-3.3 scattered index access);
* :func:`scan_forum_posts` — a Forum's Posts through the forum→post
  date index;
* :func:`expand` — adjacency flat-map (CP-2.3 index-based joins);
* :func:`group_count` / :func:`group_agg` — hash aggregation
  (CP-1.2 / CP-1.4);
* :func:`top_k` — the bounded-heap ORDER BY … LIMIT accumulator
  (CP-1.3 top-k pushdown), unifying :mod:`repro.util.topk`.

Every scan is a *plan* and one executor: the ``plan_*`` functions are
pure access-path selection — predicates and graph layout in, a
:class:`ScanPlan` value out — and :meth:`ScanPlan.execute` is the only
generator that filters, tallies :mod:`repro.engine.stats` and owns the
scan's span, so a driver run can report rows scanned, the access path
taken, and heap activity per query.  Selection honours the store's
``use_indexes`` flag: with the indexes off the same scan degrades to a
filtered full scan, so the index-free layout returns identical rows.

When tracing is enabled (:mod:`repro.obs`), every operator additionally
opens a leaf ``operator`` span recording its access path and row count.
Scan/expand spans cover the *generator's lifetime* (opened at the first
row pulled, closed when the consumer exhausts or drops the iterator),
so their duration includes consumer time between pulls — the right
shape for seeing where a query's time goes, documented in
``docs/OBSERVABILITY.md``.  With tracing disabled the per-operator cost
is a single ``enabled`` check.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter
from functools import partial
from itertools import compress, groupby, repeat, tee
from operator import and_
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator
from typing import Mapping, NamedTuple, Sequence, TypeVar, cast

from repro.engine.stats import counters
from repro.obs.spans import Span, tracer
from repro.graph.frozen import FrozenGraph, window_range
from repro.graph.store import SocialGraph

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.graph.delta import DeltaOverlay
from repro.schema.entities import Forum, Message, Person, Post
from repro.schema.relations import Likes
from repro.util.dates import DateTime
from repro.util.topk import TopK, sort_key

__all__ = [
    "ScanPlan",
    "plan_messages",
    "morsel_ranges",
    "scan_message_morsel",
    "scan_forum_morsel",
    "scan_person_morsel",
    "scan_tag_morsel",
    "scan_messages",
    "scan_forum_posts",
    "scan_persons",
    "scan_forums",
    "scan_likes",
    "expand",
    "group_count",
    "group_agg",
    "top_k",
    "sort_key",
]

T = TypeVar("T")
K = TypeVar("K")
S = TypeVar("S")

#: (start, end) closed-open DateTime window; either bound may be None.
Window = tuple[DateTime | None, DateTime | None]

#: A morsel: one contiguous ``[lo, hi)`` row range of a frozen scan
#: slab — ``"post"``/``"comment"`` date slabs, ``"forum"``/``"person"``
#: ordinals, one ``"tag"``'s postings — or the whole-scan fallback
#: ``("*", 0, -1)`` when the graph has no clean frozen columns.  A
#: range *is* its scan's window/tag/country predicate, so it must come
#: from :func:`morsel_ranges` over an equivalent snapshot and the same
#: predicates; the fallback plans the serial scan wholesale.
Morsel = tuple[str, int, int]

#: A residual predicate as data — ``test(row, arg)`` must hold — so
#: building a plan allocates tuples, never a closure.
Residual = tuple[Callable[[Any, Any], bool], Any]


def _in_window(message: Message, bounds: Window) -> bool:
    start, end = bounds
    ts = message.creation_date
    return (start is None or ts >= start) and (end is None or ts < end)


def _has_tag(message: Message, tag: int) -> bool:
    return tag in message.tag_ids


def _is_comment(message: Message, wanted: bool) -> bool:
    return message.is_comment == wanted


def _speaks(
    message: Message, arg: tuple[Callable[[Message], str], frozenset[str]]
) -> bool:
    language_of, languages = arg
    return language_of(message) in languages


def _operator_span(name: str, **attrs: Any) -> Span | None:
    """An ``operator`` leaf span, or ``None`` when tracing is disabled
    (the disabled path is one attribute check — the engine's hot-loop
    budget)."""
    trace = tracer()
    if not trace.enabled:
        return None
    return trace.open_span(name, kind="operator", **attrs)


def _close_operator_span(span: Span | None, rows: int) -> None:
    if span is not None:
        span.attrs["rows"] = rows
        span.close()


class ScanPlan(NamedTuple):
    """One scan's access path, chosen but not yet run.

    ``operator`` names the span, ``access`` labels the path, and
    ``counter`` is the tally bumped once per scan: ``"index_scans"``,
    ``"full_scans"``, or ``None`` on a non-lead morsel — only the first
    morsel of a decomposed scan tallies it, so summed counters do not
    depend on how many morsels the range was cut into.  The row source
    is either ``chunks`` — pre-filtered list slices (cut one at a time,
    as the executor reaches them), accounted by ``len`` and emitted
    with ``yield from``, so the frozen column paths run no per-row
    Python (frozen scans are consumed whole by every query) — or
    ``rows``, a flat iterator counted row by row once the
    ``residuals`` (the predicates no index absorbed) hold.  ``morsel``
    labels a morsel scan's slab range on its span.
    """

    operator: str
    access: str
    counter: str | None
    chunks: Iterable[Sequence[Any]] | None = None
    rows: Iterable[Any] = ()
    residuals: tuple[Residual, ...] = ()
    morsel: str | None = None

    def execute(self) -> Iterator[Any]:
        """Run the scan — the one place that filters, counts
        ``rows_scanned`` (rows produced after filtering, on every path)
        and opens and closes a scan's operator span."""
        stats = counters()
        if self.counter == "index_scans":
            stats.index_scans += 1
        elif self.counter == "full_scans":
            stats.full_scans += 1
        span = _operator_span(self.operator, access=self.access)
        if span is not None and self.morsel is not None:
            span.attrs["morsel"] = self.morsel
        produced = 0
        try:
            if self.chunks is not None:
                for chunk in self.chunks:
                    produced += len(chunk)
                    yield from chunk
                return
            rows = self.rows
            for test, arg in self.residuals:
                # ``filter(lambda row: test(row, arg), rows)`` without
                # the closure: the tee'd copy feeds the test, whose
                # verdicts select from the original — C-level but for
                # the test itself, and in lockstep, so nothing is
                # buffered or read ahead.
                probe, rows = tee(rows)
                rows = compress(rows, map(test, probe, repeat(arg)))
            for row in rows:
                produced += 1
                yield row
        finally:
            stats.rows_scanned += produced
            _close_operator_span(span, produced)


def _plan(
    operator: str,
    access: str,
    indexed: bool,
    rows: Iterable[Any] = (),
    residuals: tuple[Residual, ...] = (),
    chunks: Iterable[Sequence[Any]] | None = None,
    morsel: Morsel | None = None,
    lead: bool = True,
) -> ScanPlan:
    """A :class:`ScanPlan` with the two cross-cutting rules applied in
    one place: an ablated index (``indexed`` false) degrades its
    accessor to a filtered ``"full"`` scan, and a slab ``morsel`` is
    labelled ``"frozen-morsel"`` with only the ``lead`` counting."""
    counter = "index_scans" if indexed else "full_scans"
    if morsel is None:
        return ScanPlan(
            operator, access if indexed else "full", counter, chunks, rows,
            residuals,
        )
    kind, lo, hi = morsel
    return ScanPlan(
        operator, "frozen-morsel", counter if lead else None, chunks, rows,
        residuals, f"{kind}[{lo}:{hi}]",
    )


def _clean_frozen(graph: SocialGraph) -> FrozenGraph | None:
    """``graph`` if its columns are exact and range-addressable (a
    frozen snapshot with no overlay), else ``None``."""
    if isinstance(graph, FrozenGraph) and graph.delta_overlay is None:
        return graph
    return None


def _slab_morsel(
    frozen: FrozenGraph | None, morsel: Morsel | None
) -> Morsel | None:
    """``morsel`` if it slices a slab of the clean snapshot ``frozen``;
    ``None`` when the serial plan applies — no morsel, or the
    ``("*", 0, -1)`` whole-scan fallback."""
    if morsel is None or morsel[2] < 0:
        return None
    if frozen is None:
        raise TypeError("slab morsels require a clean frozen snapshot")
    return morsel


def _window_spans(
    graph: FrozenGraph, kind: str | None, window: Window | None
) -> list[Morsel]:
    """Per message slab of ``kind``, the one ``[lo, hi)`` range its
    date column bisects ``window`` to — the serial frozen scan's
    chunks, and what :func:`morsel_ranges` cuts into morsels."""
    start, end = window or (None, None)
    return [
        (slab_kind, *window_range(dates, start, end))
        for slab_kind, _objs, dates, _codes in graph.message_slabs(kind)
    ]


def _message_chunk(
    graph: FrozenGraph,
    span: Morsel,
    tag: int | None,
    languages: frozenset[str] | None,
    live: bytearray | None = None,
) -> list[Message]:
    """Rows ``[lo, hi)`` of one frozen message slab (``tag``'s postings
    list for a ``"tag"`` span).  ``languages`` is pushed onto the
    dictionary-encoded root-language code column: integer-set
    membership via ``map`` + ``compress``, all C-level per slab slice,
    instead of per-row root-post chasing.  ``live`` — an overlay's
    per-slab tombstone mask — drops deleted rows the same way, ANDed
    with the language selector."""
    slab_kind, lo, hi = span
    if tag is not None:
        return graph._tag_objs.get(tag, [])[lo:hi]
    ((_, objs, _dates, codes),) = graph.message_slabs(slab_kind)
    selectors: Iterable[int] | None = None if live is None else live[lo:hi]
    if languages is not None:
        wanted = graph.language_codes(languages)
        speaks = map(wanted.__contains__, codes[lo:hi])
        selectors = (
            speaks if selectors is None else map(and_, selectors, speaks)
        )
    if selectors is None:
        return objs[lo:hi]
    return list(compress(objs[lo:hi], selectors))


def plan_messages(
    graph: SocialGraph,
    *,
    window: Window | None = None,
    tag: int | None = None,
    creator: int | None = None,
    kind: str | None = None,
    language: "Iterable[str] | None" = None,
    morsel: Morsel | None = None,
    lead: bool = True,
) -> ScanPlan:
    """Choose :func:`scan_messages`' access path: creator adjacency,
    tag postings (date-bisected), a table scan by ``kind`` (unwindowed,
    or on the live store with the window as a residual), the frozen
    date window (date columns or overlay merge) — in that order.
    Predicates the chosen index does not absorb become residuals, so
    every path returns the same rows.  The live ``window-filter``
    tallies what the frozen date column does (``index_scans`` unless
    ``use_indexes`` is off), so operator counters do not depend on the
    layout.  ``morsel`` (with ``lead``) plans one slab range of the
    frozen window or tag scan instead."""
    start, end = window or (None, None)
    windowed = start is not None or end is not None
    languages = None if language is None else frozenset(language)
    frozen = _clean_frozen(graph)
    morsel = _slab_morsel(frozen, morsel)
    rows: Iterable[Message] = ()
    residuals: tuple[Residual, ...] = ()
    chunks: Iterable[list[Message]] | None = None
    if frozen is not None and morsel is not None:
        chunks = [_message_chunk(frozen, morsel, tag, languages)]
        access, indexed = "frozen-morsel", True
    elif creator is not None:
        if kind == "post":
            rows = graph.posts_by(creator)
        elif kind == "comment":
            rows = graph.comments_by(creator)
        else:
            rows = graph.messages_by(creator)
        if window is not None:
            residuals = ((_in_window, window),)
        if tag is not None:
            residuals += ((_has_tag, tag),)
        access, indexed = "creator-index", graph.use_indexes
    elif tag is not None:
        rows = graph.messages_with_tag_in_window(tag, start, end)
        if kind is not None:
            residuals = ((_is_comment, kind == "comment"),)
        access, indexed = "tag-index", graph.use_indexes
    elif not (windowed and isinstance(graph, FrozenGraph)):
        if kind == "post":
            rows = graph.posts.values()
        elif kind == "comment":
            rows = graph.comments.values()
        else:
            rows = graph.messages()
        if windowed:
            residuals = ((_in_window, window),)
            access, indexed = "window-filter", graph.use_indexes
        else:
            access, indexed = "full", False
    elif graph.delta_overlay is not None and graph.delta_overlay.messages_dirty(
        kind
    ):
        chunks = _overlay_chunks(
            graph, graph.delta_overlay, kind, window, languages
        )
        access, indexed = "frozen-overlay-merge", True
    else:
        # Frozen fast path: bisect the int64 date columns and slice the
        # ``(creationDate, id)``-sorted object lists — no per-row
        # window test; same counters as the live window filter.
        chunks = (
            _message_chunk(graph, span, None, languages)
            for span in _window_spans(graph, kind, window)
        )
        access, indexed = "frozen-date-column", True
    if chunks is None and languages is not None:
        residuals += ((_speaks, (graph.language_of_message, languages)),)
    return _plan(
        "scan_messages", access, indexed, rows, residuals, chunks, morsel, lead
    )


def scan_messages(
    graph: SocialGraph,
    *,
    window: Window | None = None,
    tag: int | None = None,
    creator: int | None = None,
    kind: str | None = None,
    language: "Iterable[str] | None" = None,
) -> Iterator[Message]:
    """Scan Messages, pushing the given predicates into the best index.

    ``window`` is a closed-open ``[start, end)`` creationDate interval
    (either bound ``None``); ``tag`` a Tag id the Message must carry;
    ``creator`` the creating Person's id; ``kind`` restricts to
    ``"post"`` or ``"comment"``; ``language`` keeps only Messages whose
    BI-18 language (a Comment's is its root Post's) is in the given
    set.  :func:`plan_messages` picks the access path; ``rows_scanned``
    counts the rows produced after filtering on every path.
    """
    return plan_messages(
        graph, window=window, tag=tag, creator=creator, kind=kind,
        language=language,
    ).execute()


def scan_message_morsel(
    graph: SocialGraph,
    slab_kind: str,
    lo: int,
    hi: int,
    *,
    window: Window | None = None,
    language: "Iterable[str] | None" = None,
    lead: bool = True,
) -> Iterator[Message]:
    """One :data:`Morsel` of a frozen date-window scan: rows ``[lo,
    hi)`` of ``slab_kind``'s ``(creationDate, id)``-sorted slab, with
    the same language pushdown as :func:`scan_messages` (``window`` only
    matters to the fallback — the range *is* the window predicate)."""
    return plan_messages(
        graph, window=window, language=language,
        morsel=(slab_kind, lo, hi), lead=lead,
    ).execute()


def scan_tag_morsel(
    graph: SocialGraph, tag_id: int, lo: int, hi: int, *, lead: bool = True
) -> Iterator[Message]:
    """One :data:`Morsel` of a tag-postings scan: rows ``[lo, hi)`` of
    Tag ``tag_id``'s ``(creationDate, id)``-sorted postings list — the
    order serial ``scan_messages(tag=...)`` yields on a clean snapshot.
    The lead tallies ``index_scans`` even on a degenerate empty range:
    the serial scan counts the probe before finding zero rows."""
    return plan_messages(
        graph, tag=tag_id, morsel=("tag", lo, hi), lead=lead
    ).execute()


def morsel_ranges(
    graph: SocialGraph,
    *,
    window: Window | None = None,
    kind: str | None = None,
    morsel_size: int = 65536,
    key: int | None = None,
) -> list[Morsel]:
    """Split a range-addressable scan into fixed-size morsels a pool
    can dispatch independently.

    ``kind`` selects the slab family.  ``None``/``"post"``/
    ``"comment"`` chunk the :func:`scan_messages` date slabs: each
    slab's ``window`` is bisected once and cut into ``[lo, hi)`` ranges
    of at most ``morsel_size`` rows.  The entity kinds chunk ordinal
    ranges instead: ``"forum"`` over the forum-ordinal column
    (:func:`scan_forum_morsel`), ``"tag"`` over Tag ``key``'s postings
    list (:func:`scan_tag_morsel`), and ``"person"`` over the
    person-ordinal column — or, with ``key`` set, over Country
    ``key``'s residents in sorted-id order (:func:`scan_person_morsel`).

    On a live store or a dirty overlaid view no scan is
    range-addressable, so one whole-scan fallback morsel
    ``("*", 0, -1)`` is returned and every morsel operator degrades to
    its serial counterpart.  Ranges are emitted in the serial frozen
    scan's row order (post slab before comment slab, ordinals
    ascending), so a merge in submission order is deterministic; an
    empty domain yields one degenerate zero-row morsel to keep the
    task-per-query accounting uniform.
    """
    if morsel_size < 1:
        raise ValueError("morsel_size must be >= 1")
    frozen = _clean_frozen(graph)
    if frozen is None:
        return [("*", 0, -1)]
    if kind == "forum":
        spans = [("forum", 0, len(frozen._forum_ids))]
    elif kind == "tag":
        spans = [("tag", 0, len(frozen._tag_objs.get(cast(int, key), ())))]
    elif kind == "person" and key is None:
        spans = [("person", 0, len(frozen._person_ids))]
    elif kind == "person":
        spans = [("person", 0, len(frozen._country_persons.get(key, ())))]
    else:
        spans = _window_spans(frozen, kind, window)
    ranges = [
        (slab_kind, base, min(base + morsel_size, hi))
        for slab_kind, lo, hi in spans
        for base in range(lo, hi, morsel_size)
    ]
    return ranges or [(spans[0][0], 0, 0)]


def _splice_position(
    objs: list[Message], dates: array, lo: int, hi: int, message: Message
) -> int:
    """Where ``message`` goes among the ``(creationDate, id)``-sorted
    base rows ``[lo, hi)``: its date bisects, its id breaks ties."""
    date = message.creation_date
    at = bisect_left(dates, date, lo, hi)
    while at < hi and dates[at] == date and objs[at].id < message.id:
        at += 1
    return at


def _overlay_chunks(
    graph: FrozenGraph,
    overlay: "DeltaOverlay",
    kind: str | None,
    window: Window | None,
    languages: frozenset[str] | None,
) -> Iterator[list[Message]]:
    """The window rows of a delta-overlaid snapshot as chunks, per
    slab: base column slices through the overlay's tombstone mask (and
    the language codes), with the overlay's windowed inserts spliced in
    at their ``(creationDate, id)`` positions.  Stream inserts are
    dated at or after the bulk cutoff, so they land at the slab tail
    and each slab is one base chunk plus one insert chunk; an insert
    dated inside the base range splits the slice where it belongs."""
    start, end = window or (None, None)
    for slab_kind, lo, hi in _window_spans(graph, kind, window):
        live = overlay.live_mask(graph, slab_kind)
        inserts = overlay.window_messages(slab_kind, start, end)
        if languages is not None:
            inserts = [
                m for m in inserts
                if graph.language_of_message(m) in languages
            ]
        ((_, objs, dates, _codes),) = graph.message_slabs(slab_kind)
        cut = lo
        for at, group in groupby(
            inserts, key=partial(_splice_position, objs, dates, lo, hi)
        ):
            yield _message_chunk(
                graph, (slab_kind, cut, at), None, languages, live
            )
            yield list(group)
            cut = at
        yield _message_chunk(graph, (slab_kind, cut, hi), None, languages, live)


def scan_forum_posts(
    graph: SocialGraph, forum_id: int, *, window: Window | None = None
) -> Iterator[Post]:
    """Scan one Forum's Posts, date window pushed into the forum index
    (the accessor bisects the forum→post date index or, with
    ``use_indexes`` off, filters the Forum's post list itself)."""
    start, end = window or (None, None)
    return _plan(
        "scan_forum_posts", "forum-date-index", graph.use_indexes,
        graph.posts_in_forum_window(forum_id, start, end),
    ).execute()


def _table_plan(
    operator: str,
    table: Mapping[int, Any],
    ids: Sequence[int] | None,
    morsel: Morsel | None,
    lead: bool,
    access: str = "full",
    indexed: bool = False,
) -> ScanPlan:
    """Rows of ``table`` in ``ids`` order (its own order where there is
    no id column), narrowed to ``morsel``'s ordinals of that column."""
    if ids is None:
        rows: Iterable[Any] = table.values()
    elif morsel is None:
        rows = map(table.__getitem__, ids)
    else:
        rows = map(table.__getitem__, ids[morsel[1] : morsel[2]])
    return _plan(operator, access, indexed, rows, morsel=morsel, lead=lead)


def _plan_persons(
    graph: SocialGraph, country: int | None, morsel: Morsel | None, lead: bool
) -> ScanPlan:
    """A clean snapshot scans its sorted-id columns — the person-ordinal
    column, or a Country's residents — which ``morsel`` ranges slice."""
    frozen = _clean_frozen(graph)
    morsel = _slab_morsel(frozen, morsel)
    if country is None:
        column = None if frozen is None else frozen._person_ids
        return _table_plan("scan_persons", graph.persons, column, morsel, lead)
    residents: Sequence[int] = (
        sorted(graph.persons_in_country(country))
        if frozen is None
        else frozen._country_persons.get(country, ())
    )
    return _table_plan(
        "scan_persons", graph.persons, residents, morsel, lead,
        "country-index", graph.use_indexes,
    )


def scan_persons(
    graph: SocialGraph, *, country: int | None = None
) -> Iterator[Person]:
    """Scan Persons; ``country`` restricts to that Country's residents.

    The instrumented counterpart of ``graph.persons.values()`` — query
    modules must come through here so the scan shows up in the
    per-query operator counters (and so R2 of ``repro.lint`` can hold
    the engine boundary).  The country pushdown (isLocatedIn City
    isPartOf Country, served by the place adjacency indexes — BI 21's
    zombie hunt) yields residents in sorted-id order, the canonical
    order :func:`scan_person_morsel` slices; the unrestricted scan
    walks the person-ordinal column on a clean frozen snapshot for the
    same reason.  Iteration order never changes rows — every BI/IC
    sort is a total order (lint R4).
    """
    return _plan_persons(graph, country, None, True).execute()


def scan_person_morsel(
    graph: SocialGraph,
    lo: int,
    hi: int,
    *,
    country: int | None = None,
    lead: bool = True,
) -> Iterator[Person]:
    """One :data:`Morsel` of a Person scan in canonical (sorted-id)
    order: ordinals ``[lo, hi)`` of ``country``'s residents (the lead
    tallies the pushdown's ``index_scans``) or, without, of the frozen
    person-id column (``full_scans``)."""
    return _plan_persons(graph, country, ("person", lo, hi), lead).execute()


def _plan_forums(
    graph: SocialGraph, morsel: Morsel | None, lead: bool
) -> ScanPlan:
    frozen = _clean_frozen(graph)
    ids = None if frozen is None else frozen._forum_ids
    morsel = _slab_morsel(frozen, morsel)
    return _table_plan("scan_forums", graph.forums, ids, morsel, lead)


def scan_forums(graph: SocialGraph) -> Iterator[Forum]:
    """Scan every Forum, tallying the full-scan into the counters.  On
    a clean frozen snapshot the scan walks the forum-ordinal column —
    the canonical order :func:`scan_forum_morsel` slices."""
    return _plan_forums(graph, None, True).execute()


def scan_forum_morsel(
    graph: SocialGraph, lo: int, hi: int, *, lead: bool = True
) -> Iterator[Forum]:
    """One :data:`Morsel` of the full-Forum scan: ordinals ``[lo, hi)``
    of the frozen forum-id column; the lead tallies ``full_scans``."""
    return _plan_forums(graph, ("forum", lo, hi), lead).execute()


def scan_likes(graph: SocialGraph) -> Iterator[Likes]:
    """Scan every likes edge, tallying the full-scan into the counters."""
    return _plan("scan_likes", "full", False, graph.likes_edges).execute()


def expand(
    sources: Iterable[S], neighbors: Callable[[S], Iterable[T]]
) -> Iterator[tuple[S, T]]:
    """Adjacency flat-map: yield ``(source, neighbor)`` for every edge.

    ``neighbors`` is any store adjacency accessor (``friends_of``,
    ``replies_of``, ``members_of_forum``, …).  Tallies the number of
    edges followed (CP-2.3 index-based join work).

    When ``neighbors`` is a frozen snapshot's ``friends_of``, the pairs
    come from contiguous knows-CSR offset slices instead of per-object
    adjacency-dict iteration — pair construction happens in C
    (``zip`` + ``repeat`` over an ``array('q')`` slice), with the same
    pair order and the same ``edges_expanded`` tally.
    """
    bound = getattr(neighbors, "__self__", None)
    if (
        isinstance(bound, FrozenGraph)
        and getattr(neighbors, "__name__", "") == "friends_of"
    ):
        return cast(
            "Iterator[tuple[S, T]]",
            _expand_frozen_knows(bound, cast("Iterable[int]", sources)),
        )
    return _expand_generic(sources, neighbors)


def _expand_generic(
    sources: Iterable[S], neighbors: Callable[[S], Iterable[T]]
) -> Iterator[tuple[S, T]]:
    stats = counters()
    span = _operator_span("expand")
    followed = 0
    try:
        for source in sources:
            for item in neighbors(source):
                followed += 1
                yield source, item
    finally:
        stats.edges_expanded += followed
        _close_operator_span(span, followed)


def _expand_frozen_knows(
    graph: FrozenGraph, sources: Iterable[int]
) -> Iterator[tuple[int, int]]:
    """The knows-CSR expand fast path (one offset slice per source).

    On a delta-overlaid snapshot, sources whose adjacency the overlay
    dirtied walk the live (shared, current) ``_friends`` row instead of
    their stale CSR slice — per source, so clean sources keep the
    columnar path.  Same ``edges_expanded`` tally either way.
    """
    stats = counters()
    span = _operator_span("expand", access="frozen-knows-csr")
    offsets = graph._knows_offsets
    targets = graph._knows_targets
    ordinal_of = graph._person_ord
    overlay = graph.delta_overlay
    dirty: frozenset[int] | set[int] = (
        frozenset() if overlay is None else overlay.knows_dirty_persons
    )
    live_friends = graph._friends
    followed = 0
    try:
        for source in sources:
            if source in dirty:
                row = live_friends.get(source)
                if row:
                    followed += len(row)
                    yield from zip(repeat(source, len(row)), row)
                continue
            ordinal = ordinal_of.get(source)
            if ordinal is None:
                continue
            lo = offsets[ordinal]
            hi = offsets[ordinal + 1]
            if lo == hi:
                continue
            followed += hi - lo
            yield from zip(repeat(source, hi - lo), targets[lo:hi])
    finally:
        stats.edges_expanded += followed
        _close_operator_span(span, followed)


def group_count(keys: Iterable[K]) -> Counter[K]:
    """Hash-aggregate COUNT(*) per key (CP-1.2 group-by).

    An ``array`` key column (frozen ordinal ranges) is materialized via
    ``tolist()`` first, which keeps the whole count on
    ``Counter``'s C fast path for sequences.
    """
    span = _operator_span("group_count")
    if isinstance(keys, (array, memoryview)):
        keys = cast("Iterable[K]", keys.tolist())
    groups = Counter(keys)
    counters().groups_created += len(groups)
    _close_operator_span(span, len(groups))
    return groups


def group_agg(
    items: Iterable[T],
    key: Callable[[T], K],
    zero: Callable[[], Any],
    fold: Callable[[Any, T], None],
) -> dict[K, Any]:
    """Hash-aggregate with a mutable accumulator per group.

    ``zero`` builds a fresh accumulator, ``fold(acc, item)`` updates it
    in place — the shape every multi-measure BI group-by uses.
    """
    span = _operator_span("group_agg")
    groups: dict[K, Any] = {}
    for item in items:
        k = key(item)
        acc = groups.get(k)
        if acc is None:
            acc = groups[k] = zero()
        fold(acc, item)
    counters().groups_created += len(groups)
    _close_operator_span(span, len(groups))
    return groups


class _CountingTopK(TopK[T]):
    """A :class:`TopK` that tallies heap activity into the engine stats."""

    def add(self, item: T) -> None:
        stats = counters()
        stats.heap_inserts += 1
        key = self._key(item)
        if self._threshold is not None and not key < self._threshold:
            stats.heap_rejections += 1
            return
        self._buffer.append((key, item))
        if len(self._buffer) >= self._capacity:
            self._compact()

    def _compact(self) -> None:
        before = len(self._buffer)
        super()._compact()
        dropped = before - len(self._buffer)
        if dropped:
            counters().heap_evictions += dropped


def top_k(limit: int, key: Callable[[T], Any]) -> TopK[T]:
    """An ORDER BY … LIMIT accumulator with eviction instrumentation.

    The single entry point for query result limiting (CP-1.3): behaves
    exactly like :class:`repro.util.topk.TopK` but reports inserts,
    threshold rejections and compaction evictions.
    """
    return _CountingTopK(limit, key=key)
