"""Date and DateTime handling per LDBC SNB spec Table 2.1.

The spec encodes:

* ``Date`` as ``yyyy-mm-dd`` with day precision.
* ``DateTime`` as ``yyyy-mm-ddTHH:MM:ss.sss+0000`` with millisecond
  precision, always in GMT.

Internally both are integers: a ``Date`` is a day number and a
``DateTime`` is milliseconds since the Unix epoch (UTC).  Integer
representations keep the generator deterministic and make comparisons
between the two types trivial: per spec section 3.2, a ``Date`` compared
against a ``DateTime`` is implicitly the ``DateTime`` at midnight GMT of
that day.
"""

from __future__ import annotations

import datetime as _dt
from bisect import bisect_right

# Type aliases used in signatures across the code base.  A ``Date`` is a
# day ordinal (days since 1970-01-01); a ``DateTime`` is epoch millis.
Date = int
DateTime = int

MILLIS_PER_SECOND = 1_000
MILLIS_PER_MINUTE = 60 * MILLIS_PER_SECOND
MILLIS_PER_HOUR = 60 * MILLIS_PER_MINUTE
MILLIS_PER_DAY = 24 * MILLIS_PER_HOUR

_EPOCH = _dt.date(1970, 1, 1)


def make_date(year: int, month: int, day: int) -> Date:
    """Build a ``Date`` (day ordinal) from calendar components."""
    return (_dt.date(year, month, day) - _EPOCH).days


def make_datetime(
    year: int,
    month: int,
    day: int,
    hour: int = 0,
    minute: int = 0,
    second: int = 0,
    millisecond: int = 0,
) -> DateTime:
    """Build a ``DateTime`` (epoch millis, GMT) from calendar components."""
    days = make_date(year, month, day)
    return (
        days * MILLIS_PER_DAY
        + hour * MILLIS_PER_HOUR
        + minute * MILLIS_PER_MINUTE
        + second * MILLIS_PER_SECOND
        + millisecond
    )


def date_to_datetime(date: Date) -> DateTime:
    """Midnight GMT of ``date``, per the spec's Date/DateTime comparison rule."""
    return date * MILLIS_PER_DAY


def datetime_to_date(ts: DateTime) -> Date:
    """The calendar day a ``DateTime`` falls on (GMT)."""
    return ts // MILLIS_PER_DAY


def _as_date(date: Date) -> _dt.date:
    return _EPOCH + _dt.timedelta(days=date)


def format_date(date: Date) -> str:
    """Serialize per spec: ``yyyy-mm-dd``."""
    return _as_date(date).isoformat()


def format_datetime(ts: DateTime) -> str:
    """Serialize per spec: ``yyyy-mm-ddTHH:MM:ss.sss+0000``."""
    days, rem = divmod(ts, MILLIS_PER_DAY)
    hours, rem = divmod(rem, MILLIS_PER_HOUR)
    minutes, rem = divmod(rem, MILLIS_PER_MINUTE)
    seconds, millis = divmod(rem, MILLIS_PER_SECOND)
    return (
        f"{_as_date(days).isoformat()}T"
        f"{hours:02d}:{minutes:02d}:{seconds:02d}.{millis:03d}+0000"
    )


def parse_date(text: str) -> Date:
    """Parse ``yyyy-mm-dd`` into a day ordinal."""
    return (_dt.date.fromisoformat(text) - _EPOCH).days


def parse_datetime(text: str) -> DateTime:
    """Parse ``yyyy-mm-ddTHH:MM:ss.sss+0000`` into epoch millis."""
    date_part, time_part = text.split("T")
    time_part = time_part.removesuffix("+0000")
    hms, _, millis = time_part.partition(".")
    hour, minute, second = (int(x) for x in hms.split(":"))
    return make_datetime(
        *(int(x) for x in date_part.split("-")),
        hour=hour,
        minute=minute,
        second=second,
        millisecond=int(millis or 0),
    )


#: Midnight GMT of the first day of every month from January 1900
#: through January 2101 (the exclusive end): one ``bisect_right`` finds
#: a timestamp's month without building a ``datetime.date``.
#: Timestamps outside the table take the ``datetime`` path.
_MONTH_STARTS = [
    make_datetime(year, month, 1)
    for year in range(1900, 2101)
    for month in range(1, 13)
] + [make_datetime(2101, 1, 1)]
#: The :func:`month_bucket` of ``_MONTH_STARTS[0]``.
_FIRST_BUCKET = (1900 - 1970) * 12


def year_of(ts: DateTime) -> int:
    """The spec's ``year(date)`` function (GMT)."""
    return 1970 + month_bucket(ts) // 12


def month_of(ts: DateTime) -> int:
    """The spec's ``month(date)`` function, 1-12 (GMT)."""
    return month_bucket(ts) % 12 + 1


def day_of(ts: DateTime) -> int:
    """Day of month, 1-31 (GMT)."""
    return _as_date(datetime_to_date(ts)).day


def month_bucket(ts: DateTime) -> int:
    """The calendar-month ordinal of a ``DateTime`` (months since 1970-01).

    This is the bucketing key of the store's messages-by-month secondary
    index: contiguous month buckets make window scans a range of bucket
    lookups instead of a full scan (choke point CP-3.2).
    """
    index = bisect_right(_MONTH_STARTS, ts)
    if 0 < index < len(_MONTH_STARTS):
        return _FIRST_BUCKET + index - 1
    d = _as_date(datetime_to_date(ts))
    return (d.year - 1970) * 12 + (d.month - 1)


def month_window(year: int, month: int) -> tuple[DateTime, DateTime]:
    """The closed-open ``DateTime`` interval covering one calendar month.

    Handles the December→January wrap: ``month_window(2012, 12)`` ends at
    midnight of 2013-01-01.  This is the single definition of the
    "messages created in a month" predicate that BI 3 and friends use.
    """
    start = make_datetime(year, month, 1)
    if month == 12:
        end = make_datetime(year + 1, 1, 1)
    else:
        end = make_datetime(year, month + 1, 1)
    return start, end


def days_between(start: Date, end: Date) -> int:
    """Whole days from ``start`` to ``end`` (may be negative)."""
    return end - start


def months_between_inclusive(start: DateTime, end: DateTime) -> int:
    """Month span with partial months on both ends counting as one month.

    This is the counting rule of BI 21 ("Zombies in a country"): a
    creationDate of Jan 31 and an endDate of Mar 1 span 3 months.
    """
    if end < start:
        raise ValueError("end must not precede start")
    s = _as_date(datetime_to_date(start))
    e = _as_date(datetime_to_date(end))
    return (e.year - s.year) * 12 + (e.month - s.month) + 1
