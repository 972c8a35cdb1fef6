"""Unit tests for repro.util.dates (spec Table 2.1 formats)."""

import datetime

import pytest
from hypothesis import given, strategies as st

from repro.util import dates


class TestConstruction:
    def test_epoch_is_day_zero(self):
        assert dates.make_date(1970, 1, 1) == 0

    def test_make_date_ordering(self):
        assert dates.make_date(2010, 1, 1) < dates.make_date(2010, 1, 2)
        assert dates.make_date(2010, 12, 31) < dates.make_date(2011, 1, 1)

    def test_make_datetime_components(self):
        ts = dates.make_datetime(2010, 1, 1, 1, 2, 3, 4)
        assert ts == (
            dates.make_date(2010, 1, 1) * dates.MILLIS_PER_DAY
            + 1 * dates.MILLIS_PER_HOUR
            + 2 * dates.MILLIS_PER_MINUTE
            + 3 * dates.MILLIS_PER_SECOND
            + 4
        )

    def test_date_to_datetime_is_midnight(self):
        date = dates.make_date(2012, 6, 15)
        assert dates.date_to_datetime(date) == dates.make_datetime(2012, 6, 15)

    def test_datetime_to_date_truncates(self):
        ts = dates.make_datetime(2012, 6, 15, 23, 59, 59, 999)
        assert dates.datetime_to_date(ts) == dates.make_date(2012, 6, 15)


class TestFormatting:
    def test_format_date_spec_shape(self):
        assert dates.format_date(dates.make_date(2010, 3, 7)) == "2010-03-07"

    def test_format_datetime_spec_shape(self):
        ts = dates.make_datetime(2010, 3, 7, 4, 5, 6, 78)
        assert dates.format_datetime(ts) == "2010-03-07T04:05:06.078+0000"

    def test_parse_date_roundtrip_literal(self):
        assert dates.parse_date("2012-11-30") == dates.make_date(2012, 11, 30)

    def test_parse_datetime_roundtrip_literal(self):
        text = "2012-11-30T23:01:02.003+0000"
        assert dates.format_datetime(dates.parse_datetime(text)) == text

    @given(st.integers(min_value=0, max_value=40000))
    def test_date_format_parse_roundtrip(self, date):
        assert dates.parse_date(dates.format_date(date)) == date

    @given(st.integers(min_value=0, max_value=40000 * dates.MILLIS_PER_DAY))
    def test_datetime_format_parse_roundtrip(self, ts):
        assert dates.parse_datetime(dates.format_datetime(ts)) == ts


class TestExtraction:
    def test_year_month_day(self):
        ts = dates.make_datetime(2011, 9, 21, 10)
        assert dates.year_of(ts) == 2011
        assert dates.month_of(ts) == 9
        assert dates.day_of(ts) == 21


class TestMonthsBetween:
    def test_bi21_example(self):
        # Spec BI 21: Jan 31 to Mar 1 counts as 3 months.
        start = dates.make_datetime(2012, 1, 31)
        end = dates.make_datetime(2012, 3, 1)
        assert dates.months_between_inclusive(start, end) == 3

    def test_same_month_is_one(self):
        start = dates.make_datetime(2012, 5, 1)
        end = dates.make_datetime(2012, 5, 31)
        assert dates.months_between_inclusive(start, end) == 1

    def test_across_year_boundary(self):
        start = dates.make_datetime(2011, 12, 15)
        end = dates.make_datetime(2012, 1, 15)
        assert dates.months_between_inclusive(start, end) == 2

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            dates.months_between_inclusive(100, 50)

    @given(
        st.integers(min_value=0, max_value=20000 * dates.MILLIS_PER_DAY),
        st.integers(min_value=0, max_value=2000 * dates.MILLIS_PER_DAY),
    )
    def test_positive_and_monotone(self, start, delta):
        end = start + delta
        months = dates.months_between_inclusive(start, end)
        assert months >= 1
        assert months <= delta // (28 * dates.MILLIS_PER_DAY) + 2


class TestMonthWindow:
    def test_covers_exactly_one_month(self):
        start, end = dates.month_window(2012, 6)
        assert start == dates.make_datetime(2012, 6, 1)
        assert end == dates.make_datetime(2012, 7, 1)
        # Closed-open: the last millisecond of June is in, July 1 is out.
        assert start <= end - 1 < end

    def test_december_wraps_to_january(self):
        start, end = dates.month_window(2011, 12)
        assert start == dates.make_datetime(2011, 12, 1)
        assert end == dates.make_datetime(2012, 1, 1)

    def test_windows_tile_the_year(self):
        """Consecutive month windows must share their boundary, across
        the December -> January wrap included."""
        previous_end = dates.month_window(2011, 1)[0]
        for offset in range(24):
            year, month = 2011 + offset // 12, 1 + offset % 12
            start, end = dates.month_window(year, month)
            assert start == previous_end
            assert start < end
            previous_end = end

    def test_leap_february(self):
        start, end = dates.month_window(2012, 2)
        assert (end - start) // dates.MILLIS_PER_DAY == 29


class TestMonthBucket:
    def test_epoch_month_is_zero(self):
        assert dates.month_bucket(dates.make_datetime(1970, 1, 15)) == 0
        assert dates.month_bucket(dates.make_datetime(1970, 2, 1)) == 1

    def test_buckets_follow_month_windows(self):
        """Every timestamp inside month_window(y, m) lands in the same
        bucket, and the next window starts a new bucket."""
        for year, month in [(2010, 1), (2011, 12), (2012, 2)]:
            start, end = dates.month_window(year, month)
            assert dates.month_bucket(start) == dates.month_bucket(end - 1)
            assert dates.month_bucket(end) == dates.month_bucket(start) + 1

    def test_monotone_over_years(self):
        assert (
            dates.month_bucket(dates.make_datetime(2012, 1, 1))
            - dates.month_bucket(dates.make_datetime(2011, 1, 1))
        ) == 12


def _calendar(ts):
    """``(year, month, months since 1970-01)`` straight from ``datetime``
    — the definitions the table-driven helpers must reproduce."""
    day = datetime.date(1970, 1, 1) + datetime.timedelta(
        days=ts // dates.MILLIS_PER_DAY
    )
    return day.year, day.month, (day.year - 1970) * 12 + (day.month - 1)


def _helpers(ts):
    return dates.year_of(ts), dates.month_of(ts), dates.month_bucket(ts)


class TestCalendarTable:
    """``year_of``/``month_of``/``month_bucket`` bisect a table of month
    starts and fall back to ``datetime`` outside it; both paths must
    agree with the ``datetime`` definitions everywhere."""

    @given(
        st.integers(
            min_value=dates.make_datetime(1, 1, 1),
            max_value=dates.make_datetime(9999, 12, 31, 23, 59, 59, 999),
        )
    )
    def test_any_timestamp(self, ts):
        assert _helpers(ts) == _calendar(ts)

    @given(
        st.integers(
            min_value=dates._MONTH_STARTS[0] - 50 * dates.MILLIS_PER_DAY,
            max_value=dates._MONTH_STARTS[-1] + 50 * dates.MILLIS_PER_DAY,
        )
    )
    def test_table_range_and_its_edges(self, ts):
        assert _helpers(ts) == _calendar(ts)

    def test_every_month_boundary(self):
        """±1 ms around every month start in the table, its first and
        last entries (where the fallback takes over) included."""
        for start in dates._MONTH_STARTS:
            for ts in (start - 1, start, start + 1):
                assert _helpers(ts) == _calendar(ts), ts
