"""Unit tests for day-granularity calendar arithmetic."""

import datetime

import pytest

from repro.temporal.timestamps import (
    DAY_ORIGIN,
    date_of,
    day_of,
    iso_of,
    year_start,
)


class TestDayOf:
    def test_origin_is_day_zero(self):
        assert day_of("1830-01-01") == 0

    def test_day_after_origin(self):
        assert day_of("1830-01-02") == 1

    def test_accepts_date_objects(self):
        assert day_of(datetime.date(1830, 1, 3)) == 2

    def test_string_and_date_agree(self):
        assert day_of("1997-02-01") == day_of(datetime.date(1997, 2, 1))

    def test_monotonic_over_month_boundary(self):
        assert day_of("1997-02-01") - day_of("1997-01-31") == 1

    def test_leap_year_february(self):
        assert day_of("1996-03-01") - day_of("1996-02-28") == 2

    def test_non_leap_year_february(self):
        assert day_of("1997-03-01") - day_of("1997-02-28") == 1

    def test_invalid_date_raises(self):
        with pytest.raises(ValueError):
            day_of("1997-13-01")


class TestDateOf:
    def test_roundtrip_origin(self):
        assert date_of(0) == DAY_ORIGIN

    def test_roundtrip_arbitrary(self):
        day = day_of("1995-06-15")
        assert date_of(day) == datetime.date(1995, 6, 15)

    def test_iso_of_roundtrip(self):
        assert iso_of(day_of("1999-12-31")) == "1999-12-31"


class TestHelpers:
    def test_days_between_week(self):
        assert day_of("1997-02-08") - day_of("1997-02-01") == 7

    def test_days_between_negative(self):
        assert day_of("1997-02-01") - day_of("1997-02-08") == -7

    def test_year_start_origin_year(self):
        assert year_start(1830) == 0

    def test_year_start_is_january_first(self):
        assert date_of(year_start(1995)) == datetime.date(1995, 1, 1)

    def test_paper_example_distinct_day_count(self):
        # Section 3.3: "the number of days between their minimum and maximum
        # values" for T1 = 1995-01-01 .. 1999-12-25 is 1819.
        assert day_of("1999-12-25") - day_of("1995-01-01") == 1819
