"""Day-granularity calendar arithmetic.

All temporal operators work on integer *day numbers*.  A day number counts
days since :data:`DAY_ORIGIN` (1830-01-01), a date safely before anything in
the UIS dataset, so every timestamp in the experiments is a positive integer.

Only the proleptic Gregorian calendar of :mod:`datetime` is used; no time
zones, no sub-day granularity — matching the paper, which measures validity
periods in days.
"""

from __future__ import annotations

import datetime
import functools

#: Calendar origin for day numbers (day number 0).
DAY_ORIGIN = datetime.date(1830, 1, 1)

#: Largest representable day number ("until changed" / open-ended periods).
FOREVER = 3_000_000


@functools.lru_cache(maxsize=65536)
def day_of(date: str | datetime.date) -> int:
    """Return the day number of an ISO date string or :class:`datetime.date`.

    >>> day_of("1830-01-02")
    1
    >>> day_of("1997-02-01") - day_of("1997-01-31")
    1
    """
    if isinstance(date, str):
        date = datetime.date.fromisoformat(date)
    return (date - DAY_ORIGIN).days


def date_of(day: int) -> datetime.date:
    """Return the calendar date of a day number (inverse of :func:`day_of`)."""
    return DAY_ORIGIN + datetime.timedelta(days=int(day))


def iso_of(day: int) -> str:
    """Return the ISO string of a day number.

    >>> iso_of(day_of("1995-06-15"))
    '1995-06-15'
    """
    return date_of(day).isoformat()


def year_start(year: int) -> int:
    """Day number of January 1 of *year* — handy for the paper's sweeps.

    >>> year_start(1830)
    0
    """
    return day_of(datetime.date(year, 1, 1))
