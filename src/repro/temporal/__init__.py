"""Temporal substrate: day-granularity timestamps and closed-open periods.

The paper models time as days (Figure 3 uses small integers; Section 3.3 uses
calendar dates).  This package provides the conversion between ISO dates and
integer day numbers and the closed-open period arithmetic used by every
temporal operator.
"""

from repro.temporal.timestamps import day_of, date_of
from repro.temporal.period import Period

__all__ = ["day_of", "date_of", "Period"]
