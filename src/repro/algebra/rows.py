"""The canonical multiset form of a relation's rows.

Section 4's *multiset* equivalence is equality up to order; this is the
form in which it is plain ``==``: values normalized, rows sorted.  The
materialized views store their rows in it (:mod:`repro.views`) and the
differential fuzzer compares plans in it (:mod:`repro.fuzz.compare`).

Floats are rounded (middleware and DBMS aggregation may sum in different
orders; bit-exact float equality across plans is not part of the contract)
and the sort key is type-tagged so mixed-type columns cannot raise
``TypeError`` during the sort itself.
"""

from __future__ import annotations

from typing import Sequence

#: Decimal places floats are rounded to before comparison.
FLOAT_DIGITS = 9


def _normalize_value(value: object) -> object:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        rounded = round(value, FLOAT_DIGITS)
        # 2.0 and 2 must canonicalize identically: SUM over INT yields int
        # in the middleware and may yield float through SQL.
        if rounded == int(rounded):
            return int(rounded)
        return rounded
    return value


def canonical_sort_key(row: tuple) -> tuple:
    """The key canonical rows are ordered by."""
    return tuple((type(value).__name__, value) for value in row)


def canonical_rows(rows: Sequence[tuple]) -> list[tuple]:
    """The canonical multiset form of *rows*: normalized and sorted."""
    normalized = [tuple(_normalize_value(value) for value in row) for row in rows]
    return sorted(normalized, key=canonical_sort_key)
