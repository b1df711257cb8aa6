"""The canonical multiset form of a relation's rows.

Section 4's *multiset* equivalence is equality up to order; this is the
form in which it is plain ``==``: values normalized, rows sorted.  The
materialized views store their rows in it (:mod:`repro.views`) and the
differential fuzzer compares plans in it (:mod:`repro.fuzz.compare`).
Who only counts or hashes rows — the fuzzer's multiset equality, the views'
delta splice — needs the first half alone: :func:`normalize_rows`.

Floats are rounded (middleware and DBMS aggregation may sum in different
orders; bit-exact float equality across plans is not part of the contract)
and the sort key is type-tagged so mixed-type columns cannot raise
``TypeError`` during the sort itself.
"""

from __future__ import annotations

from typing import Iterable

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


def normalize_rows(rows: Iterable[tuple]) -> list[tuple]:
    """*rows* with every value normalized, in the order given — all a caller
    needs who will hash the rows (a ``Counter``, a delta splice) and not
    compare two lists."""
    return [tuple(map(_normalize_value, row)) for row in rows]


def canonical_rows(rows: Iterable[tuple]) -> list[tuple]:
    """The canonical multiset form of *rows*: normalized and sorted."""
    return sorted(normalize_rows(rows), key=canonical_sort_key)
