"""The canonical multiset form of a relation's rows.

Section 4's *multiset* equivalence is equality up to order; this is the
form in which it is plain ``==``: values normalized, rows sorted.  The
materialized views store their rows in it (:mod:`repro.views`) and the
differential fuzzer compares plans in it (:mod:`repro.fuzz.compare`).
Who only counts or hashes rows — the fuzzer's multiset equality — needs the
first half alone: :func:`normalize_rows`.

Floats are rounded (middleware and DBMS aggregation may sum in different
orders; bit-exact float equality across plans is not part of the contract);
an integral float becomes an ``int`` and a non-finite one stays as it is.

The canonical order is :func:`canonical_sort_key`'s: each value paired with
a tag of its type, one tag for every number.  For two normalized rows plain
``a < b`` either raises ``TypeError`` (a NULL, or a string beside a number)
or equals ``key(a) < key(b)``, and plain ``==`` equals key equality — where
the tags differ the values never compare equal, and where they agree the
pair compares as its values do.  So wherever the values compare, canonical
order *is* tuple order, and a sort or a search may run on the plain tuples
and pay for the key only after a ``TypeError``: every comparison it made
agreed with the key, so what it produced is what the key would have.
"""

from __future__ import annotations

from itertools import chain
from math import isfinite
from typing import Iterable

#: Decimal places floats are rounded to before comparison.
FLOAT_DIGITS = 9


def _normalize_value(value: object) -> object:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        if not isfinite(value):
            return value
        rounded = round(value, FLOAT_DIGITS)
        # 2.0 and 2 must canonicalize identically: SUM over INT yields int
        # in the middleware and may yield float through SQL.
        if rounded == int(rounded):
            return int(rounded)
        return rounded
    return value


class _Tags(dict):
    """A value's type → the tag the canonical key pairs the value with: its
    type's name, but one tag for every number, so that a column holding
    ints beside floats (``AVG``) sorts numerically."""

    def __missing__(self, kind: type) -> str:
        self[kind] = kind.__name__
        return kind.__name__


_TAGS = _Tags({bool: "number", int: "number", float: "number"})


def canonical_sort_key(row: tuple) -> tuple:
    """The key canonical rows are ordered by; it orders any two rows, NULLs
    and mixed types included."""
    return tuple(zip(map(_TAGS.__getitem__, map(type, row)), row))


#: The value types normalization leaves as they are, ``bool`` (an ``int``
#: subclass) not among them.
_PLAIN = frozenset({int, str, type(None)})


def normalize_rows(rows: Iterable[tuple]) -> list[tuple]:
    """*rows* with every value normalized, in the order given — all a caller
    needs who will hash the rows (a ``Counter``) and not compare two lists.
    A list of tuples of plain values (:data:`_PLAIN`) is returned as it is,
    after two C-level passes over it."""
    rows = rows if isinstance(rows, list) else list(rows)
    if set(map(type, rows)) <= {tuple} and set(map(type, chain.from_iterable(rows))) <= _PLAIN:
        return rows
    return [tuple(map(_normalize_value, row)) for row in rows]


def canonical_rows(rows: Iterable[tuple]) -> list[tuple]:
    """The canonical multiset form of *rows*: normalized and sorted — as
    plain tuples, and by :func:`canonical_sort_key` only where they do not
    compare."""
    rows = normalize_rows(rows)
    try:
        return sorted(rows)
    except TypeError:
        return sorted(rows, key=canonical_sort_key)
