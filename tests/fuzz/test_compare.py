"""Canonicalization and the list-vs-multiset comparison helpers."""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.algebra.rows import _normalize_value, canonical_sort_key, normalize_rows
from repro.algebra.schema import Attribute, AttrType, Schema
from repro.fuzz.compare import canonical_rows, describe_mismatch, is_sorted_on

SCHEMA = Schema(
    [
        Attribute("K", AttrType.INT),
        Attribute("V", AttrType.FLOAT),
    ]
)


def test_multiset_equality_ignores_order():
    assert canonical_rows([(1, 2), (3, 4)]) == canonical_rows([(3, 4), (1, 2)])


def test_multiset_equality_counts_duplicates():
    assert canonical_rows([(1, 2), (1, 2)]) != canonical_rows([(1, 2)])


def test_whole_floats_equal_ints():
    # SUM over INT: the middleware sums to int, SQL may produce float.
    assert canonical_rows([(1, 2.0)]) == canonical_rows([(1, 2)])


def test_float_rounding_absorbs_summation_order():
    a = 0.1 + 0.2 + 0.3
    b = 0.3 + 0.2 + 0.1
    assert a != b or True  # the classic non-associativity
    assert canonical_rows([(a,)]) == canonical_rows([(b,)])


def test_mixed_type_columns_do_not_raise():
    rows = [(None, 1), ("x", 2), (3, 3)]
    assert canonical_rows(rows) == canonical_rows(list(reversed(rows)))


def test_mixed_number_columns_sort_numerically():
    # AVG beside COUNT: one tag for every number, so 2.5 sits between 2 and 3.
    assert canonical_rows([(3,), (2.5,), (True,), (2.0,)]) == [(1,), (2,), (2.5,), (3,)]
    assert canonical_rows([(3,), (None,), (2.5,)]) == [(None,), (2.5,), (3,)]


def test_non_finite_floats_are_kept_as_they_are():
    inf = math.inf
    assert canonical_rows([(inf, 1), (1.5, 2), (-inf, 3)]) == [(-inf, 3), (1.5, 2), (inf, 1)]
    nan = math.nan
    assert canonical_rows([(nan,)])[0][0] is nan


# Values of every type a row holds: numbers that do and do not collide after
# normalization (non-finite ones included), strings, and NULL.
VALUES = st.one_of(
    st.integers(-3, 3),
    st.floats(),
    st.sampled_from([0.5, 2.0, 2.5]),
    st.booleans(),
    st.sampled_from(["", "a", "b"]),
    st.none(),
)
ROWS = st.lists(st.tuples(VALUES, VALUES), max_size=16)


@settings(max_examples=200, deadline=None)
@given(ROWS)
def test_plain_order_is_canonical_order_wherever_it_compares(rows):
    rows = normalize_rows(rows)
    keys = list(map(canonical_sort_key, rows))
    for a, key_a in zip(rows, keys):
        for b, key_b in zip(rows, keys):
            assert (a == b) == (key_a == key_b)
            try:
                less = a < b
            except TypeError:
                continue
            assert less == (key_a < key_b)


@settings(max_examples=200, deadline=None)
@given(st.one_of(ROWS, st.lists(st.tuples(st.integers(0, 3), st.floats(0, 4)), max_size=16)))
def test_canonical_rows_is_the_keyed_sort(rows):
    assert canonical_rows(rows) == sorted(normalize_rows(rows), key=canonical_sort_key)


class Flag(int):
    """An ``int`` subclass: not exactly ``int``, so never plain."""


PLAIN = st.one_of(st.integers(-3, 3), st.sampled_from(["", "a"]), st.none())


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.lists(st.tuples(PLAIN, PLAIN), max_size=16),
        st.lists(st.tuples(st.one_of(VALUES, st.integers(-3, 3).map(Flag)), PLAIN), max_size=16),
    )
)
def test_normalize_rows_is_the_per_value_path(rows):
    """Plain rows come back as they are; any others value by value — the
    same rows either way, down to each value's type."""
    expected = [tuple(map(_normalize_value, row)) for row in rows]
    normalized = normalize_rows(rows)
    assert normalized == expected
    assert [list(map(type, row)) for row in normalized] == [
        list(map(type, row)) for row in expected
    ]
    plain = all(type(value) in (int, str, type(None)) for row in rows for value in row)
    assert (normalized is rows) == plain


def test_describe_mismatch_reports_both_sides():
    text = describe_mismatch([(1, 2)], [(3, 4)])
    assert "missing" in text
    assert "unexpected" in text
    assert "(1, 2)" in text
    assert "(3, 4)" in text


def test_describe_mismatch_on_equal_multisets():
    assert "identical" in describe_mismatch([(1, 2)], [(1, 2)])


def test_is_sorted_on_accepts_ties_in_any_order():
    rows = [(1, 9.0), (1, 2.0), (2, 5.0)]
    assert is_sorted_on(rows, SCHEMA, ("K",))


def test_is_sorted_on_rejects_a_violation():
    rows = [(2, 1.0), (1, 2.0)]
    assert not is_sorted_on(rows, SCHEMA, ("K",))


def test_is_sorted_on_trivial_cases():
    assert is_sorted_on([], SCHEMA, ("K",))
    assert is_sorted_on([(1, 2.0)], SCHEMA, ())
    assert is_sorted_on([(1, 2.0)], SCHEMA, ("missing",))


def test_is_sorted_on_incomparable_values():
    rows = [(None, 1.0), (1, 2.0)]
    assert is_sorted_on(rows, SCHEMA, ("K",))
