"""Property tests: TAGGR^M against a brute-force day-by-day reference."""

from collections import defaultdict

from hypothesis import given, settings, strategies as st

from repro.algebra.operators import AggregateSpec
from repro.algebra.schema import Attribute, AttrType, Schema
from repro.xxl.cursor import materialize
from repro.xxl.sources import RelationCursor
from repro.xxl.temporal_aggregate import TemporalAggregateCursor

SCHEMA = Schema(
    [
        Attribute("K", AttrType.INT),
        Attribute("V", AttrType.INT),
        Attribute("T1", AttrType.DATE),
        Attribute("T2", AttrType.DATE),
    ]
)

def _with_endpoints(drawn):
    """(K, V, T1, T2) from (K, V, T1, duration, nulls): *nulls* 13 makes
    T1 NULL, 14 makes T2 NULL, 15 makes both NULL; anything lower, neither."""
    key, value, start, duration, nulls = drawn
    t1 = None if nulls in (13, 15) else start
    t2 = None if nulls in (14, 15) else start + duration
    return key, value, t1, t2


rows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),      # K
        st.one_of(st.none(), st.integers(min_value=-50, max_value=50)),  # V
        st.integers(min_value=0, max_value=60),     # T1
        st.integers(min_value=1, max_value=30),     # duration
        st.integers(min_value=0, max_value=15),     # NULL endpoints
    ).map(_with_endpoints),
    max_size=40,
)


def run_taggr(rows, func="COUNT", attribute="K"):
    # Sorted on (K, T1) as MiniDB's ORDER BY sorts: a NULL T1 last.
    ordered = sorted(rows, key=lambda row: (row[0], row[2] is None, row[2] or 0))
    cursor = TemporalAggregateCursor(
        RelationCursor(SCHEMA, ordered),
        ("K",),
        (AggregateSpec(func, attribute, "AGG"),),
    )
    return materialize(cursor)


#: A day on which no tuple of the group is valid (distinct from a NULL value).
EMPTY = object()


def brute_force_by_day(rows, func):
    """Day-by-day evaluation: for each group and day, aggregate the tuples
    valid that day as SQL does — ``COUNT(V)`` counts the non-NULL values,
    the others are NULL when all of them are — then merge runs of equal
    aggregate values.  A run of days on which tuples are valid but every
    value is NULL is kept; a run with no valid tuple is not.  A tuple with
    a NULL T1 or T2 is valid on no day (``T1 <= day AND day < T2`` is
    unknown), so a group of only such tuples yields nothing."""
    per_group = defaultdict(list)
    for row in rows:
        if row[2] is not None and row[3] is not None:
            per_group[row[0]].append(row)
    results = []
    for key in sorted(per_group):
        group = per_group[key]
        days = [d for row in group for d in (row[2], row[3])]
        merged = []  # [first day, day after the last, value]
        for day in range(min(days), max(days)):
            valid = [row[1] for row in group if row[2] <= day < row[3]]
            values = [value for value in valid if value is not None]
            if not valid:
                value = EMPTY
            elif func == "COUNT":
                value = len(values)
            elif not values:
                value = None
            elif func == "SUM":
                value = float(sum(values))
            elif func == "MIN":
                value = min(values)
            else:
                value = max(values)
            if merged and merged[-1][2] == value:
                merged[-1][1] = day + 1
            else:
                merged.append([day, day + 1, value])
        results.extend((key, start, end, value) for start, end, value in merged if value is not EMPTY)
    return results


def test_null_endpoints_are_valid_at_no_instant():
    rows = [
        (1, 5, None, 10),
        (1, 6, 2, None),
        (2, 7, None, None),
        (3, 1, 4, 8),
        (3, 2, None, 6),
    ]
    assert run_taggr(rows, "COUNT", "V") == [(3, 4, 8, 1)]


class TestAgainstBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(rows_strategy)
    def test_count_matches_day_by_day(self, rows):
        result = run_taggr(rows, "COUNT", "V")
        merged = _merge_equal_adjacent(result)
        assert merged == brute_force_by_day(rows, "COUNT")

    @settings(max_examples=40, deadline=None)
    @given(rows_strategy)
    def test_sum_matches_day_by_day(self, rows):
        result = run_taggr(rows, "SUM", "V")
        merged = _merge_equal_adjacent(result)
        assert merged == brute_force_by_day(rows, "SUM")

    @settings(max_examples=40, deadline=None)
    @given(rows_strategy)
    def test_min_matches_day_by_day(self, rows):
        result = run_taggr(rows, "MIN", "V")
        merged = _merge_equal_adjacent(result)
        assert merged == brute_force_by_day(rows, "MIN")

    @settings(max_examples=40, deadline=None)
    @given(rows_strategy)
    def test_max_matches_day_by_day(self, rows):
        result = run_taggr(rows, "MAX", "V")
        merged = _merge_equal_adjacent(result)
        assert merged == brute_force_by_day(rows, "MAX")


def _merge_equal_adjacent(rows):
    """Merge adjacent result intervals carrying the same aggregate value.

    TAGGR^M splits at every instant; the day-by-day reference only changes
    at value changes — merging makes the two comparable.
    """
    merged = []
    for row in rows:
        if (
            merged
            and merged[-1][0] == row[0]
            and merged[-1][2] == row[1]
            and merged[-1][3] == row[3]
        ):
            merged[-1] = (row[0], merged[-1][1], row[2], row[3])
        else:
            merged.append(row)
    return merged


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(rows_strategy)
    def test_intervals_disjoint_per_group(self, rows):
        result = run_taggr(rows)
        by_group = defaultdict(list)
        for row in result:
            by_group[row[0]].append((row[1], row[2]))
        for intervals in by_group.values():
            for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
                assert e1 <= s2

    @settings(max_examples=60, deadline=None)
    @given(rows_strategy)
    def test_cardinality_bound_section_3_4(self, rows):
        result = run_taggr(rows)
        if rows:
            assert len(result) <= 2 * len(rows) - 1 + len(set(r[0] for r in rows))

    @settings(max_examples=60, deadline=None)
    @given(rows_strategy)
    def test_counts_positive(self, rows):
        assert all(row[3] >= 1 for row in run_taggr(rows))

    @settings(max_examples=60, deadline=None)
    @given(rows_strategy)
    def test_output_sorted_on_group_and_t1(self, rows):
        result = run_taggr(rows)
        assert result == sorted(result, key=lambda row: (row[0], row[1]))
