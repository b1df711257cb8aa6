"""Unit tests for closed-open period arithmetic."""

import pytest

from repro.temporal.period import (
    Period,
    coalesce_periods,
    constant_intervals,
    intersect,
    overlaps,
)


class TestPeriod:
    def test_duration(self):
        assert Period(2, 20).duration == 18

    def test_empty_period(self):
        assert Period(5, 5).is_empty()

    def test_nonempty_period(self):
        assert not Period(5, 6).is_empty()

    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError):
            Period(10, 5)

    # Closed-open: a period holds the day it starts on, not the day it ends on.
    def test_contains_start(self):
        assert Period(2, 20).overlaps(Period(2, 3))

    def test_excludes_end(self):
        assert not Period(2, 20).overlaps(Period(20, 21))

    def test_contains_interior(self):
        assert Period(2, 20).overlaps(Period(10, 11))


class TestOverlap:
    def test_overlapping(self):
        assert Period(2, 20).overlaps(Period(5, 25))

    def test_meets_is_not_overlap(self):
        # Closed-open: [2,5) and [5,8) share no day.
        assert not Period(2, 5).overlaps(Period(5, 8))

    def test_disjoint(self):
        assert not Period(2, 5).overlaps(Period(8, 10))

    def test_containment_overlaps(self):
        assert Period(1, 100).overlaps(Period(40, 50))

    def test_symmetric(self):
        a, b = Period(2, 20), Period(5, 25)
        assert a.overlaps(b) == b.overlaps(a)

    def test_raw_matches_period(self):
        assert overlaps(2, 20, 5, 25)
        assert not overlaps(2, 5, 5, 8)


class TestIntersect:
    def test_basic(self):
        assert Period(2, 20).intersect(Period(5, 25)) == Period(5, 20)

    def test_disjoint_is_none(self):
        assert Period(2, 5).intersect(Period(5, 8)) is None

    def test_raw_form(self):
        assert intersect(2, 20, 5, 25) == (5, 20)
        assert intersect(2, 5, 5, 8) is None

    def test_intersection_is_greatest_least(self):
        # Figure 5's GREATEST(T1)/LEAST(T2) projection.
        result = intersect(3, 30, 10, 40)
        assert result == (max(3, 10), min(30, 40))


class TestMergeAndMeets:
    def test_meets(self):
        assert Period(2, 5).meets(Period(5, 8))

    def test_merge_overlapping(self):
        assert Period(1, 5).merge(Period(4, 8)) == Period(1, 8)

    def test_merge_adjacent(self):
        assert Period(1, 5).merge(Period(5, 8)) == Period(1, 8)

    def test_merge_disjoint_raises(self):
        with pytest.raises(ValueError):
            Period(1, 3).merge(Period(5, 8))


class TestConstantIntervals:
    def test_figure3_position_one(self):
        # Tom [2,20) and Jane [5,25): intervals of Figure 3(c), position 1.
        assert list(constant_intervals([(2, 20), (5, 25)])) == [
            (2, 5),
            (5, 20),
            (20, 25),
        ]

    def test_single_period(self):
        assert list(constant_intervals([(5, 10)])) == [(5, 10)]

    def test_gap_is_skipped(self):
        assert list(constant_intervals([(1, 3), (5, 8)])) == [(1, 3), (5, 8)]

    def test_empty_input(self):
        assert list(constant_intervals([])) == []

    def test_empty_periods_ignored(self):
        assert list(constant_intervals([(5, 5), (7, 7)])) == []

    def test_identical_periods_one_interval(self):
        assert list(constant_intervals([(1, 4), (1, 4), (1, 4)])) == [(1, 4)]

    def test_nested_periods(self):
        assert list(constant_intervals([(1, 10), (3, 5)])) == [
            (1, 3),
            (3, 5),
            (5, 10),
        ]


class TestCoalescePeriods:
    def test_overlapping_merge(self):
        assert coalesce_periods([(1, 5), (4, 8)]) == [(1, 8)]

    def test_adjacent_merge(self):
        assert coalesce_periods([(1, 5), (5, 8)]) == [(1, 8)]

    def test_disjoint_stay_apart(self):
        assert coalesce_periods([(1, 5), (6, 8)]) == [(1, 5), (6, 8)]

    def test_unordered_input(self):
        assert coalesce_periods([(10, 12), (1, 5), (4, 8)]) == [(1, 8), (10, 12)]

    def test_empty_periods_dropped(self):
        assert coalesce_periods([(3, 3), (1, 2)]) == [(1, 2)]
