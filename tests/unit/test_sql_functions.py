"""Unit tests for aggregate accumulators, including the sliding variants
used by the temporal-aggregation sweep."""

import math

import pytest

from repro.dbms.sql.functions import Accumulator, SlidingAggregate
from repro.errors import ExecutionError


class TestAccumulator:
    def test_count(self):
        acc = Accumulator("COUNT")
        for value in (1, 2, 3):
            acc.add(value)
        assert acc.result() == 3

    def test_count_ignores_none(self):
        acc = Accumulator("COUNT")
        acc.add(None)
        acc.add(1)
        assert acc.result() == 1

    def test_sum_avg(self):
        acc_sum = Accumulator("SUM")
        acc_avg = Accumulator("AVG")
        for value in (10, 30):
            acc_sum.add(value)
            acc_avg.add(value)
        assert acc_sum.result() == 40.0
        assert acc_avg.result() == 20.0

    def test_min_max(self):
        acc_min = Accumulator("MIN")
        acc_max = Accumulator("MAX")
        for value in (5, 1, 9):
            acc_min.add(value)
            acc_max.add(value)
        assert acc_min.result() == 1
        assert acc_max.result() == 9

    def test_empty_sum_is_null(self):
        assert Accumulator("SUM").result() is None

    def test_empty_count_is_zero(self):
        assert Accumulator("COUNT").result() == 0

    def test_distinct(self):
        acc = Accumulator("COUNT", distinct=True)
        for value in (1, 1, 2):
            acc.add(value)
        assert acc.result() == 2


class TestSlidingAggregate:
    def test_count_add_remove(self):
        agg = SlidingAggregate("COUNT")
        agg.add(1)
        agg.add(1)
        agg.remove(1)
        assert agg.result() == 1

    def test_sum_add_remove(self):
        agg = SlidingAggregate("SUM")
        agg.add(10)
        agg.add(20)
        agg.remove(10)
        assert agg.result() == 20.0

    def test_avg(self):
        agg = SlidingAggregate("AVG")
        agg.add(10)
        agg.add(30)
        agg.remove(30)
        assert agg.result() == 10.0

    def test_min_with_lazy_deletion(self):
        agg = SlidingAggregate("MIN")
        agg.add(5)
        agg.add(2)
        agg.add(8)
        assert agg.result() == 2
        agg.remove(2)
        assert agg.result() == 5

    def test_max_with_lazy_deletion(self):
        agg = SlidingAggregate("MAX")
        for value in (5, 2, 8):
            agg.add(value)
        agg.remove(8)
        assert agg.result() == 5

    def test_min_duplicate_values(self):
        agg = SlidingAggregate("MIN")
        agg.add(3)
        agg.add(3)
        agg.remove(3)
        assert agg.result() == 3

    def test_empty_flag(self):
        agg = SlidingAggregate("COUNT")
        assert agg.empty
        agg.add(1)
        assert not agg.empty
        agg.remove(1)
        assert agg.empty

    def test_remove_never_added_raises(self):
        agg = SlidingAggregate("MIN")
        agg.add(1)
        with pytest.raises(ExecutionError):
            agg.remove(2)

    def test_none_values_ignored(self):
        agg = SlidingAggregate("SUM")
        agg.add(None)
        agg.remove(None)
        assert agg.empty

    def test_unknown_function_rejected(self):
        with pytest.raises(ExecutionError):
            SlidingAggregate("MEDIAN")

    def test_exhausted_min_is_null(self):
        agg = SlidingAggregate("MIN")
        agg.add(4)
        agg.remove(4)
        assert agg.result() is None

    def test_sum_forgets_an_infinity_that_leaves(self):
        agg = SlidingAggregate("SUM")
        agg.add(1.0)
        agg.add(math.inf)
        assert agg.result() == math.inf
        agg.remove(math.inf)
        assert agg.result() == 1.0

    def test_avg_forgets_a_negative_infinity_that_leaves(self):
        agg = SlidingAggregate("AVG")
        for value in (1.0, 3.0, -math.inf):
            agg.add(value)
        assert agg.result() == -math.inf
        agg.remove(-math.inf)
        assert agg.result() == 2.0

    @pytest.mark.parametrize("func", ["SUM", "AVG"])
    @pytest.mark.parametrize(
        "odd", [(math.inf, -math.inf), (math.nan,), (math.nan, math.inf), (-math.inf, math.nan)]
    )
    def test_nan_while_a_nan_or_both_infinities_are_live(self, func, odd):
        agg = SlidingAggregate(func)
        agg.add(2.0)
        for value in odd:
            agg.add(value)
        assert math.isnan(agg.result())
        for value in odd:
            agg.remove(value)
        assert agg.result() == 2.0
