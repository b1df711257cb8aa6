"""Unit tests for height-balanced histograms."""

import pytest

from repro.errors import StatisticsError
from repro.stats.histogram import Histogram, build_height_balanced


class TestConstruction:
    def test_bounds_counts_mismatch_rejected(self):
        with pytest.raises(StatisticsError):
            Histogram((0.0, 1.0, 2.0), (5,))

    def test_empty_rejected(self):
        with pytest.raises(StatisticsError):
            Histogram((0.0,), ())

    def test_decreasing_bounds_rejected(self):
        with pytest.raises(StatisticsError):
            Histogram((2.0, 1.0), (5,))

    def test_empty_values_rejected(self):
        with pytest.raises(StatisticsError):
            build_height_balanced([])


class TestAccessors:
    def make(self) -> Histogram:
        return Histogram((0.0, 10.0, 20.0, 30.0), (5, 10, 5))

    def test_paper_accessor_names(self):
        histogram = self.make()
        assert histogram.b1(1) == 10.0  # bucket start
        assert histogram.b2(1) == 20.0  # bucket end
        assert histogram.b_val(1) == 10  # values in bucket
        assert histogram.b_no(15.0) == 1  # bucket of a value

    def test_b_no_clamps_low(self):
        assert self.make().b_no(-5.0) == 0

    def test_b_no_clamps_high(self):
        assert self.make().b_no(99.0) == 2

    def test_total(self):
        assert self.make().total == 20


class TestValuesBelow:
    def make(self) -> Histogram:
        return Histogram((0.0, 10.0, 20.0), (10, 10))

    def test_below_minimum(self):
        assert self.make().values_below(-1.0) == 0.0

    def test_above_maximum(self):
        assert self.make().values_below(25.0) == 20.0

    def test_bucket_boundary(self):
        assert self.make().values_below(10.0) == pytest.approx(10.0)

    def test_interpolation_within_bucket(self):
        # Half of the first bucket.
        assert self.make().values_below(5.0) == pytest.approx(5.0)

    def test_selectivity_normalized(self):
        assert self.make().selectivity_below(5.0) == pytest.approx(0.25)


class TestHeightBalanced:
    def test_equal_counts(self):
        histogram = build_height_balanced(list(range(100)), num_buckets=4)
        assert histogram.counts == (25, 25, 25, 25)

    def test_total_preserved(self):
        values = [float(v % 17) for v in range(123)]
        histogram = build_height_balanced(values, num_buckets=7)
        assert histogram.total == 123

    def test_fewer_values_than_buckets(self):
        histogram = build_height_balanced([1.0, 2.0], num_buckets=10)
        assert histogram.total == 2

    def test_skewed_duplicates(self):
        values = [5.0] * 90 + [1.0] * 10
        histogram = build_height_balanced(values, num_buckets=4)
        assert histogram.total == 100
        # Nearly everything is below 5.000...1, matching the data.
        assert histogram.values_below(5.0001) == pytest.approx(100.0, rel=0.15)

    def test_estimates_track_uniform_data(self):
        values = list(range(1000))
        histogram = build_height_balanced(values, num_buckets=10)
        assert histogram.values_below(250) == pytest.approx(250, rel=0.05)

    @pytest.mark.parametrize("buckets", [1, 3, 10])
    def test_presorted_raw_values_equal_floats_sorted(self, buckets):
        # ANALYZE hands over the raw ascending column (ints beside equal
        # floats, heavy duplicates) and only the bounds are converted.
        raw = [7, 2, 2.0, 9, 2, 1.5, 2**53 + 1, 7, 7, 3]
        assert build_height_balanced(
            sorted(raw), buckets, presorted=True
        ) == build_height_balanced([float(v) for v in raw], buckets)
