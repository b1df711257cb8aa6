"""Histograms in the shapes conventional DBMSs maintain.

Section 3.3 defines ``StartBefore``/``EndBefore`` over a histogram ``H``
through four accessor functions:

* ``b1(i, H)`` / ``b2(i, H)`` — start and end value of bucket *i*;
* ``bVal(i, H)`` — number of attribute values in bucket *i*;
* ``bNo(A, H)`` — the bucket that value ``A`` falls into.

The histograms are *height-balanced* (equal tuple counts per bucket —
Oracle's default); the paper notes the formulas work for width-balanced
ones too.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence

from repro.errors import StatisticsError


@dataclass(frozen=True)
class Histogram:
    """A bucketed summary of a numeric column.

    ``bounds`` has one more entry than ``counts``; bucket *i* covers the
    value range ``[bounds[i], bounds[i + 1])`` — except the last bucket,
    which is closed on both ends so the column maximum belongs to it.
    """

    bounds: tuple[float, ...]
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bounds) != len(self.counts) + 1:
            raise StatisticsError("histogram bounds/counts lengths are inconsistent")
        if len(self.counts) == 0:
            raise StatisticsError("histogram must have at least one bucket")
        if any(b2 < b1 for b1, b2 in zip(self.bounds, self.bounds[1:])):
            raise StatisticsError("histogram bounds must be non-decreasing")

    # -- the paper's accessor functions ---------------------------------------

    @property
    def num_buckets(self) -> int:
        return len(self.counts)

    def b1(self, i: int) -> float:
        """Start value of bucket *i* (0-based)."""
        return self.bounds[i]

    def b2(self, i: int) -> float:
        """End value of bucket *i* (0-based)."""
        return self.bounds[i + 1]

    def b_val(self, i: int) -> int:
        """Number of attribute values in bucket *i*."""
        return self.counts[i]

    def b_no(self, value: float) -> int:
        """Bucket index that *value* belongs to, clamped to valid buckets."""
        if value <= self.bounds[0]:
            return 0
        if value >= self.bounds[-1]:
            return self.num_buckets - 1
        # rightmost bucket whose start is <= value
        index = bisect.bisect_right(self.bounds, value) - 1
        return min(index, self.num_buckets - 1)

    # -- estimation -------------------------------------------------------------

    @property
    def total(self) -> int:
        return sum(self.counts)

    def values_below(self, value: float) -> float:
        """Estimated number of column values strictly below *value*.

        Sums full preceding buckets and linearly interpolates within the
        bucket containing *value* — the paper's ``StartBefore`` shape.
        """
        if value <= self.bounds[0]:
            return 0.0
        if value >= self.bounds[-1]:
            return float(self.total)
        bucket = self.b_no(value)
        below = float(sum(self.counts[:bucket]))
        width = self.b2(bucket) - self.b1(bucket)
        if width <= 0:
            return below
        fraction = (value - self.b1(bucket)) / width
        return below + fraction * self.b_val(bucket)

    def selectivity_below(self, value: float) -> float:
        """``values_below`` normalized to [0, 1]."""
        if self.total == 0:
            return 0.0
        return self.values_below(value) / self.total


def build_height_balanced(
    values: Sequence[float], num_buckets: int = 10, presorted: bool = False
) -> Histogram:
    """Build a height-balanced histogram (equal tuple count per bucket).

    This is what Oracle's ``ANALYZE ... COMPUTE STATISTICS`` produces and
    hence what the Statistics Collector finds in the catalog.  A bucket
    boundary is a *position* in the ascending values, so only the at most
    ``num_buckets + 1`` values that become bounds are converted to float;
    ``presorted`` declares that *values* already ascend (the catalog's
    sorted columns, DESIGN.md §20) and skips the sort.
    """
    if not values:
        raise StatisticsError("cannot build a histogram over no values")
    ordered = values if presorted else sorted(values)
    count = len(ordered)
    buckets = max(1, min(num_buckets, count))
    bounds: list[float] = [float(ordered[0])]
    counts: list[int] = []
    previous_index = 0
    for bucket in range(1, buckets + 1):
        boundary_index = round(bucket * count / buckets)
        boundary_index = max(boundary_index, previous_index + 1)
        boundary_index = min(boundary_index, count)
        upper = float(ordered[boundary_index - 1])
        if upper <= bounds[-1] and bucket < buckets:
            # Degenerate bucket (heavy duplicates); widen minimally so bounds
            # stay non-decreasing while counts remain exact.
            upper = bounds[-1]
        bounds.append(upper)
        counts.append(boundary_index - previous_index)
        previous_index = boundary_index
        if previous_index >= count:
            break
    return Histogram(tuple(bounds), tuple(counts))
