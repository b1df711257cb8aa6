"""Unit tests for TAGGR^M — the two-sorted-copies temporal aggregation."""

import pytest

from repro.algebra.operators import AggregateSpec
from repro.algebra.schema import Attribute, AttrType, Schema
from repro.dbms.costmodel import CostMeter
from repro.errors import ExecutionError
from repro.xxl.cursor import materialize, walk
from repro.xxl.sources import RelationCursor
from repro.xxl.temporal_aggregate import TemporalAggregateCursor

SCHEMA = Schema(
    [
        Attribute("PosID", AttrType.INT),
        Attribute("Pay", AttrType.INT),
        Attribute("T1", AttrType.DATE),
        Attribute("T2", AttrType.DATE),
    ]
)


def taggr(rows, group_by=("PosID",), aggregates=None, meter=None):
    aggregates = aggregates or [AggregateSpec("COUNT", "PosID", "CNT")]
    return TemporalAggregateCursor(
        RelationCursor(SCHEMA, rows), group_by, aggregates, meter=meter
    )


class TestFigure3:
    ROWS = [
        (1, 0, 2, 20),   # Tom
        (1, 0, 5, 25),   # Jane
        (2, 0, 5, 10),   # Tom
    ]

    def test_counts_per_constant_interval(self):
        assert materialize(taggr(self.ROWS)) == [
            (1, 2, 5, 1),
            (1, 5, 20, 2),
            (1, 20, 25, 1),
            (2, 5, 10, 1),
        ]

    def test_output_schema(self):
        cursor = taggr(self.ROWS)
        cursor.init()
        assert cursor.schema.names == ("PosID", "T1", "T2", "CNT")

    def test_output_ordered_by_group_then_t1(self):
        rows = materialize(taggr(self.ROWS))
        assert rows == sorted(rows, key=lambda row: (row[0], row[1]))


class TestAggregateFunctions:
    ROWS = [
        (1, 10, 0, 10),
        (1, 30, 5, 15),
    ]

    def test_sum(self):
        rows = materialize(
            taggr(self.ROWS, aggregates=[AggregateSpec("SUM", "Pay", "S")])
        )
        assert rows == [(1, 0, 5, 10.0), (1, 5, 10, 40.0), (1, 10, 15, 30.0)]

    def test_avg(self):
        rows = materialize(
            taggr(self.ROWS, aggregates=[AggregateSpec("AVG", "Pay", "A")])
        )
        assert rows[1] == (1, 5, 10, 20.0)

    def test_min_max_sliding(self):
        rows = materialize(
            taggr(
                self.ROWS,
                aggregates=[
                    AggregateSpec("MIN", "Pay", "Lo"),
                    AggregateSpec("MAX", "Pay", "Hi"),
                ],
            )
        )
        assert rows == [
            (1, 0, 5, 10, 10),
            (1, 5, 10, 10, 30),
            (1, 10, 15, 30, 30),
        ]

    def test_count_of_attribute_skips_null_arguments(self):
        # COUNT(A) ignores NULLs, but a NULL-argument row is still a valid
        # tuple: its interval is emitted, with a count of 0 (SQL's COUNT
        # over a group whose every value is NULL).
        rows = [(1, None, 0, 10), (1, 7, 5, 15)]
        spec = [AggregateSpec("COUNT", "Pay", "N")]
        assert materialize(taggr(rows, aggregates=spec)) == [
            (1, 0, 5, 0),
            (1, 5, 10, 1),
            (1, 10, 15, 1),
        ]

    def test_null_arguments_follow_sql(self):
        # Every constant interval with a valid tuple is a row; COUNT(A)
        # counts the non-NULL values, the other aggregates are NULL when
        # all of them are NULL — group 2 included.
        rows = [(1, 5, 0, 10), (1, None, 2, 12), (1, 7, 3, 6), (2, None, 1, 4)]
        specs = [AggregateSpec("COUNT", "Pay", "N"), AggregateSpec("SUM", "Pay", "S")]
        assert materialize(taggr(rows, aggregates=specs)) == [
            (1, 0, 2, 1, 5.0),
            (1, 2, 3, 1, 5.0),
            (1, 3, 6, 2, 12.0),
            (1, 6, 10, 1, 5.0),
            (1, 10, 12, 0, None),
            (2, 1, 4, 0, None),
        ]

    def test_null_arguments_with_several_counts(self):
        rows = [(1, None, 0, 10), (1, 7, 5, 15)]
        specs = [AggregateSpec("COUNT", "Pay", "N"), AggregateSpec("COUNT", "PosID", "ALL")]
        assert materialize(taggr(rows, aggregates=specs)) == [
            (1, 0, 5, 0, 1),
            (1, 5, 10, 1, 2),
            (1, 10, 15, 1, 1),
        ]

    def test_multiple_aggregates_align(self):
        rows = materialize(
            taggr(
                self.ROWS,
                aggregates=[
                    AggregateSpec("COUNT", "Pay", "C"),
                    AggregateSpec("SUM", "Pay", "S"),
                ],
            )
        )
        assert rows[1] == (1, 5, 10, 2, 40.0)


class TestEdgeCases:
    def test_empty_input(self):
        assert materialize(taggr([])) == []

    def test_gap_between_periods(self):
        rows = materialize(taggr([(1, 0, 0, 3), (1, 0, 7, 9)]))
        assert rows == [(1, 0, 3, 1), (1, 7, 9, 1)]

    def test_zero_duration_tuple_contributes_nothing(self):
        # [5, 5) is valid at no instant, so the counts are unchanged; its
        # instant still splits [0, 10), as it does in TAGGR^D.
        rows = materialize(taggr([(1, 0, 0, 10), (1, 0, 5, 5)]))
        assert rows == [(1, 0, 5, 1), (1, 5, 10, 1)]

    def test_identical_periods_merge(self):
        rows = materialize(taggr([(1, 0, 0, 10), (1, 0, 0, 10)]))
        assert rows == [(1, 0, 10, 2)]

    def test_no_grouping_attributes(self):
        rows = materialize(taggr([(1, 0, 0, 10), (2, 0, 5, 15)], group_by=()))
        assert rows == [(0, 5, 1), (5, 10, 2), (10, 15, 1)]

    def test_multi_attribute_grouping(self):
        data = [(1, 7, 0, 10), (1, 8, 0, 10)]
        rows = materialize(taggr(data, group_by=("PosID", "Pay")))
        assert rows == [(1, 7, 0, 10, 1), (1, 8, 0, 10, 1)]

    def test_requires_aggregate(self):
        with pytest.raises(ExecutionError):
            TemporalAggregateCursor(RelationCursor(SCHEMA, []), ("PosID",), ())

    def test_unsorted_groups_detected(self):
        cursor = taggr([(2, 0, 0, 5), (1, 0, 0, 5)])
        with pytest.raises(ExecutionError):
            materialize(cursor)

    def test_unsorted_groups_error_surfaces_after_the_earlier_groups(self):
        # Error timing: group 1 is swept when key 3 arrives; key 2 < 3 then
        # aborts *before* group 3's results are emitted.
        cursor = taggr([(1, 0, 0, 5), (3, 0, 0, 5), (2, 0, 0, 5)]).init()
        cursor.batch_size = 1
        assert cursor.next_batch() == [(1, 0, 5, 1)]
        with pytest.raises(
            ExecutionError, match="not sorted on the grouping attributes"
        ):
            cursor.next_batch()

    def test_incomparable_group_keys_are_not_an_ordering_error(self):
        rows = materialize(taggr([(1, 0, 0, 5), ("x", 0, 0, 5)]))
        assert rows == [(1, 0, 5, 1), ("x", 0, 5, 1)]

    def test_meter_charged(self):
        meter = CostMeter()
        materialize(taggr([(1, 0, 0, 5), (1, 0, 2, 9)], meter=meter))
        assert meter.cpu > 0

    def test_result_cardinality_bound(self):
        # Section 3.4: |result| <= 2·|input| - 1 per group.
        rows = [(1, 0, i, i + 3) for i in range(0, 40, 2)]
        result = materialize(taggr(rows))
        assert len(result) <= 2 * len(rows) - 1


def swept(rows, batch_size, aggregates=None):
    """Rows and ``meter.cpu`` of TAGGR^M over *rows*, pulled *batch_size* at a time."""
    meter = CostMeter()
    cursor = taggr(rows, aggregates=aggregates, meter=meter)
    for member in walk([cursor]):
        member.batch_size = batch_size
    return materialize(cursor), meter.cpu


class TestMergeHazards:
    """The start copy is merged with a T2-sorted copy: what it must not trust."""

    VALID = [(1, 3, 0, 10), (1, 4, 2, 6), (1, 5, 4, 12), (2, 6, 1, 3)]
    SPECS = [AggregateSpec("COUNT", "Pay", "N"), AggregateSpec("MAX", "Pay", "M")]

    @pytest.mark.parametrize("batch_size", [1, 256])
    def test_null_t2_after_valid_rows_drops_only_that_row(self, batch_size):
        # The NULL row comes after rows that open intervals: the group is
        # swept again without it, and billed as if it had never been there.
        with_null = self.VALID[:3] + [(1, 9, 7, None)] + self.VALID[3:]
        assert swept(with_null, batch_size, self.SPECS) == swept(
            self.VALID, batch_size, self.SPECS
        )

    @pytest.mark.parametrize("batch_size", [1, 256])
    def test_rows_out_of_t1_order_within_a_group(self, batch_size):
        shuffled = [self.VALID[2], self.VALID[0], self.VALID[1], self.VALID[3]]
        assert swept(shuffled, batch_size, self.SPECS) == swept(
            self.VALID, batch_size, self.SPECS
        )

    def test_type_error_without_a_null_endpoint_propagates_once(self):
        class Unsummable:
            adds = 0

            def __float__(self):
                Unsummable.adds += 1
                assert Unsummable.adds == 1, "the TypeError was retried"
                raise TypeError("not a number")

        rows = [(1, 3, 0, 10), (1, Unsummable(), 2, 6)]
        with pytest.raises(TypeError, match="not a number"):
            swept(rows, 256, [AggregateSpec("SUM", "Pay", "S")])
        assert Unsummable.adds == 1
