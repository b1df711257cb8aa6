"""Unit tests for the batched cursor protocol (``next_batch``).

The key invariant (the former lookahead-dropping bug): rows buffered by
``has_next()`` — or parked by a native ``_next_batch`` that overshot — are
*always* served first, whatever mix of ``next()`` / ``next_batch()`` /
iteration consumes the cursor afterwards.
"""

import pytest

from repro.algebra.expressions import BinOp, Comparison, col, lit
from repro.algebra.schema import Attribute, Schema
from repro.xxl.cursor import (
    BatchReader,
    Cursor,
    BATCH_SIZE,
    GeneratorCursor,
    materialize,
)
from repro.xxl.dedup import DedupCursor
from repro.xxl.filter import FilterCursor
from repro.xxl.project import ProjectCursor
from repro.xxl.sources import RelationCursor
from tests.conftest import IterableCursor

SCHEMA = Schema([Attribute("X")])

ROWS = [(i,) for i in range(10)]


def relation(rows=ROWS):
    return RelationCursor(SCHEMA, rows)


class FallbackCursor(GeneratorCursor):
    """A cursor providing only ``_generate`` — the pull hook is the one
    :class:`GeneratorCursor` supplies."""

    def __init__(self, rows):
        super().__init__(SCHEMA)
        self._rows = rows

    def _generate(self):
        yield from self._rows


class TestNextBatch:
    def test_batches_partition_the_stream(self):
        cursor = relation()
        assert cursor.next_batch(4) == ROWS[:4]
        assert cursor.next_batch(4) == ROWS[4:8]
        assert cursor.next_batch(4) == ROWS[8:]
        assert cursor.next_batch(4) == []

    def test_non_positive_n_returns_empty(self):
        cursor = relation()
        assert cursor.next_batch(0) == []
        assert cursor.next_batch(-3) == []
        assert cursor.next() == (0,)  # nothing consumed

    def test_oversized_batch_returns_everything(self):
        assert relation().next_batch(1000) == ROWS

    def test_default_fallback_matches_native(self):
        assert FallbackCursor(ROWS).next_batch(4) == ROWS[:4]
        cursor = FallbackCursor(ROWS)
        assert cursor.next_batch(100) == ROWS
        assert cursor.next_batch(1) == []

    def test_rows_and_batches_counters(self):
        cursor = relation()
        cursor.next_batch(4)
        cursor.next_batch(4)
        cursor.next_batch(4)
        assert cursor.rows_produced == 10
        assert cursor.batches_produced == 3  # the empty tail batch not counted

    def test_iter_batched(self):
        cursor = relation()
        assert list(cursor.iter_batched(3)) == ROWS
        assert cursor.batches_produced == 4

    def test_default_batch_size_is_class_attribute(self):
        assert Cursor.batch_size == BATCH_SIZE == 256


class TestProtocolMixing:
    """Regression tests: buffered lookahead rows are never dropped."""

    def test_has_next_then_next_batch(self):
        cursor = relation()
        assert cursor.has_next()  # buffers (0,)
        assert cursor.next_batch(3) == ROWS[:3]

    def test_has_next_then_batch_then_next(self):
        cursor = relation()
        assert cursor.has_next()
        assert cursor.next_batch(2) == ROWS[:2]
        assert cursor.next() == (2,)
        assert cursor.has_next()
        assert cursor.next_batch(100) == ROWS[3:]
        assert not cursor.has_next()

    def test_repeated_has_next_buffers_one_row_only(self):
        cursor = relation()
        for _ in range(5):
            assert cursor.has_next()
        assert cursor.next_batch(100) == ROWS

    def test_mixing_on_fallback_cursor(self):
        cursor = FallbackCursor(ROWS)
        assert cursor.has_next()
        assert cursor.next_batch(4) == ROWS[:4]
        assert cursor.next() == (4,)
        assert list(cursor) == ROWS[5:]

    def test_filter_overshoot_parks_surplus(self):
        # FilterCursor pulls input batches larger than n; the surplus must
        # surface in order on whichever call comes next.
        cursor = FilterCursor(relation(), Comparison(">", col("X"), lit(3)))
        assert cursor.next_batch(2) == [(4,), (5,)]
        assert cursor.next() == (6,)
        assert cursor.next_batch(10) == [(7,), (8,), (9,)]

    def test_row_pull_over_an_overshooting_filter_keeps_order(self):
        # The look-ahead re-buffering regression: has_next() pulls one row
        # through a hook that parks its surplus in the same buffer — the
        # pulled row must land in front of the surplus, not behind it.
        cursor = FilterCursor(relation(), Comparison(">=", col("X"), lit(0)))
        cursor.batch_size = 4
        first = cursor.next()
        assert [first] + cursor.next_batch(100) == ROWS

    def test_iteration_over_an_overshooting_dedup_keeps_order(self):
        cursor = DedupCursor(relation([(i // 2,) for i in range(20)]))
        cursor.batch_size = 8
        assert list(cursor) == ROWS

    def test_project_batches(self):
        cursor = ProjectCursor(relation(), [("Y", BinOp("*", col("X"), lit(10)))])
        assert cursor.next_batch(3) == [(0,), (10,), (20,)]
        assert cursor.has_next()
        assert materialize(cursor) == [(i * 10,) for i in range(3, 10)]

    def test_iterable_cursor_batches(self):
        cursor = IterableCursor(SCHEMA, ((i,) for i in range(5)))
        assert cursor.has_next()
        assert cursor.next_batch(3) == [(0,), (1,), (2,)]
        assert cursor.next_batch(3) == [(3,), (4,)]


class TestBatchReader:
    def test_reads_rows_then_none(self):
        reader = BatchReader(relation([(1,), (2,), (3,)]).init(), 2)
        assert [reader.read(), reader.read(), reader.read()] == [(1,), (2,), (3,)]
        assert reader.read() is None
        assert reader.read() is None

    def test_empty_cursor(self):
        assert BatchReader(relation([]).init(), 4).read() is None
