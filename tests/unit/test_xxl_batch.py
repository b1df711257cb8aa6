"""Unit tests for the batched cursor protocol (``next_batch()``).

``next_batch()`` takes no size: a source or generator hands out
``batch_size`` rows, every other operator its natural unit, and ``[]``
only once the cursor is drained — then on every later call.
"""

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
        cursor.batch_size = 4
        assert cursor.next_batch() == ROWS[:4]
        assert cursor.next_batch() == ROWS[4:8]
        assert cursor.next_batch() == ROWS[8:]
        assert cursor.next_batch() == []

    def test_a_drained_cursor_keeps_returning_empty(self):
        cursor = FallbackCursor(ROWS)
        assert cursor.next_batch() == ROWS
        assert [cursor.next_batch() for _ in range(3)] == [[], [], []]
        assert cursor.batches_produced == 1

    def test_oversized_batch_returns_everything(self):
        assert relation().next_batch() == ROWS

    def test_default_fallback_matches_native(self):
        cursor = FallbackCursor(ROWS)
        cursor.batch_size = 4
        assert cursor.next_batch() == ROWS[:4]
        cursor = FallbackCursor(ROWS)
        assert cursor.next_batch() == ROWS
        assert cursor.next_batch() == []

    def test_rows_and_batches_counters(self):
        cursor = relation()
        cursor.batch_size = 4
        for _ in range(4):
            cursor.next_batch()
        assert cursor.rows_produced == 10
        assert cursor.batches_produced == 3  # the empty tail batch not counted

    def test_iter_batched(self):
        cursor = relation()
        cursor.batch_size = 3
        assert list(cursor.iter_batched()) == ROWS
        assert cursor.batches_produced == 4

    def test_default_batch_size_is_class_attribute(self):
        assert Cursor.batch_size == BATCH_SIZE == 256


def source(batch_size, rows=ROWS):
    cursor = relation(rows)
    cursor.batch_size = batch_size
    return cursor


class TestProtocolMixing:
    """What an operator's ``next_batch()`` returns, batch by batch."""

    def test_filter_returns_what_each_input_batch_leaves(self):
        cursor = FilterCursor(source(4), Comparison(">", col("X"), lit(2)))
        assert cursor.next_batch() == [(3,)]
        assert cursor.next_batch() == [(4,), (5,), (6,), (7,)]
        assert cursor.next_batch() == [(8,), (9,)]
        assert cursor.next_batch() == []

    def test_filter_never_returns_empty_before_its_input_drains(self):
        # Four input batches leave nothing; the fifth leaves one row.
        cursor = FilterCursor(source(2), Comparison("=", col("X"), lit(9)))
        assert cursor.next_batch() == [(9,)]
        assert cursor.next_batch() == []

    def test_iteration_over_an_overshooting_dedup_keeps_order(self):
        cursor = DedupCursor(source(8, [(i // 2,) for i in range(20)]))
        assert list(cursor.iter_batched()) == ROWS

    def test_project_batches(self):
        cursor = ProjectCursor(source(3), [("Y", BinOp("*", col("X"), lit(10)))])
        assert cursor.next_batch() == [(0,), (10,), (20,)]
        assert materialize(cursor) == [(i * 10,) for i in range(3, 10)]

    def test_iterable_cursor_batches(self):
        cursor = IterableCursor(SCHEMA, ((i,) for i in range(5)))
        cursor.batch_size = 3
        assert cursor.next_batch() == [(0,), (1,), (2,)]
        assert cursor.next_batch() == [(3,), (4,)]


class TestBatchReader:
    def test_reads_rows_then_none(self):
        reader = BatchReader(source(2, [(1,), (2,), (3,)]).init())
        assert [reader.read(), reader.read(), reader.read()] == [(1,), (2,), (3,)]
        assert reader.read() is None
        assert reader.read() is None

    def test_empty_cursor(self):
        assert BatchReader(relation([]).init()).read() is None
