"""Unit tests for the cursor protocol (Figure 2's result-set model)."""

import pytest

from repro.algebra.schema import Attribute, Schema
from repro.errors import ExecutionError
from repro.xxl.cursor import Cursor, GeneratorCursor, materialize
from repro.xxl.sources import RelationCursor
from tests.conftest import IterableCursor

SCHEMA = Schema([Attribute("X")])


class TestProtocol:
    def test_init_is_idempotent(self):
        cursor = RelationCursor(SCHEMA, [(1,)])
        cursor.init()
        cursor.init()
        assert cursor.next_batch() == [(1,)]

    def test_next_batch_past_end_returns_empty(self):
        cursor = RelationCursor(SCHEMA, [])
        assert cursor.next_batch() == []
        assert cursor.next_batch() == []

    def test_iteration(self):
        cursor = RelationCursor(SCHEMA, [(1,), (2,)])
        assert list(cursor.iter_batched()) == [(1,), (2,)]

    def test_rows_produced_counter(self):
        cursor = RelationCursor(SCHEMA, [(1,), (2,)])
        list(cursor.iter_batched())
        assert cursor.rows_produced == 2

    def test_use_after_close_raises(self):
        cursor = RelationCursor(SCHEMA, [(1,)])
        cursor.close()
        with pytest.raises(ExecutionError):
            cursor.init()

    def test_context_manager(self):
        with RelationCursor(SCHEMA, [(1,)]) as cursor:
            assert cursor.next_batch() == [(1,)]

    def test_materialize(self):
        assert materialize(RelationCursor(SCHEMA, [(1,), (2,)])) == [(1,), (2,)]


class TestGeneratorCursor:
    def test_generator_subclass(self):
        class Doubler(GeneratorCursor):
            def _generate(self):
                for value in range(3):
                    yield (value * 2,)

        assert materialize(Doubler(SCHEMA)) == [(0,), (2,), (4,)]

    def test_iterable_cursor(self):
        cursor = IterableCursor(SCHEMA, ((i,) for i in range(3)))
        assert materialize(cursor) == [(0,), (1,), (2,)]
