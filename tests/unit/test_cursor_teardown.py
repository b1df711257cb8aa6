"""Teardown never leaks: a ``close()`` that raises still releases every
input and the pooled connection, never drops the first error, and is not
re-entered by a later ``close()`` (the engine's ``finally`` teardown)."""

import pytest

from repro.algebra.schema import Attribute, AttrType, Schema
from repro.dbms.database import MiniDB
from repro.dbms.jdbc import ConnectionPool
from repro.errors import ExecutionError
from repro.xxl import DedupCursor, DifferenceCursor, MergeJoinCursor, TemporalJoinCursor
from repro.xxl.sources import PooledSQLCursor, RelationCursor

SCHEMA = Schema(
    [
        Attribute("K", AttrType.INT),
        Attribute("T1", AttrType.DATE),
        Attribute("T2", AttrType.DATE),
    ]
)
ROWS = [(1, 0, 5), (2, 3, 9)]


class ClosingCursor(RelationCursor):
    """Counts ``_close()`` calls and optionally fails them."""

    def __init__(self, error: Exception | None = None):
        super().__init__(SCHEMA, ROWS)
        self.error = error
        self.close_calls = 0

    def _close(self) -> None:
        self.close_calls += 1
        if self.error is not None:
            raise self.error


BINARY = {
    "merge_join": lambda l, r: MergeJoinCursor(l, r, "K", "K"),
    "temporal_join": lambda l, r: TemporalJoinCursor(l, r, "K", "K"),
    "difference": lambda l, r: DifferenceCursor(l, r),
}


@pytest.mark.parametrize("name", list(BINARY))
def test_failing_left_close_still_closes_the_right_input(name):
    left = ClosingCursor(ValueError("left close failed"))
    right = ClosingCursor()
    cursor = BINARY[name](left, right).init()
    cursor.next_batch(1)
    with pytest.raises(ValueError, match="left close failed"):
        cursor.close()
    assert (left.close_calls, right.close_calls) == (1, 1)


@pytest.mark.parametrize("name", list(BINARY))
def test_two_failing_closes_chain_the_first_error(name):
    left = ClosingCursor(ValueError("left close failed"))
    right = ClosingCursor(KeyError("right close failed"))
    cursor = BINARY[name](left, right).init()
    with pytest.raises(KeyError) as raised:
        cursor.close()
    assert isinstance(raised.value.__context__, ValueError)
    assert (left.close_calls, right.close_calls) == (1, 1)


def test_second_close_after_a_failed_one_is_a_no_op():
    source = ClosingCursor(ValueError("close failed"))
    cursor = DedupCursor(source).init()
    with pytest.raises(ValueError):
        cursor.close()
    cursor.close()  # the engine's finally-teardown: must not re-run _close()
    assert source.close_calls == 1
    with pytest.raises(ExecutionError, match="is closed"):
        cursor.init()


def test_pooled_cursor_releases_connection_when_jdbc_close_raises():
    db = MiniDB()
    db.execute("CREATE TABLE R (K INT)")
    db.execute("INSERT INTO R VALUES (1), (2)")
    pool = ConnectionPool(db, size=2)
    cursor = PooledSQLCursor(pool, "SELECT K FROM R").init()
    assert cursor.next_batch(10) == [(1,), (2,)]
    assert pool.in_use == 1

    def failing_close():
        raise RuntimeError("jdbc close failed")

    cursor._cursor.close = failing_close
    with pytest.raises(RuntimeError, match="jdbc close failed"):
        cursor.close()
    assert pool.in_use == 0
    cursor.close()  # already closed: no second release, no second error
    assert pool.in_use == 0
