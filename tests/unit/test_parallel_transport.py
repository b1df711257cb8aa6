"""Unit tests for the parallel transport pieces at the DBMS boundary: the
connection pool, pooled transfer cursors, per-cursor round-trip
accounting, and wire latency as the pool's fault injector sleeps it."""

import math
import threading
import time

import pytest

from repro.dbms.database import MiniDB
from repro.dbms.jdbc import Connection, ConnectionPool
from repro.errors import DatabaseError
from repro.obs.metrics import MetricsRegistry
from repro.resilience import FaultInjector, FaultPolicy
from repro.xxl.sources import PooledSQLCursor, SQLCursor

ROWS = 25


@pytest.fixture
def db():
    instance = MiniDB()
    instance.execute("CREATE TABLE NUMS (N INT)")
    values = ", ".join(f"({n})" for n in range(ROWS))
    instance.execute(f"INSERT INTO NUMS VALUES {values}")
    return instance


class TestConnectionPool:
    def test_acquire_creates_then_reuses(self, db):
        pool = ConnectionPool(db, size=2)
        first = pool.acquire()
        pool.release(first)
        assert pool.acquire() is first

    def test_overflow_connections_closed_on_release(self, db):
        pool = ConnectionPool(db, size=2)
        connections = [pool.acquire() for _ in range(3)]  # burst past size
        for connection in connections:
            pool.release(connection)
        parked = sum(1 for c in connections if not c.closed)
        assert parked == 2
        assert sum(1 for c in connections if c.closed) == 1

    def test_acquire_after_close_raises(self, db):
        pool = ConnectionPool(db, size=1)
        pool.close()
        with pytest.raises(DatabaseError):
            pool.acquire()

    def test_close_closes_idle_and_late_releases(self, db):
        pool = ConnectionPool(db, size=2)
        idle = pool.acquire()
        held = pool.acquire()
        pool.release(idle)
        pool.close()
        assert idle.closed
        pool.release(held)  # released after close: closed, not parked
        assert held.closed

    def test_pool_propagates_shared_accounting(self, db):
        metrics = MetricsRegistry()
        pool = ConnectionPool(db, size=1, metrics=metrics)
        connection = pool.acquire()
        rows = connection.cursor().execute("SELECT N FROM NUMS").fetchall()
        assert len(rows) == ROWS
        assert metrics.value("dbms_round_trips") > 0


class TestRoundTripAccounting:
    def test_cursor_round_trips_match_prefetch_math(self, db):
        connection = Connection(db, prefetch=10)
        cursor = SQLCursor(connection, "SELECT N FROM NUMS")
        rows = [row for row in cursor.init()]
        assert len(rows) == ROWS
        assert cursor.round_trips == math.ceil(ROWS / 10)

    def test_round_trips_survive_close(self, db):
        connection = Connection(db, prefetch=10)
        cursor = SQLCursor(connection, "SELECT N FROM NUMS")
        cursor.init()
        while cursor.next_batch(64):
            pass
        cursor.close()
        assert cursor.round_trips == math.ceil(ROWS / 10)

    def test_concurrent_pooled_cursors_account_independently(self, db):
        pool = ConnectionPool(db, size=2, prefetch=10)
        first = PooledSQLCursor(pool, "SELECT N FROM NUMS").init()
        second = PooledSQLCursor(pool, "SELECT N FROM NUMS WHERE N < 5").init()
        # Interleave the drains: accounting must stay per-cursor.
        while first.next_batch(7) or second.next_batch(7):
            pass
        first.close()
        second.close()
        assert first.round_trips == math.ceil(ROWS / 10)
        assert second.round_trips == 1

    def test_pooled_cursor_returns_its_connection(self, db):
        pool = ConnectionPool(db, size=1)
        cursor = PooledSQLCursor(pool, "SELECT N FROM NUMS").init()
        held = cursor._connection
        assert held is not None
        cursor.close()
        assert pool.acquire() is held  # parked again, not leaked

    def test_failed_open_releases_the_connection(self, db):
        pool = ConnectionPool(db, size=1)
        cursor = PooledSQLCursor(pool, "SELECT N FROM NO_SUCH_TABLE")
        with pytest.raises(DatabaseError):
            cursor.init()
        assert cursor._connection is None
        assert len(pool._idle) == 1  # back in the pool despite the failure


def wire(latency: float, sleep=time.sleep) -> FaultInjector:
    """A remote DBMS's wire: every DBMS call sleeps *latency* first."""
    return FaultInjector(FaultPolicy(latency_p=1.0, latency_seconds=latency), sleep=sleep)


class TestWireLatency:
    def test_latency_defaults_to_zero_and_never_sleeps(self, db):
        def forbidden(_seconds):
            raise AssertionError("latency sleep fired with latency disabled")

        connection = Connection(db, injector=FaultInjector(FaultPolicy(), sleep=forbidden))
        rows = connection.cursor().execute("SELECT N FROM NUMS").fetchall()
        assert len(rows) == ROWS

    def test_latency_is_paid_per_round_trip(self, db):
        slept: list[float] = []
        connection = Connection(db, prefetch=10, injector=wire(0.005, slept.append))
        rows = [row for row in SQLCursor(connection, "SELECT N FROM NUMS").init()]
        assert len(rows) == ROWS
        # execute + ceil(25/10) fetch refills, one latency each.
        assert slept == [0.005] * (1 + math.ceil(ROWS / 10))

    def test_pool_stamps_latency_onto_connections(self, db):
        injector = wire(0.25)
        pool = ConnectionPool(db, size=1, injector=injector)
        assert pool.acquire().injector is injector

    def test_concurrent_latency_sleeps_overlap(self, db):
        # The injector sleeps outside its lock, and the sleep releases the
        # GIL: two pooled connections sharing one injector, waiting on the
        # wire in parallel, take ~one latency, not two.  This is the
        # property the exchange's speedup rests on.
        pool = ConnectionPool(db, size=2, injector=wire(0.05))
        connections = [pool.acquire(), pool.acquire()]

        def pull(connection):
            connection.cursor().execute("SELECT N FROM NUMS").fetchall()

        begin = time.perf_counter()
        pull(connections[0])
        single = time.perf_counter() - begin

        threads = [
            threading.Thread(target=pull, args=(c,)) for c in connections
        ]
        begin = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - begin
        # Back-to-back the two pulls would take ~2x single; overlapped they
        # take ~1x.  1.6x splits the difference with room for scheduler
        # noise.
        assert elapsed < 1.6 * single
