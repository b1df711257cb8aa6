"""Concurrency coverage for :class:`repro.dbms.jdbc.ConnectionPool`.

The pool is the service layer's contention point: N worker Tangos lease
their primary connections here while ``TRANSFER^M`` fan-out draws
overflow connections through the same door.  These tests drive it from
real threads — concurrent checkout/return, strict-mode exhaustion
(blocking until a release vs. :class:`~repro.errors.PoolTimeoutError`),
and leak visibility when a holder dies without releasing.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.dbms.database import MiniDB
from repro.dbms.jdbc import Connection, ConnectionPool
from repro.errors import DatabaseError, PoolTimeoutError


@pytest.fixture
def db():
    instance = MiniDB()
    instance.execute("CREATE TABLE T (K INTEGER)")
    instance.execute("INSERT INTO T VALUES (1), (2), (3)")
    return instance


class TestConcurrentCheckout:
    def test_concurrent_checkout_and_return(self, db):
        """Many threads hammering acquire/release: every connection works,
        nothing leaks, and the pool never parks more than *size* idle."""
        pool = ConnectionPool(db, size=4)
        errors: list[BaseException] = []

        def worker():
            try:
                for _ in range(25):
                    connection = pool.acquire()
                    try:
                        rows = connection.cursor().execute(
                            "SELECT K FROM T"
                        ).fetchall()
                        assert len(rows) == 3
                    finally:
                        pool.release(connection)
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert pool.in_use == 0
        assert pool.idle <= pool.size
        pool.close()

    def test_overflow_connections_are_retired_not_parked(self, db):
        """Default (non-strict) mode: a burst beyond size gets overflow
        connections, and releasing them shrinks back to size."""
        pool = ConnectionPool(db, size=2)
        held = [pool.acquire() for _ in range(5)]
        assert pool.in_use == 5
        for connection in held:
            pool.release(connection)
        assert pool.in_use == 0
        assert pool.idle == 2  # steady state, overflow closed
        pool.close()

    def test_release_after_close_closes_connection(self, db):
        pool = ConnectionPool(db, size=2)
        connection = pool.acquire()
        pool.close()
        pool.release(connection)
        assert connection.closed

    def test_acquire_after_close_raises(self, db):
        pool = ConnectionPool(db, size=1)
        pool.close()
        with pytest.raises(DatabaseError):
            pool.acquire()


class TestStrictMode:
    def test_exhaustion_blocks_until_release(self, db):
        """A strict pool at capacity parks the acquirer; a release from
        another thread un-blocks it with the freed connection."""
        pool = ConnectionPool(db, size=1, strict=True)
        first = pool.acquire()
        acquired = []

        def blocked_acquirer():
            connection = pool.acquire(timeout=5.0)
            acquired.append(connection)
            pool.release(connection)

        thread = threading.Thread(target=blocked_acquirer)
        thread.start()
        time.sleep(0.05)
        assert not acquired  # still parked: capacity is genuinely enforced
        pool.release(first)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert len(acquired) == 1
        pool.close()

    def test_exhaustion_times_out(self, db):
        pool = ConnectionPool(db, size=1, strict=True)
        held = pool.acquire()
        begin = time.monotonic()
        with pytest.raises(PoolTimeoutError) as exc:
            pool.acquire(timeout=0.05)
        assert time.monotonic() - begin >= 0.05
        # The error is diagnosable: it names the capacity and the holders.
        assert "size=1" in str(exc.value)
        assert "in_use=1" in str(exc.value)
        pool.release(held)
        pool.close()

    def test_strict_pool_never_exceeds_size(self, db):
        pool = ConnectionPool(db, size=3, strict=True)
        peak = 0
        peak_lock = threading.Lock()
        errors: list[BaseException] = []

        def worker():
            nonlocal peak
            try:
                for _ in range(10):
                    connection = pool.acquire(timeout=5.0)
                    try:
                        with peak_lock:
                            peak = max(peak, pool.in_use)
                        time.sleep(0.001)
                    finally:
                        pool.release(connection)
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert peak <= 3
        assert pool.in_use == 0
        pool.close()

    def test_retiring_a_dead_connection_frees_the_slot(self, db):
        """Closing (not releasing) a strict connection still returns its
        slot, so a broken connection cannot shrink capacity forever."""
        pool = ConnectionPool(db, size=1, strict=True)
        connection = pool.acquire()
        connection.close()  # died mid-use
        pool.release(connection)  # holder returns the corpse
        replacement = pool.acquire(timeout=1.0)  # slot is reusable
        assert not replacement.closed
        pool.release(replacement)
        pool.close()


class TestLeakDetection:
    def test_dead_holder_is_visible_as_in_use(self, db):
        """A thread that dies mid-checkout leaves the connection counted
        in ``in_use`` — the leak is observable, not silent."""
        pool = ConnectionPool(db, size=2)

        def doomed():
            pool.acquire()
            try:
                raise RuntimeError("query died without releasing")
            except RuntimeError:
                return  # the thread dies; the connection stays checked out

        thread = threading.Thread(target=doomed, daemon=True)
        thread.start()
        thread.join()
        assert pool.in_use == 1  # the leak shows up
        assert pool.idle == 0
        pool.close()

    def test_foreign_connection_release_is_harmless(self, db):
        """Releasing a connection the pool never issued must not corrupt
        the in_use accounting."""
        pool = ConnectionPool(db, size=2)
        foreign = Connection(db)
        pool.release(foreign)
        assert pool.in_use == 0
        assert pool.idle == 1  # adopted as idle capacity, within size
        pool.close()
