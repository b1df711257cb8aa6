"""Concurrency coverage for :class:`repro.dbms.jdbc.ConnectionPool`.

The pool is the service layer's contention point: N worker Tangos take
their primary connections here while ``TRANSFER^M`` fan-out draws
overflow connections through the same door.  These tests drive it from
real threads — concurrent checkout/return, overflow past *size*, and leak
visibility when a holder dies without releasing.
"""

from __future__ import annotations

import threading

import pytest

from repro.dbms.database import MiniDB
from repro.dbms.jdbc import Connection, ConnectionPool
from repro.errors import DatabaseError


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
        """A burst beyond size gets overflow connections, and releasing
        them shrinks back to size."""
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

    def test_retiring_a_dead_connection_frees_the_slot(self, db):
        """A connection closed mid-use and then released is not parked, so
        the next acquire gets a live one."""
        pool = ConnectionPool(db, size=1)
        connection = pool.acquire()
        connection.close()  # died mid-use
        pool.release(connection)  # holder returns the corpse
        assert pool.idle == 0
        replacement = pool.acquire()
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
