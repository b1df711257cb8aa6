"""Unit tests for the JDBC-flavoured connection/cursor layer."""

import pytest

from repro.dbms.database import MiniDB
from repro.dbms.jdbc import ROUND_TRIP_COST, Connection
from repro.errors import DatabaseError, TransientError
from repro.obs.metrics import MetricsRegistry
from repro.resilience import FaultInjector, FaultPolicy


@pytest.fixture
def connection():
    db = MiniDB()
    db.execute("CREATE TABLE T (K INT, V INT)")
    db.execute("INSERT INTO T VALUES " + ", ".join(f"({i}, {i * 10})" for i in range(25)))
    return Connection(db, prefetch=10)


class TestPreparedPlans:
    def test_a_select_is_planned_once_per_text_and_counted(self):
        db = MiniDB()
        db.execute("CREATE TABLE T (K INT, V INT)")
        db.execute("INSERT INTO T VALUES (1, 10), (2, 20), (3, 30)")
        metrics = MetricsRegistry()
        connection = Connection(db, metrics=metrics)
        sql = "SELECT V FROM T WHERE K >= ? AND V < ? ORDER BY V"
        first = connection.execute(sql, (2, 31))
        second = connection.execute(sql, (1, 20))
        assert first.fetchall() == [(20,), (30,)] and first.plan_hit is False
        assert second.fetchall() == [(10,)] and second.plan_hit is True
        assert metrics.value("dbms_prepared_misses") == 1
        assert metrics.value("dbms_prepared_hits") == 1
        # Not a SELECT: neither a hit nor a miss.
        assert connection.execute("ANALYZE TABLE T COMPUTE STATISTICS").plan_hit is None

    def test_a_repeated_select_is_parsed_once_and_bills_the_same(self, monkeypatch):
        from repro.dbms import database

        db = MiniDB()
        db.execute("CREATE TABLE T (K INT, V INT)")
        db.execute("INSERT INTO T VALUES (1, 10), (2, 20)")
        parsed = []
        parse = database.parse_statement
        monkeypatch.setattr(
            database, "parse_statement", lambda sql: parsed.append(sql) or parse(sql)
        )
        connection = Connection(db, prefetch=10)
        sql = "SELECT V FROM T WHERE K = 2 AND V > 1e-05"
        before = db.meter.snapshot()
        first = connection.execute(sql)
        assert first.fetchall() == [(20,)] and first.plan_hit is False
        cold = db.meter.snapshot() - before
        second = connection.execute(sql)
        assert second.fetchall() == [(20,)] and second.plan_hit is True
        # Parsing and preparing are free: both executions bill the same.
        assert db.meter.snapshot() - before - cold == cold
        # Not a SELECT: parsed each time it is sent, and never kept.
        for _ in range(2):
            connection.execute("ANALYZE TABLE T COMPUTE STATISTICS")
        assert parsed == [sql] + ["ANALYZE TABLE T COMPUTE STATISTICS"] * 2
        assert len(db.prepared) == 1

    def test_the_transfer_span_says_whether_the_plan_was_prepared(self):
        from repro.xxl.sources import SQLCursor

        db = MiniDB()
        db.execute("CREATE TABLE T (K INT, V VARCHAR(4))")
        db.execute("INSERT INTO T VALUES (1, 'x'), (2, 'it''s')")
        connection = Connection(db)
        seen = []
        for value, spelled in (("it's", "'it''s'"), ("x", "'x'")):
            cursor = SQLCursor(connection, "SELECT K FROM T WHERE V = ?", binds=(value,))
            cursor.init()
            measured = cursor.measurements()
            seen.append((measured["plan"], cursor.next_batch()))
            # The span and the Figure 5 line show the text, bind spelled in place.
            assert measured["sql"] == f"SELECT K FROM T WHERE V = {spelled}"
            assert cursor.detail() == f"Query: {measured['sql']}"
            cursor.close()
        assert seen == [("miss", [(2,)]), ("hit", [(1,)])]


class TestCursor:
    def test_fetchmany(self, connection):
        cursor = connection.execute("SELECT K FROM T ORDER BY K")
        assert cursor.fetchmany(4) == [(0,), (1,), (2,), (3,)]

    def test_fetchall(self, connection):
        cursor = connection.execute("SELECT K FROM T")
        assert len(cursor.fetchall()) == 25

    def test_no_result_set_raises(self, connection):
        cursor = connection.cursor()
        with pytest.raises(DatabaseError):
            cursor.fetchmany(1)

    def test_close(self, connection):
        cursor = connection.execute("SELECT K FROM T")
        cursor.close()
        with pytest.raises(DatabaseError):
            cursor.fetchmany(1)

    def test_close_is_idempotent_and_terminal(self, connection):
        cursor = connection.execute("SELECT K FROM T")
        cursor.fetchmany(1)
        cursor.close()
        cursor.close()  # idempotent
        assert cursor.closed
        with pytest.raises(DatabaseError):
            cursor.fetchmany(5)
        with pytest.raises(DatabaseError):
            cursor.execute("SELECT K FROM T")  # closed cursors stay closed

    def test_fetch_after_connection_close_raises(self, connection):
        cursor = connection.execute("SELECT K FROM T")
        cursor.fetchmany(1)
        connection.close()
        with pytest.raises(DatabaseError):
            cursor.fetchmany(1)
        with pytest.raises(DatabaseError):
            cursor.fetchmany(5)


class TestRoundTripAccounting:
    """Exactly ceil(rows / prefetch) round trips, 1 for an empty result."""

    def count_round_trips(self, db, sql, prefetch):
        metrics = MetricsRegistry()
        connection = Connection(db, prefetch=prefetch, metrics=metrics)
        connection.cursor().execute(sql).fetchall()
        return metrics.value("dbms_round_trips")

    def test_exact_multiple_of_prefetch(self, connection):
        # 25 rows at prefetch 5: exactly 5 round trips, no trailing empty one.
        assert (
            self.count_round_trips(connection.db, "SELECT K FROM T", prefetch=5) == 5
        )

    def test_non_multiple_of_prefetch(self, connection):
        assert (
            self.count_round_trips(connection.db, "SELECT K FROM T", prefetch=10) == 3
        )

    def test_empty_result_pays_one_round_trip(self, connection):
        assert (
            self.count_round_trips(
                connection.db, "SELECT K FROM T WHERE K < 0", prefetch=10
            )
            == 1
        )

    def test_single_batch_result(self, connection):
        assert (
            self.count_round_trips(connection.db, "SELECT K FROM T", prefetch=100) == 1
        )

    def test_fetchall_and_fetchmany_agree(self, connection):
        metrics = MetricsRegistry()
        fresh = Connection(connection.db, prefetch=5, metrics=metrics)
        fresh.cursor().execute("SELECT K FROM T").fetchall()
        by_fetchall = metrics.value("dbms_round_trips")
        rows = []
        cursor = fresh.cursor().execute("SELECT K FROM T")
        while True:
            batch = cursor.fetchmany(7)
            if not batch:
                break
            rows.extend(batch)
        assert metrics.value("dbms_round_trips") - by_fetchall == by_fetchall
        assert len(rows) == 25


class TestFaultInjection:
    def test_transient_fault_on_round_trip(self, connection):
        injector = FaultInjector(FaultPolicy(round_trip_p=1.0), seed=0)
        chaotic = Connection(connection.db, prefetch=5, injector=injector)
        cursor = chaotic.cursor().execute("SELECT K FROM T")
        with pytest.raises(TransientError):
            cursor.fetchmany(1)
        assert injector.faults_injected == 1

    def test_fetchmany_reserves_rows_after_mid_call_fault(self, connection):
        # A fetchmany that faults after collecting rows from the buffer
        # must re-serve those rows on the retried call, in order.
        injector = FaultInjector(FaultPolicy(), seed=0)
        chaotic = Connection(connection.db, prefetch=5, injector=injector)
        cursor = chaotic.cursor().execute("SELECT K FROM T ORDER BY K")
        assert cursor.fetchmany(1) == [(0,)]  # buffer now holds rows 1..4
        injector.policy = FaultPolicy(round_trip_p=1.0)
        with pytest.raises(TransientError):
            cursor.fetchmany(8)  # takes rows 1..4, then the refill faults
        injector.policy = FaultPolicy()
        rows = cursor.fetchmany(8)
        assert [row[0] for row in rows] == [1, 2, 3, 4, 5, 6, 7, 8]
        assert [row[0] for row in cursor.fetchall()] == list(range(9, 25))

    def test_execute_fault(self, connection):
        injector = FaultInjector(FaultPolicy(execute_p=1.0), seed=0)
        chaotic = Connection(connection.db, injector=injector)
        with pytest.raises(TransientError):
            chaotic.execute("SELECT K FROM T")

    def test_load_chunk_fault(self, connection):
        from repro.algebra.schema import Attribute, Schema

        injector = FaultInjector(FaultPolicy(load_chunk_p=1.0), seed=0)
        chaotic = Connection(connection.db, injector=injector)
        with pytest.raises(TransientError):
            chaotic.executemany("TMP_FAULTY", Schema([Attribute("X")]), [(1,)])
        # The faulted chunk loaded nothing and created nothing.
        assert not connection.db.has_table("TMP_FAULTY")


class TestPrefetch:
    def test_round_trips_charged_per_batch(self, connection):
        meter = connection.db.meter
        meter.reset()
        connection.cursor(prefetch=5).execute("SELECT K FROM T").fetchall()
        five_cpu = meter.cpu
        meter.reset()
        connection.cursor(prefetch=25).execute("SELECT K FROM T").fetchall()
        twentyfive_cpu = meter.cpu
        # Smaller prefetch means more round trips, so more transfer CPU.
        assert five_cpu - twentyfive_cpu >= 3 * ROUND_TRIP_COST

    def test_prefetch_floor_is_one(self, connection):
        cursor = connection.cursor(prefetch=0)
        assert cursor.prefetch == 1


class TestConnectionHelpers:
    def test_bulk_load_and_drop(self, connection):
        from repro.algebra.schema import Attribute, Schema

        schema = Schema([Attribute("X")])
        loaded = connection.executemany("TMP", schema, [(1,), (2,)])
        assert loaded == 2
        assert connection.db.table("TMP").cardinality == 2
        connection.drop_temp("TMP")
        assert not connection.db.has_table("TMP")
