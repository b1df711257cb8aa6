"""``TRANSFER^D`` edge cases under failure: empty inputs, mid-load faults,
engine teardown, and drop idempotence under the fault injector."""

import pytest

from repro.algebra.schema import Attribute, Schema
from repro.core.engine import ExecutionEngine
from repro.core.plans import ExecutionPlan
from repro.dbms.database import MiniDB
from repro.dbms.jdbc import Connection
from repro.errors import RetryExhaustedError, TransientError
from repro.resilience import FaultInjector, FaultPolicy, RetryPolicy
from repro.resilience.retry import RetryState
from repro.xxl.transfer import TransferDCursor
from tests.conftest import IterableCursor


def no_sleep(_seconds):
    pass


SCHEMA = Schema([Attribute("K"), Attribute("V")])


def rows(n, start=0):
    return [(start + i, (start + i) * 10) for i in range(n)]


@pytest.fixture
def db():
    return MiniDB()


def make_transfer(db, data, injector=None, retry=None, batch_size=4):
    connection = Connection(db, injector=injector)
    transfer = TransferDCursor(IterableCursor(SCHEMA, data), connection, retry=retry)
    transfer.batch_size = batch_size  # rows per load chunk
    return transfer


class TestEmptyInput:
    def test_empty_input_still_creates_the_table(self, db):
        transfer = make_transfer(db, [])
        transfer.init()
        # Later TRANSFER^M SQL references the table by name, so it must
        # exist even with nothing to load.
        assert db.has_table(transfer.table_name)
        assert transfer.rows_loaded == 0
        transfer.drop()
        assert not db.has_table(transfer.table_name)

    def test_empty_input_under_engine_teardown(self, db):
        transfer = make_transfer(db, [])
        plan = ExecutionPlan(steps=[transfer], transfers_down=[transfer])
        outcome = ExecutionEngine().execute(plan)
        assert outcome.rows == []
        assert not db.has_table(transfer.table_name)


class TestMidLoadFailure:
    def test_failed_load_leaves_no_table_after_engine_teardown(self, db):
        injector = FaultInjector(FaultPolicy(load_chunk_p=1.0), seed=0)
        retry = RetryState(RetryPolicy(max_attempts=2, budget=2), sleep=no_sleep)
        transfer = make_transfer(db, rows(10), injector=injector, retry=retry)
        plan = ExecutionPlan(steps=[transfer], transfers_down=[transfer])
        before = set(db.list_tables())
        with pytest.raises(RetryExhaustedError):
            ExecutionEngine().execute(plan)
        # The engine's unconditional teardown dropped the half-created
        # table: no partially-registered TANGO_TMP remains.
        assert set(db.list_tables()) == before

    def test_failure_without_retry_policy_also_cleans_up(self, db):
        injector = FaultInjector(FaultPolicy(load_chunk_p=1.0), seed=0)
        transfer = make_transfer(db, rows(10), injector=injector)
        plan = ExecutionPlan(steps=[transfer], transfers_down=[transfer])
        with pytest.raises(TransientError):
            ExecutionEngine().execute(plan)
        assert not db.has_table(transfer.table_name)


class TestRetriedChunks:
    def test_retried_chunk_does_not_double_load(self, db):
        # Every chunk faults once, then succeeds: the table must still end
        # up with each row exactly once.
        class FaultEveryOther:
            def __init__(self):
                self.calls = 0
                self.metrics = None

            def before(self, op):
                if op != "load_chunk":
                    return
                self.calls += 1
                if self.calls % 2 == 1:
                    raise TransientError(f"flaky chunk (call {self.calls})")

        retry = RetryState(RetryPolicy(max_attempts=3, budget=32), sleep=no_sleep)
        data = rows(10)
        transfer = make_transfer(
            db, data, injector=FaultEveryOther(), retry=retry, batch_size=4
        )
        transfer.init()
        assert transfer.rows_loaded == 10
        assert transfer.retries == 3  # one per chunk: 4 + 4 + 2 rows
        assert sorted(db.table(transfer.table_name).rows) == sorted(data)
        transfer.drop()

    def test_create_temp_retried(self, db):
        class FaultFirstExecute:
            def __init__(self):
                self.failed = False
                self.metrics = None

            def before(self, op):
                if op == "execute" and not self.failed:
                    self.failed = True
                    raise TransientError("flaky DDL")

        retry = RetryState(RetryPolicy(max_attempts=3), sleep=no_sleep)
        transfer = make_transfer(
            db, rows(3), injector=FaultFirstExecute(), retry=retry
        )
        transfer.init()
        assert db.has_table(transfer.table_name)
        assert transfer.rows_loaded == 3
        transfer.drop()


class TestDropIdempotence:
    def test_drop_twice_is_a_noop(self, db):
        transfer = make_transfer(db, rows(3))
        transfer.init()
        transfer.drop()
        transfer.drop()
        assert not db.has_table(transfer.table_name)

    def test_drop_idempotent_under_fault_injector(self, db):
        # drop_temp is not an injection point — cleanup stays reliable
        # whatever the chaos policy says.
        injector = FaultInjector(FaultPolicy(), seed=0)
        transfer = make_transfer(db, rows(3), injector=injector)
        transfer.init()
        assert db.has_table(transfer.table_name)
        injector.policy = FaultPolicy(transient_p=1.0)
        transfer.drop()
        transfer.drop()
        assert not db.has_table(transfer.table_name)
        assert injector.faults_injected == 0

    def test_engine_teardown_after_manual_drop(self, db):
        transfer = make_transfer(db, rows(3))
        plan = ExecutionPlan(steps=[transfer], transfers_down=[transfer])
        outcome = ExecutionEngine().execute(plan)
        assert outcome.rows == []  # TRANSFER^D produces no rows itself
        transfer.drop()  # engine already dropped it; still a no-op
        assert not db.has_table(transfer.table_name)


class TestLoaderChunkAtomicity:
    def test_failed_chunk_rolls_back_its_prefix(self, db):
        connection = Connection(db)
        connection.create_temp("TMP_ATOMIC", SCHEMA)

        def poisoned():
            yield (1, 10)
            yield (2, 20)
            raise TransientError("source died mid-chunk")

        with pytest.raises(TransientError):
            connection.executemany("TMP_ATOMIC", SCHEMA, poisoned())
        assert db.table("TMP_ATOMIC").cardinality == 0
        # The rollback is a counted write like any other (DESIGN.md §20).
        assert db.table("TMP_ATOMIC").changes == 2
        connection.executemany("TMP_ATOMIC", SCHEMA, rows(2))
        assert db.table("TMP_ATOMIC").cardinality == 2
        connection.drop_temp("TMP_ATOMIC")