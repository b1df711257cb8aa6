"""Unit tests for execution-plan compilation and the Execution Engine."""

import pytest

from repro.algebra.builder import scan
from repro.algebra.expressions import Comparison, col, lit
from repro.algebra.schema import Attribute, Schema
from repro.core.engine import ExecutionEngine
from repro.core.plans import ExecutionPlan, compile_plan
from repro.dbms.jdbc import Connection
from repro.errors import DatabaseError, ExecutionError, PlanError
from repro.xxl.cursor import GeneratorCursor
from repro.xxl.sources import RelationCursor, SQLCursor
from repro.xxl.transfer import TransferDCursor


@pytest.fixture
def connection(figure3_db):
    return Connection(figure3_db)


def figure3_plan(db):
    """Figure 4(b): sort in DBMS, TAGGR^M, T^D, temporal join in DBMS."""
    aggregated = (
        scan(db, "POSITION")
        .project("PosID", "T1", "T2")
        .sort("PosID", "T1")
        .to_middleware()
        .taggr(group_by=["PosID"], count="PosID")
    )
    return (
        aggregated.to_dbms()
        .temporal_join(
            scan(db, "POSITION").project("PosID", "EmpName", "T1", "T2"),
            "PosID",
            "PosID",
        )
        .project("PosID", "EmpName", "T1", "T2", "COUNTofPosID")
        .sort("PosID")
        .to_middleware()
        .build()
    )


class TestCompilePlan:
    def test_simple_transfer(self, figure3_db, connection):
        plan = scan(figure3_db, "POSITION").to_middleware().build()
        execution = compile_plan(plan, connection)
        assert len(execution.steps) == 1
        assert isinstance(execution.output, SQLCursor)

    def test_dbms_root_rejected(self, figure3_db, connection):
        plan = scan(figure3_db, "POSITION").build()
        with pytest.raises(PlanError):
            compile_plan(plan, connection)

    def test_figure5_step_sequence(self, figure3_db, connection):
        execution = compile_plan(figure3_plan(figure3_db), connection)
        kinds = [type(step).__name__ for step in execution.steps]
        # TRANSFER^D must be initialized before the final TRANSFER^M.
        assert kinds == ["TransferDCursor", "SQLCursor"]

    def test_describe_mentions_transfers(self, figure3_db, connection):
        execution = compile_plan(figure3_plan(figure3_db), connection)
        description = execution.describe()
        assert "TRANSFER^D" in description
        assert "TRANSFER^M" in description

    def test_middleware_pipeline_compiles_cursors(self, figure3_db, connection):
        plan = (
            scan(figure3_db, "POSITION")
            .to_middleware()
            .select(Comparison("=", col("PosID"), lit(1)))
            .sort("T1")
            .build()
        )
        execution = compile_plan(plan, connection)
        rows = ExecutionEngine().execute(execution).rows
        assert [row[2] for row in rows] == [2, 5]


class TestExecutionEngine:
    def test_full_figure3_query(self, figure3_db, connection):
        execution = compile_plan(figure3_plan(figure3_db), connection)
        outcome = ExecutionEngine().execute(execution)
        expected = [
            (1, "Tom", 2, 5, 1),
            (1, "Tom", 5, 20, 2),
            (1, "Jane", 5, 20, 2),
            (1, "Jane", 20, 25, 1),
            (2, "Tom", 5, 10, 1),
        ]
        assert sorted(outcome.rows) == sorted(expected)

    def test_temp_tables_cleaned_up(self, figure3_db, connection):
        tables_before = set(figure3_db.list_tables())
        execution = compile_plan(figure3_plan(figure3_db), connection)
        ExecutionEngine().execute(execution)
        assert set(figure3_db.list_tables()) == tables_before

    def test_outcome_metadata(self, figure3_db, connection):
        plan = scan(figure3_db, "POSITION").to_middleware().build()
        outcome = ExecutionEngine().execute(compile_plan(plan, connection))
        assert outcome.schema.names == ("PosID", "EmpName", "T1", "T2")
        assert outcome.elapsed_seconds >= 0
        assert outcome.steps == 1
        assert len(outcome) == 3

    def test_transfer_d_order_recorded(self, figure3_db, connection):
        execution = compile_plan(figure3_plan(figure3_db), connection)
        transfer = execution.transfers_down[0]
        transfer_step = next(
            step for step in execution.steps if isinstance(step, TransferDCursor)
        )
        assert transfer is transfer_step
        # Read the loaded temp table's order at teardown, just before its drop.
        orders = []
        drop = transfer.drop

        def recording_drop():
            orders.append(connection.db.table(transfer.table_name).clustered_order)
            drop()

        transfer.drop = recording_drop
        ExecutionEngine().execute(execution)
        assert orders == [("PosID", "T1")]


class TestTeardownOnFailure:
    """A mid-query failure must never leave TANGO_TMP* tables behind."""

    @staticmethod
    def make_transfer_down(connection):
        schema = Schema([Attribute("X")])
        return TransferDCursor(
            RelationCursor(schema, [(1,), (2,), (3,)]), connection
        )

    def test_failure_during_drain_drops_temp_tables(self, figure3_db, connection):
        class ExplodingCursor(GeneratorCursor):
            def _generate(self):
                yield (1,)
                raise ExecutionError("mid-query failure")

        tables_before = set(figure3_db.list_tables())
        transfer = self.make_transfer_down(connection)
        plan = ExecutionPlan(
            steps=[transfer, ExplodingCursor(Schema([Attribute("X")]))],
            transfers_down=[transfer],
        )
        with pytest.raises(ExecutionError, match="mid-query failure"):
            ExecutionEngine().execute(plan)
        assert set(figure3_db.list_tables()) == tables_before

    def test_failure_during_init_drops_temp_tables(self, figure3_db, connection):
        tables_before = set(figure3_db.list_tables())
        transfer = self.make_transfer_down(connection)
        # The second step's SQL is invalid: init() raises after the
        # TRANSFER^D step has already materialized its table.
        bad = SQLCursor(connection, "SELECT * FROM NO_SUCH_TABLE")
        plan = ExecutionPlan(steps=[transfer, bad], transfers_down=[transfer])
        with pytest.raises(DatabaseError):
            ExecutionEngine().execute(plan)
        assert set(figure3_db.list_tables()) == tables_before

    def test_drop_is_idempotent(self, connection):
        transfer = self.make_transfer_down(connection)
        transfer.init()
        transfer.drop()
        transfer.drop()  # second drop is a no-op, not an error
