"""Unit tests for the fluent plan builder."""

import pytest

from repro.algebra.builder import PlanBuilder, scan
from repro.algebra.expressions import Comparison, col, lit
from repro.algebra.operators import (
    Join,
    Location,
    Project,
    Select,
    Sort,
    TemporalAggregate,
    TemporalJoin,
    TransferD,
    TransferM,
)


@pytest.fixture
def db(figure3_db):
    return figure3_db


class TestScan:
    def test_scan_reads_catalog(self, db):
        plan = scan(db, "POSITION").build()
        assert plan.table == "POSITION"
        assert plan.schema.names == ("PosID", "EmpName", "T1", "T2")


class TestChaining:
    def test_operators_default_to_current_location(self, db):
        plan = scan(db, "POSITION").select(Comparison("<", col("T1"), lit(5))).build()
        assert isinstance(plan, Select)
        assert plan.location is Location.DBMS

    def test_middleware_after_transfer(self, db):
        plan = (
            scan(db, "POSITION")
            .to_middleware()
            .select(Comparison("<", col("T1"), lit(5)))
            .build()
        )
        assert plan.location is Location.MIDDLEWARE
        assert isinstance(plan.input, TransferM)

    def test_to_middleware_idempotent(self, db):
        builder = scan(db, "POSITION").to_middleware()
        assert builder.to_middleware() is builder

    def test_to_dbms_inserts_transfer_d(self, db):
        plan = scan(db, "POSITION").to_middleware().to_dbms().build()
        assert isinstance(plan, TransferD)

    def test_to_dbms_noop_in_dbms(self, db):
        builder = scan(db, "POSITION")
        assert builder.to_dbms() is builder

    def test_project_names(self, db):
        plan = scan(db, "POSITION").project("PosID", "T1").build()
        assert isinstance(plan, Project)
        assert plan.schema.names == ("PosID", "T1")

    def test_sort(self, db):
        plan = scan(db, "POSITION").sort("PosID", "T1").build()
        assert isinstance(plan, Sort)
        assert plan.keys == ("PosID", "T1")

    def test_taggr_count_sugar(self, db):
        plan = scan(db, "POSITION").taggr(group_by=["PosID"], count="PosID").build()
        assert isinstance(plan, TemporalAggregate)
        assert plan.aggregates[0].output_name == "COUNTofPosID"

    def test_join_of_builders(self, db):
        left = scan(db, "POSITION")
        right = scan(db, "POSITION")
        plan = left.join(right, "PosID", "PosID").build()
        assert isinstance(plan, Join)

    def test_temporal_join(self, db):
        plan = (
            scan(db, "POSITION")
            .temporal_join(scan(db, "POSITION"), "PosID", "PosID")
            .build()
        )
        assert isinstance(plan, TemporalJoin)

    def test_builder_is_immutable(self, db):
        base = scan(db, "POSITION")
        sorted_builder = base.sort("PosID")
        assert base.build() is not sorted_builder.build()
        assert base.build().name == "Scan"
