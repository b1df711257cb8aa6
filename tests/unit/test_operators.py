"""Unit tests for logical algebra operators and schema derivation."""

import pytest

from repro.algebra.expressions import Comparison, col, lit
from repro.algebra.operators import (
    AggregateSpec,
    Coalesce,
    Dedup,
    Difference,
    Join,
    Location,
    Product,
    Project,
    Scan,
    Select,
    Sort,
    TemporalAggregate,
    TemporalJoin,
    TransferD,
    TransferM,
)
from repro.algebra.builder import scan
from repro.algebra.properties import delivered_order, guaranteed_order
from repro.algebra.schema import Attribute, AttrType, Schema
from repro.dbms.database import MiniDB
from repro.errors import PlanError

POSITION = Schema(
    [
        Attribute("PosID", AttrType.INT),
        Attribute("EmpName", AttrType.STR, 16),
        Attribute("T1", AttrType.DATE),
        Attribute("T2", AttrType.DATE),
    ]
)


def position_scan() -> Scan:
    return Scan("POSITION", POSITION)


class TestAggregateSpec:
    def test_default_output_name(self):
        assert AggregateSpec("COUNT", "PosID").output_name == "COUNTofPosID"

    def test_count_star_output_name(self):
        assert AggregateSpec("COUNT").output_name == "COUNTofALL"

    def test_explicit_output(self):
        assert AggregateSpec("SUM", "PosID", "Total").output_name == "Total"

    def test_avg_type_is_float(self):
        assert AggregateSpec("AVG", "PosID").output_type(POSITION) is AttrType.FLOAT

    def test_unknown_function_rejected(self):
        with pytest.raises(PlanError):
            AggregateSpec("MEDIAN", "PosID")

    def test_non_count_requires_argument(self):
        with pytest.raises(PlanError):
            AggregateSpec("SUM")

    def test_to_sql(self):
        assert AggregateSpec("COUNT").to_sql() == "COUNT(*)"
        assert AggregateSpec("MIN", "T1").to_sql() == "MIN(T1)"


class TestScan:
    def test_location_is_dbms(self):
        assert position_scan().location is Location.DBMS

    def test_cannot_relocate(self):
        with pytest.raises(PlanError):
            position_scan().located(Location.MIDDLEWARE)

    def test_schema_passthrough(self):
        assert position_scan().schema == POSITION

    def test_clustered_order(self):
        # How the table is clustered is the DBMS's business: the scan built
        # over it is the scan of any other table, and delivers no order.
        db = MiniDB()
        db.create_table("POSITION", POSITION).bulk_load([(1, "Tom", 2, 20)], order=("PosID",))
        assert db.table("POSITION").clustered_order == ("PosID",)
        assert scan(db, "POSITION").build() == position_scan()
        assert guaranteed_order(position_scan()) == ()


class TestSelectAndProject:
    def test_select_schema_unchanged(self):
        select = Select(position_scan(), Location.DBMS, Comparison("<", col("T1"), lit(5)))
        assert select.schema == POSITION

    def test_select_unknown_attribute_rejected(self):
        select = Select(position_scan(), Location.DBMS, Comparison("<", col("Bogus"), lit(5)))
        with pytest.raises(PlanError):
            __ = select.schema

    def test_select_requires_predicate(self):
        with pytest.raises(PlanError):
            Select(position_scan(), Location.DBMS, None)

    def test_project_of_columns(self):
        project = Project.of_columns(position_scan(), ["PosID", "T1"])
        assert project.schema.names == ("PosID", "T1")
        assert project.is_simple()

    def test_project_expression_output(self):
        project = Project(
            position_scan(),
            Location.DBMS,
            (("Double", col("PosID")), ("Sum", lit(1))),
        )
        assert project.schema.names == ("Double", "Sum")
        assert not project.is_simple()

    def test_project_empty_rejected(self):
        with pytest.raises(PlanError):
            Project(position_scan(), Location.DBMS, ())

    def test_project_order_survives_prefix(self):
        sort = Sort(TransferM(position_scan()), Location.MIDDLEWARE, ("PosID", "T1"))
        project = Project.of_columns(sort, ["PosID", "EmpName"], Location.MIDDLEWARE)
        assert guaranteed_order(project) == ("PosID",)


class TestSort:
    def test_order_is_keys(self):
        sort = Sort(position_scan(), Location.DBMS, ("PosID", "T1"))
        assert guaranteed_order(sort) == ("PosID", "T1")

    def test_unknown_key_rejected(self):
        sort = Sort(position_scan(), Location.DBMS, ("Nope",))
        with pytest.raises(PlanError):
            __ = sort.schema

    def test_empty_keys_rejected(self):
        with pytest.raises(PlanError):
            Sort(position_scan(), Location.DBMS, ())


class TestJoins:
    def test_join_schema_concat(self):
        join = Join(position_scan(), position_scan(), Location.DBMS, "PosID", "PosID")
        assert join.schema.names == (
            "PosID", "EmpName", "T1", "T2", "PosID_2", "EmpName_2", "T1_2", "T2_2",
        )

    def test_join_missing_attribute_rejected(self):
        join = Join(position_scan(), position_scan(), Location.DBMS, "Missing", "PosID")
        with pytest.raises(PlanError):
            __ = join.schema

    def test_temporal_join_single_period(self):
        tjoin = TemporalJoin(
            position_scan(), position_scan(), Location.DBMS, "PosID", "PosID"
        )
        names = tjoin.schema.names
        assert names == (
            "PosID", "EmpName", "PosID_2", "EmpName_2", "T1", "T2",
        )

    def test_temporal_join_requires_period_attrs(self):
        no_period = Scan("X", Schema([Attribute("PosID")]))
        tjoin = TemporalJoin(no_period, position_scan(), Location.DBMS, "PosID", "PosID")
        with pytest.raises(PlanError):
            __ = tjoin.schema

    def test_join_order_is_left_attr(self):
        join = Join(position_scan(), position_scan(), Location.DBMS, "PosID", "PosID")
        sorted_inputs = [("PosID",), ("PosID",)]
        assert delivered_order(join, sorted_inputs) == ()  # the DBMS may reorder
        assert delivered_order(join.located(Location.MIDDLEWARE), sorted_inputs) == ("PosID",)

    def test_product_schema(self):
        product = Product(position_scan(), position_scan(), Location.DBMS)
        assert len(product.schema) == 8


class TestTemporalAggregate:
    def make(self) -> TemporalAggregate:
        return TemporalAggregate(
            position_scan(),
            Location.DBMS,
            ("PosID",),
            (AggregateSpec("COUNT", "PosID"),),
        )

    def test_schema(self):
        assert self.make().schema.names == ("PosID", "T1", "T2", "COUNTofPosID")

    def test_delivered_order(self):
        taggr = self.make()
        assert delivered_order(taggr, [("PosID", "T1")]) == ()
        assert delivered_order(taggr.located(Location.MIDDLEWARE), [("PosID", "T1")]) == (
            "PosID", "T1",
        )

    def test_requires_aggregate(self):
        with pytest.raises(PlanError):
            TemporalAggregate(position_scan(), Location.DBMS, ("PosID",), ())

    def test_unknown_aggregate_argument_rejected(self):
        aggregate = TemporalAggregate(
            position_scan(), Location.DBMS, (), (AggregateSpec("SUM", "Wages"),)
        )
        with pytest.raises(PlanError):
            __ = aggregate.schema

    def test_no_grouping_schema(self):
        aggregate = TemporalAggregate(
            position_scan(), Location.DBMS, (), (AggregateSpec("COUNT"),)
        )
        assert aggregate.schema.names == ("T1", "T2", "COUNTofALL")


class TestTransfers:
    def test_transfer_m_is_middleware(self):
        assert TransferM(position_scan()).location is Location.MIDDLEWARE

    def test_transfer_d_is_dbms(self):
        inner = TransferM(position_scan())
        assert TransferD(inner).location is Location.DBMS

    def test_transfer_m_preserves_order(self):
        sort = Sort(position_scan(), Location.DBMS, ("PosID",))
        assert guaranteed_order(TransferM(sort)) == ("PosID",)

    def test_transfer_d_drops_order(self):
        sort = Sort(position_scan(), Location.DBMS, ("PosID",))
        assert guaranteed_order(TransferD(TransferM(sort))) == ()

    def test_schema_passthrough(self):
        assert TransferM(position_scan()).schema == POSITION


class TestTreePlumbing:
    def test_with_inputs_replaces_child(self):
        select = Select(position_scan(), Location.DBMS, Comparison("<", col("T1"), lit(5)))
        other = Scan("POSITION_COPY", POSITION)
        replaced = select.with_inputs(other)
        assert replaced.input is other
        assert replaced.predicate == select.predicate

    def test_walk_preorder(self):
        plan = TransferM(Sort(position_scan(), Location.DBMS, ("PosID",)))
        names = [node.name for node in plan.walk()]
        assert names == ["TransferM", "Sort", "Scan"]

    def test_size(self):
        plan = TransferM(Sort(position_scan(), Location.DBMS, ("PosID",)))
        assert plan.size() == 3

    def test_pretty_contains_labels(self):
        plan = TransferM(position_scan())
        assert "T^M" in plan.pretty()
        assert "Scan(POSITION)" in plan.pretty()

    def test_cache_key_structural(self):
        a = Select(position_scan(), Location.DBMS, Comparison("<", col("T1"), lit(5)))
        b = Select(position_scan(), Location.DBMS, Comparison("<", col("T1"), lit(5)))
        assert a.cache_key == b.cache_key

    def test_cache_key_distinguishes_location(self):
        predicate = Comparison("<", col("T1"), lit(5))
        a = Select(position_scan(), Location.DBMS, predicate)
        b = Select(position_scan(), Location.MIDDLEWARE, predicate)
        assert a.cache_key != b.cache_key


class TestExtensionOperators:
    def test_dedup_schema(self):
        assert Dedup(position_scan()).schema == POSITION

    def test_coalesce_requires_period(self):
        no_period = Scan("X", Schema([Attribute("A")]))
        with pytest.raises(PlanError):
            __ = Coalesce(no_period).schema

    def test_difference_arity_check(self):
        small = Scan("X", Schema([Attribute("A")]))
        with pytest.raises(PlanError):
            __ = Difference(position_scan(), small).schema
