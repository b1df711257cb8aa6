"""Unit tests for order properties — Section 4's list/multiset discipline."""

import pytest

from repro.algebra.expressions import BinOp, Comparison, col, lit
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
from repro.algebra.properties import (
    delivered_order,
    guaranteed_order,
    is_prefix_of,
    needed_orders,
    source_order,
    satisfies_order,
)
from repro.algebra.schema import Attribute, AttrType, Schema
from repro.core.tango import Tango
from repro.dbms.database import MiniDB
from repro.optimizer.algorithms import ALGORITHMS

MW, DB = Location.MIDDLEWARE, Location.DBMS

SCHEMA = Schema(
    [
        Attribute("PosID", AttrType.INT),
        Attribute("T1", AttrType.DATE),
        Attribute("T2", AttrType.DATE),
    ]
)


def scan() -> Scan:
    return Scan("POSITION", SCHEMA)


class TestIsPrefixOf:
    def test_empty_is_prefix_of_anything(self):
        assert is_prefix_of([], ["a", "b"])

    def test_proper_prefix(self):
        assert is_prefix_of(["PosID"], ["posid", "t1"])

    def test_equal_lists(self):
        assert is_prefix_of(["a", "b"], ["A", "B"])

    def test_not_a_prefix(self):
        assert not is_prefix_of(["T1"], ["posid", "t1"])

    def test_longer_than_order(self):
        assert not is_prefix_of(["a", "b"], ["a"])


class TestGuaranteedOrder:
    def test_dbms_scan_guarantees_nothing(self):
        # Even a clustered table gives no SQL-level order guarantee — end to
        # end: the optimizer used to trust the clustering, skip the sort
        # TAGGR^M needs, and fail its own validation in ``Planner.plan``.
        rows = [(1, 10, 2, 20), (1, 11, 5, 25), (2, 12, 5, 10), (2, 12, 10, 14)]
        db = MiniDB()
        for name, order in (("CLUSTERED", ("a", "T1")), ("HEAP", ())):
            db.execute(f"CREATE TABLE {name} (a INT, x INT, T1 DATE, T2 DATE)")
            db.table(name).bulk_load(rows if order else rows[::-1], order=order)
        assert db.table("CLUSTERED").clustered_order == ("a", "T1")
        query = "VALIDTIME SELECT a, COUNT(x) FROM {} GROUP BY a ORDER BY a"
        with Tango(db) as tango:
            clustered = tango.query(query.format("CLUSTERED"))
            heap = tango.query(query.format("HEAP"))
        assert clustered.rows == heap.rows
        assert len(clustered.rows) == 5

    def test_dbms_sort_at_top_guarantees(self):
        sort = Sort(scan(), Location.DBMS, ("PosID", "T1"))
        assert guaranteed_order(sort) == ("PosID", "T1")

    def test_dbms_operator_above_sort_destroys_order(self):
        sort = Sort(scan(), Location.DBMS, ("PosID",))
        select = Select(sort, Location.DBMS, Comparison("<", col("T1"), lit(5)))
        assert guaranteed_order(select) == ()

    def test_transfer_m_preserves_dbms_sort(self):
        # The paper's T6 precondition: T^M preserves order.
        sort = Sort(scan(), Location.DBMS, ("PosID",))
        assert guaranteed_order(TransferM(sort)) == ("PosID",)

    def test_transfer_m_of_unsorted_guarantees_nothing(self):
        assert guaranteed_order(TransferM(scan())) == ()

    def test_middleware_select_preserves(self):
        sorted_in_mw = TransferM(Sort(scan(), Location.DBMS, ("PosID",)))
        select = Select(
            sorted_in_mw, Location.MIDDLEWARE, Comparison("<", col("T1"), lit(5))
        )
        assert guaranteed_order(select) == ("PosID",)

    def test_transfer_d_destroys_order(self):
        sorted_in_mw = TransferM(Sort(scan(), Location.DBMS, ("PosID",)))
        assert guaranteed_order(TransferD(sorted_in_mw)) == ()

    def test_middleware_join_delivers_left_attr(self):
        left = TransferM(Sort(scan(), Location.DBMS, ("PosID",)))
        right = TransferM(Sort(scan(), Location.DBMS, ("PosID",)))
        join = Join(left, right, Location.MIDDLEWARE, "PosID", "PosID")
        assert guaranteed_order(join) == ("PosID",)

    def test_projection_keeps_order_of_passthrough_columns(self):
        sorted_in_mw = TransferM(Sort(scan(), Location.DBMS, ("PosID", "T1")))
        project = Project.of_columns(
            sorted_in_mw, ["PosID", "T1"], Location.MIDDLEWARE
        )
        assert guaranteed_order(project) == ("PosID", "T1")

    def test_renaming_projection_carries_order_to_the_output_name(self):
        # A renaming projection moves the ordered values to a new column:
        # the guarantee must follow the *output* name.  (Found by the
        # differential fuzzer on E2's compensating projection, which swaps
        # the two join sides' columns.)
        sorted_in_mw = TransferM(Sort(scan(), Location.DBMS, ("PosID",)))
        swap = Project(
            sorted_in_mw,
            Location.MIDDLEWARE,
            (("PosID", col("T1")), ("T1", col("PosID")), ("T2", col("T2"))),
        )
        assert guaranteed_order(swap) == ("T1",)

    def test_projection_of_computed_expression_drops_order(self):
        # The ordered column only survives as a *bare* reference; an
        # arithmetic wrapper computes new values in a new order.
        sorted_in_mw = TransferM(Sort(scan(), Location.DBMS, ("PosID",)))
        computed = Project(
            sorted_in_mw,
            Location.MIDDLEWARE,
            (("PosID", BinOp("+", col("PosID"), lit(1))), ("T1", col("T1"))),
        )
        assert guaranteed_order(computed) == ()

    def test_order_does_not_survive_a_dbms_operator_below_the_transfer(self):
        # Location counts at every level, not only at the root: the join is
        # the DBMS's, so neither T^M nor the filter above it has an order.
        join = Join(scan(), scan(), DB, "PosID", "PosID")
        fetched = TransferM(join)
        select = Select(fetched, MW, Comparison("<", col("T1"), lit(5)))
        assert guaranteed_order(fetched) == ()
        assert guaranteed_order(select) == ()

    def test_difference_streams_its_left_input(self):
        left = TransferM(Sort(scan(), DB, ("PosID",)))
        assert guaranteed_order(Difference(left, TransferM(scan()), MW)) == ("PosID",)

    def test_coalesce_keeps_the_input_order_up_to_t2(self):
        sorted_in_mw = TransferM(Sort(scan(), DB, ("PosID", "T1", "T2")))
        assert guaranteed_order(Coalesce(sorted_in_mw, MW)) == ("PosID", "T1")


class TestNeededOrders:
    """One row per algorithm of DESIGN.md §14's table."""

    def test_taggr_m_needs_groups_then_t1(self):
        taggr = TemporalAggregate(scan(), MW, ("PosID",), (AggregateSpec("COUNT"),))
        assert needed_orders(taggr) == (("PosID", "T1"),)
        assert needed_orders(taggr.located(DB)) == ((),)

    @pytest.mark.parametrize("join_type", [Join, TemporalJoin])
    def test_merge_joins_need_the_join_attribute_per_side(self, join_type):
        join = join_type(scan(), scan(), MW, "PosID", "T1")
        assert needed_orders(join) == (("PosID",), ("T1",))
        assert needed_orders(join.located(DB)) == ((), ())

    def test_coalesce_m_needs_values_then_t1_and_coalesce_d_does_not_exist(self):
        assert needed_orders(Coalesce(scan(), MW)) == (("PosID", "T1"),)
        # Order is all that is asked here; that no algorithm evaluates the
        # pair is the table's to say (tests/unit/test_algorithms.py).
        assert needed_orders(Coalesce(scan(), DB)) == ((),)
        assert (Coalesce, DB) not in ALGORITHMS

    def test_everything_else_needs_nothing(self):
        predicate = Comparison("<", col("T1"), lit(5))
        assert needed_orders(scan()) == ()
        for node in (
            Select(scan(), MW, predicate),
            Project.of_columns(scan(), ["PosID"], MW),
            Sort(scan(), MW, ("PosID",)),
            Dedup(scan(), MW),
            TransferM(scan()),
            TransferD(scan()),
        ):
            assert needed_orders(node) == ((),)
        assert needed_orders(Product(scan(), scan(), MW)) == ((), ())
        assert needed_orders(Difference(scan(), scan(), MW)) == ((), ())


class TestDeliveredOrder:
    def test_takes_input_orders_as_values(self):
        # The node's own inputs are not consulted: a memo template, whose
        # inputs are placeholders, is served like a plan tree.
        select = Select(scan(), MW, Comparison("<", col("T1"), lit(5)))
        assert delivered_order(select, [("a", "b")]) == ("a", "b")
        assert delivered_order(select.located(DB), [("a", "b")]) == ()

    def test_product_delivers_nothing(self):
        assert delivered_order(Product(scan(), scan(), MW), [("PosID",), ()]) == ()

    def test_source_order_inverts_a_renaming_projection(self):
        swap = Project(
            scan(), MW, (("P", col("T1")), ("Q", col("PosID")), ("R", lit(1)))
        )
        assert delivered_order(swap, [("PosID", "T1")]) == ("Q", "P")
        assert source_order(swap, ("q", "p")) == ("posid", "t1")
        assert source_order(swap, ("q", "r", "p")) == ("posid",)  # R is computed
        assert source_order(Dedup(scan(), MW), ("q",)) == ("q",)


class TestSatisfiesOrder:
    def test_empty_requirement_always_satisfied(self):
        assert satisfies_order(scan(), ())

    def test_satisfied_by_sort(self):
        sort = Sort(scan(), Location.DBMS, ("PosID", "T1"))
        assert satisfies_order(sort, ("PosID",))

    def test_unsatisfied(self):
        assert not satisfies_order(scan(), ("PosID",))
