"""Unit tests for physical plan validation."""

import pytest

from repro.algebra.builder import scan
from repro.algebra.expressions import Comparison, col, lit
from repro.algebra.operators import (
    Coalesce,
    Join,
    Location,
    Select,
    Sort,
    TemporalAggregate,
    TemporalJoin,
    TransferD,
    TransferM,
    AggregateSpec,
    Scan,
)
from repro.algebra.schema import Attribute, AttrType, Schema
from repro.optimizer.physical import PlanValidityError, algorithm_name, validate_plan

SCHEMA = Schema(
    [
        Attribute("K", AttrType.INT),
        Attribute("T1", AttrType.DATE),
        Attribute("T2", AttrType.DATE),
    ]
)

MW = Location.MIDDLEWARE
DB = Location.DBMS


def base() -> Scan:
    return Scan("R", SCHEMA)


class TestAlgorithmNames:
    def test_paper_notation(self):
        assert algorithm_name(TransferM(base())) == "TRANSFER^M"
        assert algorithm_name(Sort(base(), DB, ("K",))) == "SORT^D"
        select = Select(TransferM(base()), MW, Comparison("<", col("K"), lit(1)))
        assert algorithm_name(select) == "FILTER^M"
        taggr = TemporalAggregate(base(), DB, ("K",), (AggregateSpec("COUNT", "K"),))
        assert algorithm_name(taggr) == "TAGGR^D"


class TestLocationStructure:
    def test_valid_transfer_sandwich(self):
        plan = TransferM(Sort(base(), DB, ("K",)))
        validate_plan(plan)

    def test_middleware_op_over_dbms_child_rejected(self):
        plan = Select(base(), MW, Comparison("<", col("K"), lit(1)))
        with pytest.raises(PlanValidityError):
            validate_plan(plan)

    def test_dbms_op_over_middleware_child_rejected(self):
        mw = Select(TransferM(base()), MW, Comparison("<", col("K"), lit(1)))
        plan = Sort(mw, DB, ("K",))
        with pytest.raises(PlanValidityError):
            validate_plan(plan)

    def test_transfer_m_requires_dbms_input(self):
        plan = TransferM(TransferM(base()))
        with pytest.raises(PlanValidityError):
            validate_plan(plan)

    def test_transfer_d_requires_middleware_input(self):
        plan = TransferD(base())
        with pytest.raises(PlanValidityError):
            validate_plan(plan)


class TestOrderPrerequisites:
    def test_taggr_m_with_dbms_sort(self):
        plan = TemporalAggregate(
            TransferM(Sort(base(), DB, ("K", "T1"))),
            MW,
            ("K",),
            (AggregateSpec("COUNT", "K"),),
        )
        validate_plan(plan)

    def test_taggr_m_without_sort_rejected(self):
        plan = TemporalAggregate(
            TransferM(base()), MW, ("K",), (AggregateSpec("COUNT", "K"),)
        )
        with pytest.raises(PlanValidityError):
            validate_plan(plan)

    def test_taggr_m_with_wrong_sort_rejected(self):
        plan = TemporalAggregate(
            TransferM(Sort(base(), DB, ("T1",))),
            MW,
            ("K",),
            (AggregateSpec("COUNT", "K"),),
        )
        with pytest.raises(PlanValidityError):
            validate_plan(plan)

    def test_taggr_m_with_middleware_sort(self):
        plan = TemporalAggregate(
            Sort(TransferM(base()), MW, ("K", "T1")),
            MW,
            ("K",),
            (AggregateSpec("COUNT", "K"),),
        )
        validate_plan(plan)

    def test_merge_join_requires_sorted_inputs(self):
        left = TransferM(Sort(base(), DB, ("K",)))
        right = TransferM(base())
        plan = Join(left, right, MW, "K", "K")
        with pytest.raises(PlanValidityError):
            validate_plan(plan)

    def test_merge_join_with_sorted_inputs(self):
        left = TransferM(Sort(base(), DB, ("K",)))
        right = TransferM(Sort(base(), DB, ("K",)))
        validate_plan(Join(left, right, MW, "K", "K"))

    def test_temporal_join_prerequisites(self):
        left = TransferM(Sort(base(), DB, ("K",)))
        right = TransferM(Sort(base(), DB, ("K",)))
        validate_plan(TemporalJoin(left, right, MW, "K", "K"))

    def test_taggr_preserves_order_for_downstream_join(self):
        # TAGGR^M's output order (group attrs, T1) feeds a temporal join
        # without an extra sort — the Query 2 Plan 2 shape.
        aggregated = TemporalAggregate(
            TransferM(Sort(base(), DB, ("K", "T1"))),
            MW,
            ("K",),
            (AggregateSpec("COUNT", "K"),),
        )
        right = TransferM(Sort(base(), DB, ("K",)))
        validate_plan(TemporalJoin(aggregated, right, MW, "K", "K"))

    def test_coalesce_m_requires_values_then_t1(self):
        # The validator knew no prerequisite for COAL^M: this plan ran, and
        # returned its unsorted input barely coalesced.
        with pytest.raises(PlanValidityError, match=r"COAL\^M needs .*\('K', 'T1'\)"):
            validate_plan(Coalesce(TransferM(base()), MW))
        validate_plan(Coalesce(TransferM(Sort(base(), DB, ("K", "T1"))), MW))
        validate_plan(Coalesce(Sort(TransferM(base()), MW, ("K", "T1", "T2")), MW))

    def test_merge_join_over_a_filtered_dbms_join_rejected(self):
        # Join^D delivers no order, whatever sits between it and JOIN^M.
        fetched = TransferM(Join(base(), base(), DB, "K", "K"))
        left = Select(fetched, MW, Comparison("<", col("K"), lit(1)))
        right = TransferM(Sort(base(), DB, ("K",)))
        with pytest.raises(PlanValidityError, match=r"JOIN\^M needs input 1"):
            validate_plan(Join(left, right, MW, "K", "K"))

    def test_dbms_located_operators_have_no_order_requirements(self):
        plan = TemporalAggregate(base(), DB, ("K",), (AggregateSpec("COUNT", "K"),))
        validate_plan(plan)

    def test_error_message_names_algorithm(self):
        plan = TemporalAggregate(
            TransferM(base()), MW, ("K",), (AggregateSpec("COUNT", "K"),)
        )
        with pytest.raises(PlanValidityError, match="TAGGR"):
            validate_plan(plan)
