"""Unit tests for the two-phase optimizer search."""

import pytest

from repro.algebra.builder import scan
from repro.algebra.expressions import Comparison, col, lit
from repro.algebra.operators import (
    Location,
    Sort,
    TemporalAggregate,
    TransferM,
)
from repro.algebra.properties import guaranteed_order
from repro.dbms.database import MiniDB
from repro.dbms.jdbc import Connection
from repro.optimizer.costs import CostFactors
from repro.optimizer.physical import validate_plan
from repro.optimizer.search import Optimizer
from repro.stats.cardinality import CardinalityEstimator
from repro.stats.collector import StatisticsCollector


@pytest.fixture
def db():
    instance = MiniDB()
    instance.execute("CREATE TABLE R (K INT, V INT, T1 DATE, T2 DATE)")
    rows = []
    for i in range(2000):
        start = (i * 17) % 1500
        rows.append(f"({i % 100}, {i % 11}, {start}, {start + 40})")
    instance.execute("INSERT INTO R VALUES " + ", ".join(rows))
    instance.analyze("R")
    return instance


@pytest.fixture
def optimizer(db):
    estimator = CardinalityEstimator(StatisticsCollector(Connection(db)))
    return Optimizer(estimator)


def taggr_query(db):
    return (
        scan(db, "R")
        .project("K", "T1", "T2")
        .taggr(group_by=["K"], count="K")
        .sort("K")
        .to_middleware()
        .build()
    )


class TestOptimize:
    def test_returns_valid_plan(self, db, optimizer):
        result = optimizer.optimize(taggr_query(db))
        validate_plan(result.plan)

    def test_moves_taggr_to_middleware(self, db, optimizer):
        result = optimizer.optimize(taggr_query(db))
        taggr_nodes = [
            node for node in result.plan.walk()
            if isinstance(node, TemporalAggregate)
        ]
        assert taggr_nodes[0].location is Location.MIDDLEWARE

    def test_respects_required_order(self, db, optimizer):
        result = optimizer.optimize(taggr_query(db))
        assert guaranteed_order(result.plan)[:1] == ("K",)

    def test_cost_not_worse_than_initial(self, db, optimizer):
        initial = taggr_query(db)
        result = optimizer.optimize(initial)
        assert result.cost <= optimizer.coster.cost(initial) + 1e-9

    def test_reports_memo_complexity(self, db, optimizer):
        result = optimizer.optimize(taggr_query(db))
        assert result.class_count > 0
        assert result.element_count >= result.class_count
        assert 1 <= result.rule_firings <= result.rule_attempts

    def test_explain_reports_the_rule_counts(self, db, optimizer):
        result = optimizer.optimize(taggr_query(db))
        assert (
            f"rules={result.rule_firings}/{result.rule_attempts} fired"
            in result.explain()
        )

    def test_deterministic(self, db, optimizer):
        first = optimizer.optimize(taggr_query(db))
        second = optimizer.optimize(taggr_query(db))
        assert first.cost == second.cost
        assert first.plan.cache_key == second.plan.cache_key

    def test_plain_transfer_query(self, db, optimizer):
        plan = scan(db, "R").to_middleware().build()
        result = optimizer.optimize(plan)
        validate_plan(result.plan)

    def test_explain_mentions_complexity(self, db, optimizer):
        result = optimizer.optimize(taggr_query(db))
        assert "classes=" in result.explain()

    def test_selection_stays_in_dbms_when_cheap(self, db, optimizer):
        plan = (
            scan(db, "R")
            .select(Comparison("=", col("K"), lit(1)))
            .to_middleware()
            .build()
        )
        result = optimizer.optimize(plan)
        validate_plan(result.plan)
        # A lone selective filter has no reason to move: expect it below T^M.
        transfer = next(
            node for node in result.plan.walk() if isinstance(node, TransferM)
        )
        assert transfer.input.location is Location.DBMS

    def test_coster_prices_supplied_plans(self, db, optimizer):
        fast = taggr_query(db)
        slow = (
            scan(db, "R")
            .project("K", "T1", "T2")
            .taggr(group_by=["K"], count="K")
            .sort("K")
            .to_middleware()
            .build()
        )
        costs = [optimizer.coster.cost(plan) for plan in (fast, slow)]
        assert all(cost > 0 for cost in costs)


class TestBudgets:
    def test_element_budget_caps_exploration(self, db):
        estimator = CardinalityEstimator(StatisticsCollector(Connection(db)))
        tight = Optimizer(estimator, max_elements=5)
        result = tight.optimize(taggr_query(db))
        validate_plan(result.plan)  # still returns something executable


class TestCostFactorsInfluence:
    def test_expensive_transfer_keeps_work_in_dbms(self, db):
        # A relation whose aggregation result is tiny: with transfers made
        # absurdly expensive, shipping the whole argument to the middleware
        # can never pay off, so TAGGR stays in the DBMS.
        db.execute("CREATE TABLE SMALLR (K INT, T1 DATE, T2 DATE)")
        rows = ", ".join(
            f"({i % 3}, {(i % 5) * 10}, {(i % 5) * 10 + 10})" for i in range(2000)
        )
        db.execute(f"INSERT INTO SMALLR VALUES {rows}")
        db.analyze("SMALLR")
        estimator = CardinalityEstimator(StatisticsCollector(Connection(db)))
        factors = CostFactors(p_tm=1e6, p_td=1e6)
        optimizer = Optimizer(estimator, factors)
        plan = (
            scan(db, "SMALLR")
            .taggr(group_by=["K"], count="K")
            .sort("K")
            .to_middleware()
            .build()
        )
        result = optimizer.optimize(plan)
        taggr_nodes = [
            node for node in result.plan.walk()
            if isinstance(node, TemporalAggregate)
        ]
        assert taggr_nodes[0].location is Location.DBMS

    def test_free_middleware_pulls_work_up(self, db):
        estimator = CardinalityEstimator(StatisticsCollector(Connection(db)))
        factors = CostFactors(p_taggd1=100.0, p_taggd2=100.0)
        optimizer = Optimizer(estimator, factors)
        result = optimizer.optimize(taggr_query(db))
        taggr_nodes = [
            node for node in result.plan.walk()
            if isinstance(node, TemporalAggregate)
        ]
        assert taggr_nodes[0].location is Location.MIDDLEWARE
