"""Property tests: the incremental exploration reaches the true fixpoint.

The search in :mod:`repro.optimizer.search` applies a rule to an element
only when the memo changed somewhere the element can see.  Whatever it
skips must have been a no-op, so after ``Optimizer.optimize`` one naive
sweep — every rule over every element — may change nothing.  A dirty mark
the memo forgets to set shows up here as a sweep that still grows the memo.

The memo it leaves is a set closed under congruence (no expression twice,
no child id merged away), and it is *the* closure: :class:`ReferenceOptimizer`
— every rule over every element until a pass changes nothing, no queue, no
dirty marks — finds as many classes and elements and the same best cost.
The order the queue is drained in is not observable in what is found.

And one order discipline: the order the extraction DP records for a plan is
the order :func:`~repro.algebra.properties.guaranteed_order` derives from
the finished tree, and every plan it ranks passes ``validate_plan`` — all
three read the same two tables (:func:`assert_orders_agree`, also run over
the golden corpus by ``tests/integration/test_plan_choice_golden.py``).
"""

from __future__ import annotations

import pytest

from repro.algebra.properties import guaranteed_order
from repro.dbms.database import MiniDB
from repro.errors import OptimizerError
from repro.fuzz.generator import QueryGenerator
from repro.fuzz.oracle import build_estimator
from repro.obs.tracing import NULL_TRACER
from repro.optimizer.memo import Memo
from repro.optimizer.physical import validate_plan
from repro.optimizer.rules import default_rules
from repro.optimizer.search import Optimizer
from repro.workloads import queries
from repro.workloads.uis import load_uis

#: Generated plans checked, per generator size.
FUZZ_PLANS = 150


def naive_sweep(memo: Memo) -> list[str]:
    """One pass of every rule over every element; the rules that fired."""
    fired = []
    for eq_class in memo.classes():
        for element in list(eq_class.elements):
            for rule in default_rules():
                if rule.apply(memo, memo.find(eq_class.id), element):
                    fired.append(f"{rule.name} on {element!r} of class {eq_class.id}")
    return fired


class ReferenceOptimizer(Optimizer):
    """The naive closure the search replaced, as the reference: every rule
    over every element of the memo until a pass changes nothing."""

    def _explore(self, memo: Memo) -> tuple[int, int]:
        while naive_sweep(memo):
            pass
        return 0, 0


def assert_closed(result) -> None:
    memo = result.memo
    elements = [element for eq_class in memo.classes() for element in eq_class.elements]
    assert memo.element_count == len(elements)
    assert len({element.key() for element in elements}) == len(elements)
    for element in elements:
        assert element.children == tuple(map(memo.find, element.children))
    before = (memo.class_count, memo.element_count)
    fired = naive_sweep(memo)
    assert (memo.class_count, memo.element_count) == before, fired
    assert fired == []


def assert_is_the_closure(estimator, plan, result) -> None:
    reference = ReferenceOptimizer(estimator).optimize(plan)
    assert (result.class_count, result.element_count, result.cost) == (
        reference.class_count,
        reference.element_count,
        reference.cost,
    )


def assert_orders_agree(optimizer: Optimizer, plan) -> int:
    """The winner and every candidate ``top_plans`` ranks: each validates,
    and the DP's record of its order is ``guaranteed_order`` of its tree.
    Returns how many plans were checked."""
    # One extraction each, as ``optimize`` and ``top_plans`` have: a cell
    # computed while another is in progress is cached without the plans
    # through that one, so what a shared extraction finds depends on who
    # asked first.
    explored, _, extraction, required = optimizer._search(plan, NULL_TRACER)
    winner = extraction.best(explored.root, plan.location, required)
    explored, _, extraction, required = optimizer._search(plan, NULL_TRACER)
    ranked = [
        choice
        for element in extraction.candidates(explored.root, plan.location)
        for choice in [
            extraction.element_choice(element, required)
            or extraction.element_choice(element, ())
        ]
        if choice is not None
    ]
    for choice in ranked + [winner] * (winner is not None):
        validate_plan(choice.plan)
        guaranteed = tuple(name.lower() for name in guaranteed_order(choice.plan))
        assert choice.delivered == guaranteed, choice.plan.pretty()
    # Nothing is skipped any more: every distinct candidate is returned.
    assert len(optimizer.top_plans(plan, k=len(ranked) + 1)) == len(
        {choice.plan.cache_key for choice in ranked}
    )
    return len(ranked)


@pytest.fixture(scope="module")
def uis_db() -> MiniDB:
    db = MiniDB()
    load_uis(db, scale=0.02, seed=1)
    return db


def paper_queries(db: MiniDB) -> dict:
    return {
        "Q1": queries.query1_initial_plan(db),
        "Q2": queries.query2_initial_plan(db, "1996-01-01"),
        "Q3": queries.query3_initial_plan(db, "1999-01-01"),
        "Q4": queries.query4_initial_plan(db),
    }


@pytest.mark.parametrize("name", ["Q1", "Q2", "Q3", "Q4"])
def test_paper_queries_reach_a_fixpoint(uis_db, name):
    estimator, plan = build_estimator(uis_db), paper_queries(uis_db)[name]
    result = Optimizer(estimator).optimize(plan)
    assert_is_the_closure(estimator, plan, result)
    assert_closed(result)


@pytest.mark.parametrize("max_operators", [7, 11])
def test_generated_plans_reach_a_fixpoint(max_operators):
    generator = QueryGenerator(seed=14, max_operators=max_operators)
    explored = 0
    index = 0
    while explored < FUZZ_PLANS:
        case = generator.case(index)
        index += 1
        estimator = build_estimator(case.build_db())
        try:
            result = Optimizer(estimator).optimize(case.plan)
        except OptimizerError:
            continue  # no executable plan for this shape: nothing to check
        assert_is_the_closure(estimator, case.plan, result)
        assert_closed(result)
        explored += 1


def test_generated_plans_keep_one_order_discipline():
    generator = QueryGenerator(seed=17, max_operators=9)
    checked = 0
    for index in range(FUZZ_PLANS):
        case = generator.case(index)
        optimizer = Optimizer(build_estimator(case.build_db()))
        checked += assert_orders_agree(optimizer, case.plan)
    assert checked > 2 * FUZZ_PLANS  # most shapes have several candidates


@pytest.mark.parametrize("name", ["Q1", "Q2", "Q3", "Q4"])
def test_rule_counts_are_deterministic(uis_db, name):
    plan = paper_queries(uis_db)[name]
    first = Optimizer(build_estimator(uis_db)).optimize(plan)
    second = Optimizer(build_estimator(uis_db)).optimize(plan)
    assert first.rule_attempts == second.rule_attempts
    assert first.rule_firings == second.rule_firings
    assert 0 < first.rule_firings <= first.rule_attempts


@pytest.mark.parametrize("budget", [10, 25, 50, 80])
def test_budget_hit_mid_worklist_still_extracts_a_valid_plan(uis_db, budget):
    plan = paper_queries(uis_db)["Q2"]
    full = Optimizer(build_estimator(uis_db)).optimize(plan)
    assert full.element_count > 80  # every budget above cuts the search short
    cut = Optimizer(build_estimator(uis_db), max_elements=budget).optimize(plan)
    validate_plan(cut.plan)
    assert cut.rule_attempts < full.rule_attempts
    # The budget is checked between elements, so one element's rules may
    # overshoot it, but the search stops there.
    assert budget < cut.element_count < full.element_count
    assert cut.cost >= full.cost
