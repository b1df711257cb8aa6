"""The differential oracle: agreement on healthy code, sound invariants."""

from __future__ import annotations

import random

import pytest

from repro.algebra.expressions import ColumnRef, Comparison, Literal
from repro.algebra.operators import (
    AggregateSpec,
    Location,
    Scan,
    Select,
    Sort,
    TemporalAggregate,
    TransferM,
)
from repro.fuzz.compare import canonical_rows
from repro.fuzz.generator import FuzzCase, QueryGenerator
from repro.fuzz.oracle import (
    DEFAULT_CONFIG,
    ExecConfig,
    Oracle,
    derive_alternative,
    execute_with_config,
)
from repro.workloads.generator import (
    ColumnSpec,
    RandomRelationSpec,
    generate_relation_rows,
)
from repro.algebra.schema import AttrType
from repro.core.tango import Tango
from repro.xxl.cursor import walk


def _simple_case() -> FuzzCase:
    spec = RandomRelationSpec(
        name="R0",
        columns=(ColumnSpec("K0", AttrType.INT, distinct=4),),
        cardinality=12,
        window_start=60000,
        window_end=60090,
        seed=5,
    )
    plan = TransferM(
        Sort(
            Select(
                Scan("R0", spec.schema),
                Location.DBMS,
                Comparison("<", ColumnRef("K0"), Literal(3)),
            ),
            Location.DBMS,
            ("K0", "T1"),
        )
    )
    return FuzzCase(tables=(spec,), plan=plan, seed=0, index=0)


def test_generated_cases_pass_the_oracle():
    generator = QueryGenerator(seed=1)
    oracle = Oracle()
    rng = random.Random("oracle-test")
    for case in generator.cases(3):
        assert oracle.check_case(case, rng) is None
    assert oracle.executions >= 3


def test_execution_budget_is_counted():
    oracle = Oracle()
    case = _simple_case()
    oracle.check_case(case, random.Random(0))
    assert oracle.executions >= 1


def test_chaos_execution_matches_clean_execution():
    case = _simple_case()
    clean = execute_with_config(case.build_db(), case.plan, DEFAULT_CONFIG)
    chaotic = execute_with_config(
        case.build_db(),
        case.plan,
        ExecConfig(chaos=True, chaos_p=0.2, chaos_seed=13),
    )
    assert canonical_rows(clean) == canonical_rows(chaotic)
    assert len(clean) > 0


def test_batch_size_one_matches_default():
    case = _simple_case()
    default = execute_with_config(case.build_db(), case.plan, DEFAULT_CONFIG)
    tango = Tango(case.build_db())
    try:
        execution = tango.executor.compile(case.plan)
        for cursor in walk(execution.steps):
            cursor.batch_size = 1
        outcome = tango.executor.engine.execute(execution)
    finally:
        tango.close()
    assert canonical_rows(default.rows) == canonical_rows(outcome.rows)
    assert outcome.batches == len(outcome.rows) > 0


def test_probe_returns_none_on_a_passing_point():
    case = _simple_case()
    oracle = Oracle()
    db = case.build_db()
    assert oracle.probe(db, case.plan, ("memo", 0), DEFAULT_CONFIG) is None


def test_derive_alternative_baseline_is_executable():
    case = _simple_case()
    db = case.build_db()
    baseline = derive_alternative(db, case.plan, ("baseline",))
    assert baseline is not None
    rows = execute_with_config(db, baseline, DEFAULT_CONFIG)
    filtered = execute_with_config(db, case.plan, DEFAULT_CONFIG)
    assert canonical_rows(rows) == canonical_rows(filtered)


def test_derive_alternative_unknown_strategy_raises():
    case = _simple_case()
    with pytest.raises(ValueError):
        derive_alternative(case.build_db(), case.plan, ("nonsense",))


def test_rule_strategy_derivation_round_trips():
    case = _simple_case()
    db = case.build_db()
    plan = derive_alternative(db, case.plan, ("rule", "T4"))
    if plan is None:
        pytest.skip("T4 produced no distinct plan for this shape")
    assert canonical_rows(execute_with_config(db, plan, DEFAULT_CONFIG)) == canonical_rows(
        execute_with_config(db, case.plan, DEFAULT_CONFIG)
    )


def _wide_case() -> FuzzCase:
    """``_simple_case`` over a table with a column nothing reads."""
    spec = RandomRelationSpec(
        name="R0",
        columns=(
            ColumnSpec("K0", AttrType.INT, distinct=4),
            ColumnSpec("V0", AttrType.STR, distinct=6),
        ),
        cardinality=12,
        window_start=60000,
        window_end=60090,
        seed=5,
    )
    plan = TransferM(
        TemporalAggregate(
            Scan("R0", spec.schema), Location.DBMS, ("K0",), (AggregateSpec("COUNT"),)
        )
    )
    return FuzzCase(tables=(spec,), plan=plan, seed=0, index=0)


def test_pruned_strategy_ships_fewer_columns_and_the_same_rows():
    case = _wide_case()
    db = case.build_db()
    pruned = derive_alternative(db, case.plan, ("pruned",))
    (transfer,) = [node for node in pruned.walk() if isinstance(node, TransferM)]
    assert transfer.schema.names == ("K0", "T1", "T2")
    baseline = derive_alternative(db, case.plan, ("baseline",))
    assert canonical_rows(execute_with_config(db, pruned, DEFAULT_CONFIG).rows) == canonical_rows(
        execute_with_config(db, baseline, DEFAULT_CONFIG).rows
    )
    assert Oracle().probe(db, case.plan, ("pruned",), DEFAULT_CONFIG) is None


def test_pruned_strategy_is_sampled_once_when_the_pass_changes_the_plan():
    oracle = Oracle(rule_samples=0, config_samples=0)

    def sampled(case):
        db = case.build_db()
        baseline = derive_alternative(db, case.plan, ("baseline",))
        return [s for s, _, _ in oracle._alternatives(db, case, baseline, random.Random(0))]

    assert sampled(_wide_case()).count(("pruned",)) == 1
    # Nothing to drop: the pass is the identity and the memo's best plan is
    # already in the sample.
    assert ("pruned",) not in sampled(_simple_case())
    assert oracle.check_case(_wide_case(), random.Random(0)) is None
