"""A deliberately broken rule is caught, shrunk, and emitted as a test.

The acceptance scenario for the fuzzer: mutate the optimizer (here a rule
claiming σ(r) ≡ r, i.e. selections can be dropped), let the oracle catch
the resulting multiset mismatch, and delta-debug the failure down to a
reproducer of at most three operators whose emitted pytest module compiles
and fails on its own.
"""

from __future__ import annotations

import random

import pytest

from repro.algebra.expressions import ColumnRef, Comparison, Literal
from repro.algebra.operators import (
    Dedup,
    Location,
    Scan,
    Select,
    Sort,
    TransferM,
)
from repro.algebra.schema import AttrType
from repro.fuzz.generator import FuzzCase
from repro.fuzz.harness import FuzzHarness
from repro.fuzz.oracle import Oracle
from repro.fuzz.shrinker import Shrinker
from repro.optimizer.rules import RULES, Rule
from repro.workloads.generator import ColumnSpec, RandomRelationSpec


#: σ(r) ≡ r — wrong on purpose: drops the selection entirely.
BROKEN_DROP_SELECT = Rule("B1", "M", (Select,), lambda m: m.r[0])


@pytest.fixture
def broken_rules(monkeypatch):
    """The oracle's forced-rule strategy space, with the broken rule in it."""
    rules = [BROKEN_DROP_SELECT, RULES["X1"]]
    monkeypatch.setattr(
        "repro.fuzz.oracle.default_rules", lambda *args, **kwargs: list(rules)
    )
    return rules


def _case_with_padding() -> FuzzCase:
    """Four operators around the one that matters: Select under Dedup+Sort."""
    spec = RandomRelationSpec(
        name="R0",
        columns=(ColumnSpec("K0", AttrType.INT, distinct=4),),
        cardinality=14,
        window_start=60000,
        window_end=60090,
        skew=0.0,
        seed=9,
    )
    plan = TransferM(
        Sort(
            Dedup(
                Select(
                    Scan("R0", spec.schema),
                    Location.DBMS,
                    Comparison("=", ColumnRef("K0"), Literal(0)),
                ),
                Location.DBMS,
            ),
            Location.DBMS,
            ("K0",),
        )
    )
    return FuzzCase(tables=(spec,), plan=plan, seed=0, index=0)


def test_broken_rule_is_caught_and_shrunk(broken_rules):
    case = _case_with_padding()
    oracle = Oracle(top_k=0, config_samples=0, rule_samples=2)
    failure = oracle.check_case(case, random.Random(0))

    assert failure is not None, "the oracle must catch the dropped selection"
    assert failure.kind == "multiset-mismatch"
    assert failure.strategy == ("rule", "B1")

    shrunk = Shrinker(oracle=Oracle(top_k=0, config_samples=0)).shrink(failure)
    # The reproducer keeps only what the failure needs: the selection and
    # its scan (the acceptance bar is at most three operators).
    assert shrunk.operator_count <= 3
    assert shrunk.kind == "multiset-mismatch"
    assert sum(len(table.rows) for table in shrunk.tables) <= case.tables[0].cardinality
    kept = {type(node).__name__ for node in shrunk.initial_plan.walk()}
    assert "Select" in kept and "Scan" in kept


def test_shrunk_reproducer_compiles_and_fails(broken_rules):
    case = _case_with_padding()
    oracle = Oracle(top_k=0, config_samples=0, rule_samples=2)
    failure = oracle.check_case(case, random.Random(0))
    assert failure is not None
    shrunk = Shrinker(oracle=Oracle(top_k=0, config_samples=0)).shrink(failure)

    source = shrunk.to_pytest(test_name="test_emitted_reproducer")
    compiled = compile(source, "<emitted reproducer>", "exec")
    namespace: dict = {"__name__": "emitted_reproducer"}
    exec(compiled, namespace)  # module level: schemas, rows, plans
    with pytest.raises(AssertionError):
        namespace["test_emitted_reproducer"]()


def test_harness_writes_reproducers_for_broken_rule(broken_rules, tmp_path):
    harness = FuzzHarness(
        seed=3, budget=80, out_dir=str(tmp_path), max_failures=1
    )
    report = harness.run()
    assert not report.ok
    assert report.reproducer_paths
    emitted = tmp_path / report.reproducer_paths[0].split("/")[-1]
    assert emitted.exists()
    compile(emitted.read_text(), str(emitted), "exec")
    assert "FAILING_PLAN" in emitted.read_text()


def test_shrinker_respects_probe_cap(broken_rules):
    case = _case_with_padding()
    oracle = Oracle(top_k=0, config_samples=0, rule_samples=2)
    failure = oracle.check_case(case, random.Random(0))
    assert failure is not None
    shrunk = Shrinker(
        oracle=Oracle(top_k=0, config_samples=0), max_probes=4
    ).shrink(failure)
    assert shrunk.probes <= 4
