"""Equivalence-class and class-element counts per query (Section 5.2).

The paper reports, for its Volcano-based memo:

    Query 1: 12 classes,  29 elements
    Query 2: 142 classes, 452 elements
    Query 3: 104 classes, 301 elements
    Query 4: 13 classes,  30 elements

Our memo uses the same rule set but a canonicalizing application discipline
(see ``repro/optimizer/rules.py``), so absolute counts differ; the claim we
preserve is that Query 2 dominates the search space and that the counts are
small enough for sub-second optimization.  EXPERIMENTS.md records the
side-by-side numbers.

The table also prints how hard the search worked: ``rule_attempts``
(``Rule.apply`` calls) and ``rule_firings`` (those that changed the memo).
The gate on them is in counts, not seconds: an incremental exploration
offers each element its few matching rules a few times over, so attempts
stay within ``6 x element_count`` (2.9-3.8 x measured; the
every-rule x every-element x every-pass loop sat at about 73 x, and a memo
that re-derives duplicate elements after every merge at about 5 x).
"""

from harness import print_series

from repro.workloads.queries import (
    query1_initial_plan,
    query2_initial_plan,
    query3_initial_plan,
    query4_initial_plan,
)

PAPER_COUNTS = {
    "Q1": (12, 29),
    "Q2": (142, 452),
    "Q3": (104, 301),
    "Q4": (13, 30),
}


def test_memo_counts_table(benchmark, tango):
    def measure():
        plans = {
            "Q1": query1_initial_plan(tango.db),
            "Q2": query2_initial_plan(tango.db, "1996-01-01"),
            "Q3": query3_initial_plan(tango.db, "1995-01-01"),
            "Q4": query4_initial_plan(tango.db),
        }
        return {
            name: tango.optimize(plan) for name, plan in plans.items()
        }

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = []
    for name, result in results.items():
        paper_classes, paper_elements = PAPER_COUNTS[name]
        table.append(
            [
                name,
                result.class_count,
                result.element_count,
                paper_classes,
                paper_elements,
                result.rule_attempts,
                result.rule_firings,
                round(result.rule_attempts / result.element_count, 1),
            ]
        )
    print_series(
        "Equivalence classes / elements per query (ours vs paper)",
        ["query", "classes", "elements", "paper classes", "paper elements",
         "rule attempts", "rule firings", "attempts/element"],
        table,
    )
    # Shape: Query 2 dominates, every search stays small and terminates.
    q2 = results["Q2"]
    for name, result in results.items():
        assert result.element_count <= q2.element_count
        assert result.class_count < 1000
        assert result.rule_firings <= result.rule_attempts
        assert result.rule_attempts <= 6 * result.element_count
