"""Ablation A1 — histograms on/off for temporal selectivity (Section 5.2).

The paper: "when used without histograms, the optimizer returned the
second plan for the six queries with the time-period end varying from
January 1, 1984 to January 1, 1989, and the first plan for all other
queries.  When used with histograms, the optimizer always returned the
second plan ... because it could more accurately estimate the result size
of the temporal selection."

We measure what the ablation actually changes: the accuracy of the
temporal-selection cardinality estimate across the Query 2 sweep, and
whether the resulting plan choice (aggregation/join placement) is stable.
"""

from harness import print_series

from repro.core.tango import Tango, TangoConfig
from repro.temporal.timestamps import day_of
from repro.workloads.queries import Q2_PERIOD_START, query2_initial_plan

ENDS = ("1986-01-01", "1990-01-01", "1993-01-01", "1996-01-01", "1999-01-01")


def test_histogram_ablation_estimates(benchmark, bench_db):
    def measure():
        with_hist = Tango(bench_db, config=TangoConfig(use_histograms=True))
        without = Tango(bench_db, config=TangoConfig(use_histograms=False))
        start = day_of(Q2_PERIOD_START)
        position = bench_db.table("POSITION")
        schema = position.schema
        t1 = schema.index_of("T1")
        t2 = schema.index_of("T2")
        rows = []
        errors = {"with": [], "without": []}
        for end in ENDS:
            end_day = day_of(end)
            actual = sum(
                1 for row in position.rows
                if row[t1] < end_day and row[t2] > start
            )
            from repro.algebra.builder import scan
            from repro.algebra.expressions import Comparison, col, lit

            predicate = (
                Comparison("<", col("T1"), lit(end_day))
                & Comparison(">", col("T2"), lit(start))
            )
            plan = scan(bench_db, "POSITION").select(predicate).build()
            est_with = with_hist.planner.estimator.estimate(plan).cardinality
            est_without = without.planner.estimator.estimate(plan).cardinality
            for key, estimate in (("with", est_with), ("without", est_without)):
                errors[key].append(
                    abs(estimate - actual) / max(1, actual)
                )
            rows.append(
                [end[:4], actual, f"{est_with:.0f}", f"{est_without:.0f}"]
            )
        return rows, errors

    rows, errors = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_series(
        "A1: temporal-selection cardinality, histograms on/off",
        ["end", "actual", "est (hist)", "est (no hist)"],
        rows,
    )
    mean_with = sum(errors["with"]) / len(errors["with"])
    mean_without = sum(errors["without"]) / len(errors["without"])
    print(f"\nmean relative error: with={mean_with:.2f} without={mean_without:.2f}")
    # Histograms must not hurt, and must help overall on this skewed data.
    assert mean_with <= mean_without + 0.02


def test_histogram_ablation_choices_stay_sound(benchmark, bench_db):
    """Both configurations must still produce valid, correct plans — the
    ablation degrades estimates, not correctness."""

    def measure():
        outcomes = []
        for use_histograms in (True, False):
            tango = Tango(bench_db, config=TangoConfig(use_histograms=use_histograms))
            result = tango.optimize(query2_initial_plan(bench_db, "1996-01-01"))
            rows = tango.execute_plan(result.plan).rows
            outcomes.append((use_histograms, result.cost, len(rows)))
        return outcomes

    outcomes = benchmark.pedantic(measure, rounds=1, iterations=1)
    (_, _, rows_with), (_, _, rows_without) = outcomes
    assert rows_with == rows_without
