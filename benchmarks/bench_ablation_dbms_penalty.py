"""Ablation A4 — the adaptability headline: the DBMS's temporal-processing
penalty governs the middleware/DBMS split.

TANGO exists because SQL rewrites of temporal operations are expensive in a
conventional DBMS.  This ablation simulates a DBMS with progressively
better native temporal support by scaling the measured ``TAGGR^D`` and
generic-join factors down, and watches the optimizer adapt: with cheap
DBMS temporal processing every operation stays below the ``T^M`` (the
middleware degenerates to a pure stratum); at the measured penalties the
temporal operators migrate into the middleware.

This is also the forward-looking statement of the paper's Section 7: when
vendors "incorporate temporal features into their products", the same
cost-based apportioning automatically hands the work back to the DBMS.
"""

from dataclasses import replace

from harness import print_series

from repro.algebra.operators import Location, TemporalAggregate, TemporalJoin
from repro.optimizer.search import Optimizer
from repro.workloads.queries import (
    query1_initial_plan,
    query2_initial_plan,
    query3_initial_plan,
)

PENALTY_SCALES = (0.02, 0.1, 0.3, 1.0)


def _location_of(plan, node_type):
    return next(
        node.location for node in plan.walk() if isinstance(node, node_type)
    )


def test_dbms_temporal_penalty_ablation(benchmark, tango):
    def measure():
        base = tango.planner.factors
        rows = []
        placements = []
        for scale in PENALTY_SCALES:
            factors = replace(
                base,
                p_taggd1=base.p_taggd1 * scale,
                p_taggd2=base.p_taggd2 * scale,
                p_joind=base.p_joind * scale,
            )
            optimizer = Optimizer(tango.planner.estimator, factors)
            q1 = _location_of(
                optimizer.optimize(query1_initial_plan(tango.db)).plan,
                TemporalAggregate,
            )
            q2 = _location_of(
                optimizer.optimize(
                    query2_initial_plan(tango.db, "1998-01-01")
                ).plan,
                TemporalAggregate,
            )
            q3 = _location_of(
                optimizer.optimize(
                    query3_initial_plan(tango.db, "1998-01-01")
                ).plan,
                TemporalJoin,
            )
            placements.append((scale, q1, q2, q3))
            rows.append(
                [f"{scale}x", q1.value, q2.value, q3.value]
            )
        return rows, placements

    rows, placements = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_series(
        "A4: operator placement vs DBMS temporal-processing penalty",
        ["penalty scale", "Q1 TAGGR", "Q2 TAGGR", "Q3 TJOIN"],
        rows,
    )
    # A DBMS with near-native temporal support keeps everything.
    cheapest = placements[0]
    assert cheapest[1] is Location.DBMS
    assert cheapest[2] is Location.DBMS
    assert cheapest[3] is Location.DBMS
    # At the measured penalties, the temporal operators migrate up.
    measured = placements[-1]
    assert measured[1] is Location.MIDDLEWARE
    assert measured[2] is Location.MIDDLEWARE
    # Monotone: once an operator migrates, it does not come back as the
    # DBMS gets more expensive.
    for column in (1, 2, 3):
        flags = [p[column] is Location.MIDDLEWARE for p in placements]
        first = flags.index(True) if True in flags else len(flags)
        assert all(flags[first:])
