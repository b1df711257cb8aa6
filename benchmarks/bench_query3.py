"""Figure 11(a) — Query 3 (temporal self-join), two plans, sweeping the
maximum allowed time-period start.

Paper findings to reproduce:

* as the bound relaxes, Plan 2 (temporal join in the middleware) pulls
  ahead of Plan 1 (all in the DBMS), because the join result outgrows the
  arguments and Plan 1 pays DBMS sorting plus transfer of that result;
* "the difference in performance becomes obvious when the maximum
  time-period start reaches year 1996, since about 65 % of the POSITION
  tuples have time-periods starting at 1995 or later".

The shape is asserted in MiniDB's deterministic ticks, which charge exactly
what the paper names (the DBMS sort and the transfer of a result larger than
its arguments); wall-clock seconds are printed beside them and gated only as
the optimizer's *regret* (ROADMAP item 1).  Since the fused expression
compiler (PR 12) Plan 1 no longer pays a closure call per ``GREATEST``/
``LEAST`` argument and ``AND`` term, and its wall-clock gap to Plan 2 at the
last bound is ≈ 1.2×, not the ≈ 3.2× it was — too close to assert per run.
"""

import pytest

from harness import Measurement, fmt, print_series, run_spec

from repro.workloads.queries import query3_initial_plan, query3_plans

#: How much slower than the faster measured plan the optimizer's pick may run.
MAX_REGRET = 1.3
#: The regret gate applies where the faster plan takes at least this long.
#: Below it (the selective bounds: both plans ≈ 2 ms) the ≈ 0.4 ms of
#: per-statement overhead by which the plans differ — Plan 1 is one large
#: statement, Plan 2 two small ones — is a fifth of the measurement and in no
#: per-byte cost formula; regret there is printed, not gated.
GATED_FROM_SECONDS = 0.005

BOUNDS = (
    "1988-01-01", "1990-01-01", "1992-01-01", "1994-01-01",
    "1995-01-01", "1996-01-01", "1997-01-01", "1998-01-01", "1999-01-01",
)


@pytest.mark.parametrize("plan_index", [0, 1], ids=["P1", "P2"])
def test_query3_plan_at_late_bound(benchmark, tango, plan_index):
    spec = query3_plans(tango.db, "1998-01-01")[plan_index]
    benchmark.extra_info["plan"] = spec.description
    measurement = benchmark.pedantic(
        lambda: run_spec(tango, spec), rounds=3, iterations=1
    )
    assert measurement.rows > 0


def test_figure11a_series(benchmark, tango):
    def sweep():
        table_rows = []
        results: dict[tuple[str, str], Measurement] = {}
        for bound in BOUNDS:
            measurements = [
                run_spec(tango, spec) for spec in query3_plans(tango.db, bound)
            ]
            for measurement in measurements:
                results[(bound, measurement.plan)] = measurement
            table_rows.append(
                [bound[:4]]
                + [fmt(m.seconds) for m in measurements]
                + [m.ticks for m in measurements]
                + [measurements[0].rows]
            )
        return table_rows, results

    table_rows, results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_series(
        "Figure 11(a): Query 3 running times",
        ["bound", "P1 (DBMS)", "P2 (TJOIN^M)", "P1 ticks", "P2 ticks", "result rows"],
        table_rows,
    )

    def tick_gap(bound: str) -> int:
        return results[(bound, "Q3-P1")].ticks - results[(bound, "Q3-P2")].ticks

    # Plan 2 clearly ahead once most tuples qualify, and the gap widens
    # along the sweep.
    assert tick_gap(BOUNDS[-1]) > 0
    assert tick_gap(BOUNDS[-1]) > tick_gap(BOUNDS[0])


def test_figure11a_optimizer_flips_to_middleware(benchmark, tango):
    """The paper's optimizer returned Plan 1 for the first six bounds and
    Plan 2 for the last three.  Where our calibrated optimizer flips depends
    on the machine (see EXPERIMENTS.md); what must hold is that its choices
    are monotone — once in the middleware, never back — and that the plan
    it picks runs within ``MAX_REGRET`` of the faster of the two measured
    plans at every bound where that plan takes ``GATED_FROM_SECONDS`` or
    more (the others are reported)."""

    def choices():
        from repro.algebra.operators import Location, TemporalJoin

        picked = []
        for bound in BOUNDS:
            result = tango.optimize(query3_initial_plan(tango.db, bound))
            location = next(
                node.location
                for node in result.plan.walk()
                if isinstance(node, TemporalJoin)
            )
            # Best of five, the two plans alternating: this machine changes
            # speed every few seconds, and back-to-back runs share a phase.
            # The whole sweep is ≈ 1 s.
            best = {"Q3-P1": float("inf"), "Q3-P2": float("inf")}
            for _ in range(5):
                for spec in query3_plans(tango.db, bound):
                    seconds = run_spec(tango, spec).seconds
                    best[spec.name] = min(best[spec.name], seconds)
            in_middleware = location is Location.MIDDLEWARE
            picked.append((bound[:4], in_middleware, best))
        return picked

    picked = benchmark.pedantic(choices, rounds=1, iterations=1)

    def chosen(flag: bool, best: dict) -> float:
        return best["Q3-P2" if flag else "Q3-P1"]

    def regret(flag: bool, best: dict) -> float:
        return chosen(flag, best) / min(best.values())

    print_series(
        "Query 3 optimizer choices",
        ["bound", "TJOIN in middleware", "P1 best", "P2 best", "regret", "gated"],
        [
            [bound, flag, fmt(best["Q3-P1"]), fmt(best["Q3-P2"]),
             f"{regret(flag, best):.2f}x", min(best.values()) >= GATED_FROM_SECONDS]
            for bound, flag, best in picked
        ],
    )
    flags = [flag for _, flag, _ in picked]
    # Once the optimizer moves to the middleware it should not flip back.
    first_mw = flags.index(True) if True in flags else len(flags)
    assert all(flags[first_mw:])
    gated = [
        (bound, flag, best)
        for bound, flag, best in picked
        if min(best.values()) >= GATED_FROM_SECONDS
    ]
    assert gated, "no bound ran long enough to gate regret"
    for bound, flag, best in gated:
        assert regret(flag, best) <= MAX_REGRET, (
            f"bound {bound}: the picked plan took {fmt(chosen(flag, best))}, "
            f"the faster one {fmt(min(best.values()))}"
        )
