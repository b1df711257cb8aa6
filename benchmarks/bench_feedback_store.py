"""The cardinality feedback store, measured: a misestimate corrects the
next plan.

The scenario: statistics for a skewed relation are deliberately
corrupted (the collector's cache claims ~10 rows where thousands exist),
so the optimizer ships the coalesced intermediate down into the DBMS
expecting a tiny materialization — and the DBMS-side temporal join over
hot keys is the slowest shape available.  Three rows:

* **misestimated** — the plan chosen under the corrupted statistics, run
  to completion with ``learn_cardinalities`` on and ``feedback_path`` set:
  the run answers correctly and teaches the store the true cardinalities,
  which ``close()`` persists;
* **warm store** — a second session loads that store; the learned
  cardinality overrides the (still corrupted) estimate *before*
  optimization, so the bad plan is never chosen;
* **honest** — uncorrupted statistics, for reference.

Asserted here, in MiniDB's deterministic ticks (DBMS meter + middleware
meter) — the currency that charges the DBMS-side join over hot keys what the
scenario is about; wall-clock seconds are printed and recorded beside them:

* every row returns rows byte-identical to the misestimated plan's (the
  maximally DBMS-located executable shape, run to completion);
* the warm store costs at least ``BENCH_FEEDBACK_MIN_WARM_SPEEDUP``
  (default 1.5) times fewer ticks than the misestimated plan, and plans
  without a ``TRANSFER^D``;
* no ``TANGO_TMP`` table is left behind.

The ticks are 295,973 (misestimated) against 131,744 (warm and honest),
2.25×.  In wall-clock the warm plan is ≈ 1.0–1.6× the misestimated one at
2,400 rows; it is printed, not gated.

Numbers land in ``BENCH_FEEDBACK_JSON`` (default
``BENCH_feedback_store.json``) so CI can gate and archive the run.
"""

import json
import os
import time

from harness import fmt, print_series

from repro.algebra.builder import scan
from repro.algebra.operators import Location, TransferD
from repro.core.tango import Tango, TangoConfig
from repro.dbms.database import MiniDB

ROUNDS = 3
HOT_KEYS = 40
ROWS_PER_KEY = 60
EMP_ROWS = 240
CORRUPTED_CARDINALITY = 10.0
MIN_WARM_SPEEDUP = float(os.environ.get("BENCH_FEEDBACK_MIN_WARM_SPEEDUP", "1.5"))
RESULTS_PATH = os.environ.get("BENCH_FEEDBACK_JSON", "BENCH_feedback_store.json")


def record(section: str, payload: dict) -> None:
    """Merge one test's numbers into the shared JSON results file."""
    results = {}
    if os.path.exists(RESULTS_PATH):
        with open(RESULTS_PATH) as handle:
            results = json.load(handle)
    results[section] = payload
    with open(RESULTS_PATH, "w") as handle:
        json.dump(results, handle, indent=2)


def make_skewed_db() -> MiniDB:
    db = MiniDB()
    db.execute("CREATE TABLE BIGPOS (PosID INT, Grade INT, T1 DATE, T2 DATE)")
    rows = []
    # Hot join keys; distinct Grade values keep coalescing from merging
    # anything, so the materialized intermediate really is
    # HOT_KEYS * ROWS_PER_KEY rows — 240x the corrupted estimate.
    for key in range(HOT_KEYS):
        for i in range(ROWS_PER_KEY):
            rows.append((key, i, i * 3, i * 3 + 2))
    values = ", ".join(f"({p}, {g}, {a}, {b})" for p, g, a, b in rows)
    db.execute(f"INSERT INTO BIGPOS VALUES {values}")
    db.execute("CREATE TABLE EMP (EmpID INT, PosID INT, T1 DATE, T2 DATE)")
    emp = [(i, i % HOT_KEYS, 0, 200) for i in range(EMP_ROWS)]
    values = ", ".join(f"({a}, {b}, {c}, {d})" for a, b, c, d in emp)
    db.execute(f"INSERT INTO EMP VALUES {values}")
    db.analyze("BIGPOS")
    db.analyze("EMP")
    return db


def initial_plan(db):
    return (
        scan(db, "BIGPOS")
        .coalesce(loc=Location.DBMS)
        .sort("PosID")
        .temporal_join(
            scan(db, "EMP").build(), "PosID", "PosID", loc=Location.DBMS
        )
        .to_middleware()
        .build()
    )


def corrupt_stats(tango: Tango) -> None:
    """Replace the collector's cached BIGPOS statistics with a wildly low
    count, kept beside the catalog entry they were read from so they serve."""
    collector = tango.planner.collector
    stats = collector.collect("BIGPOS")
    catalog, _ = collector._cache["bigpos"]
    collector._cache["bigpos"] = catalog, stats.with_cardinality(CORRUPTED_CARDINALITY)


def best_of(tango: Tango, plan) -> tuple[float, int, list]:
    """Best wall time and fewest ticks over ROUNDS executions, plus the rows."""
    best, fewest, rows = float("inf"), None, None
    meters = (tango.db.meter, tango.middleware_meter)
    for _ in range(ROUNDS):
        before = sum(meter.ticks for meter in meters)
        begin = time.perf_counter()
        result = tango.execute_plan(plan)
        best = min(best, time.perf_counter() - begin)
        ticks = sum(meter.ticks for meter in meters) - before
        fewest = ticks if fewest is None else min(fewest, ticks)
        rows = result.rows
    return best, fewest, rows


def has_transfer_d(plan) -> bool:
    return any(isinstance(node, TransferD) for node in plan.walk())


def test_feedback_store_corrects_the_next_plan(tmp_path):
    db = make_skewed_db()
    config = TangoConfig(
        learn_cardinalities=True, feedback_path=str(tmp_path / "feedback.json")
    )

    # -- misestimated: the maximally DBMS-located executable shape, chosen
    # under the corrupted statistics and run to completion.  Its rows are
    # the ground truth every row must match byte-for-byte, and the run
    # teaches the store.
    misestimated = Tango(db, config=config)
    corrupt_stats(misestimated)
    bad_plan = misestimated.optimize(initial_plan(db)).plan
    assert has_transfer_d(bad_plan), (
        "corrupted statistics failed to fool the optimizer into a "
        "DBMS materialization; the scenario is vacuous"
    )
    t_mis, ticks_mis, oracle_rows = best_of(misestimated, bad_plan)
    learned_entries = len(misestimated.learner.store)
    misestimated.close()  # persists the feedback store to feedback_path
    assert learned_entries >= 1
    assert os.path.exists(config.feedback_path)

    # -- warm store: a brand-new session loads the learned cardinalities;
    # the override beats the (still corrupted) statistics during
    # optimization, so the right plan is chosen up front.
    warm = Tango(db, config=config)
    corrupt_stats(warm)
    warm_plan = warm.optimize(initial_plan(db)).plan
    assert not has_transfer_d(warm_plan), (
        "the warm feedback store failed to steer the optimizer away "
        "from the DBMS materialization"
    )
    t_warm, ticks_warm, warm_rows = best_of(warm, warm_plan)
    warm.close()
    assert warm_rows == oracle_rows

    # -- honest statistics, for reference.
    honest = Tango(db)
    t_honest, ticks_honest, honest_rows = best_of(
        honest, honest.optimize(initial_plan(db)).plan
    )
    honest.close()
    assert honest_rows == oracle_rows

    leaked = [t for t in db.list_tables() if t.startswith("TANGO_TMP")]
    assert leaked == [], f"temp tables leaked: {leaked}"

    warm_speedup = ticks_mis / ticks_warm
    print_series(
        "Feedback store vs a misestimated plan "
        f"({HOT_KEYS * ROWS_PER_KEY} skewed rows, est {CORRUPTED_CARDINALITY:.0f})",
        ["variant", "ticks", "tick speedup", "best wall", "wall speedup"],
        [
            ["misestimated (teaches the store)", ticks_mis, "1.00x", fmt(t_mis),
             "1.00x"],
            ["warm store (next session)", ticks_warm, f"{warm_speedup:.2f}x",
             fmt(t_warm), f"{t_mis / t_warm:.2f}x"],
            ["honest statistics", ticks_honest, f"{ticks_mis / ticks_honest:.2f}x",
             fmt(t_honest), f"{t_mis / t_honest:.2f}x"],
        ],
    )
    record(
        "feedback_store",
        {
            "skewed_rows": HOT_KEYS * ROWS_PER_KEY,
            "corrupted_cardinality": CORRUPTED_CARDINALITY,
            "result_rows": len(oracle_rows),
            "best_seconds": {
                "misestimated": t_mis,
                "warm_store": t_warm,
                "honest": t_honest,
            },
            "ticks": {
                "misestimated": ticks_mis,
                "warm_store": ticks_warm,
                "honest": ticks_honest,
            },
            "warm_tick_speedup": warm_speedup,
            "warm_wall_speedup": t_mis / t_warm,
            "learned_entries": learned_entries,
            "min_warm_speedup_required": MIN_WARM_SPEEDUP,
        },
    )

    assert warm_speedup >= MIN_WARM_SPEEDUP, (
        f"the warm feedback store is only {warm_speedup:.2f}x the "
        f"misestimated plan in ticks (need >= {MIN_WARM_SPEEDUP}x): "
        f"{ticks_warm} vs {ticks_mis}"
    )
