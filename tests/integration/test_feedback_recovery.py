"""The cardinality feedback store recovers from a misestimate — for the
next plan, not the running one.

The scenario is the paper's nightmare case: statistics so wrong that the
optimizer ships a large intermediate result into the DBMS expecting a
tiny one.  The tests corrupt the collector's cached statistics for one
relation (claiming ~10 rows where thousands exist) and verify the
optimizer falls for it (the chosen plan materializes via ``TRANSFER^D``).
That run completes with the oracle's rows and teaches the store the
coalesced subtree's true cardinality; the next session, loading the store
from the same ``feedback_path``, plans without ``TRANSFER^D`` under the
same corrupted statistics.  No temp table is left behind either way.
"""

import pytest

from repro.algebra.builder import scan
from repro.algebra.operators import Coalesce, Location, TransferD
from repro.core.tango import Tango, TangoConfig
from repro.dbms.database import MiniDB
from repro.stats.fingerprint import plan_fingerprint

HOT_KEYS = 40
ROWS_PER_KEY = 50


def make_db() -> MiniDB:
    db = MiniDB()
    db.execute("CREATE TABLE BIGPOS (PosID INT, Grade INT, T1 DATE, T2 DATE)")
    rows = []
    # Distinct Grade values keep coalescing from merging anything, so the
    # materialized intermediate really is HOT_KEYS * ROWS_PER_KEY rows.
    for key in range(HOT_KEYS):
        for i in range(ROWS_PER_KEY):
            rows.append((key, i, i * 3, i * 3 + 2))
    values = ", ".join(f"({p}, {g}, {a}, {b})" for p, g, a, b in rows)
    db.execute(f"INSERT INTO BIGPOS VALUES {values}")
    db.execute("CREATE TABLE EMP (EmpID INT, PosID INT, T1 DATE, T2 DATE)")
    emp = [(i, i % HOT_KEYS, 0, 200) for i in range(120)]
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


def corrupt_stats(tango: Tango, table: str = "BIGPOS", cardinality=10.0):
    """Replace the collector's cached statistics with a wildly low count
    (kept against the catalog entry they were read from, so they serve)."""
    collector = tango.planner.collector
    stats = collector.collect(table)
    catalog, _ = collector._cache[table.lower()]
    collector._cache[table.lower()] = catalog, stats.with_cardinality(cardinality)


def has_transfer_d(plan) -> bool:
    return any(isinstance(node, TransferD) for node in plan.walk())


def leaked_temp_tables(db) -> list[str]:
    return [name for name in db.list_tables() if name.startswith("TANGO_TMP")]


def misestimated_run(db, config: TangoConfig):
    """Plan under corrupted statistics — asserting the optimizer is fooled
    into a ``TRANSFER^D``, or the scenario is vacuous — and run that plan
    to completion.  Returns the session (still open), the plan and the
    result."""
    tango = Tango(db, config=config)
    corrupt_stats(tango)
    plan = tango.optimize(initial_plan(db)).plan
    assert has_transfer_d(plan)
    return tango, plan, tango.execute_plan(plan)


@pytest.fixture(scope="module")
def truth():
    """Ground-truth rows from an honest, non-adaptive execution."""
    db = make_db()
    with Tango(db) as tango:
        optimized = tango.optimize(initial_plan(db))
        # Honest statistics: the optimizer keeps the join in the
        # middleware; no down-transfer.
        assert not has_transfer_d(optimized.plan)
        result = tango.execute_plan(optimized.plan)
    return result.rows


class TestMisestimatedRun:
    def test_runs_to_completion_with_the_oracles_rows(self, truth):
        db = make_db()
        tango, _, result = misestimated_run(db, TangoConfig(tracing=True))
        with tango:
            assert result.rows == truth
        assert leaked_temp_tables(db) == []

    def test_runs_the_plan_that_was_chosen(self, truth):
        """However wrong the estimate, the misestimated plan runs as chosen
        (and the engine's own teardown drops its temp tables)."""
        db = make_db()
        tango, plan, result = misestimated_run(db, TangoConfig())
        with tango:
            # Nothing re-plans a running query.
            assert result.plan is plan
            assert has_transfer_d(result.plan)
            assert result.rows == truth
        assert leaked_temp_tables(db) == []

    def test_stores_the_coalesced_subtrees_cardinality(self):
        db = make_db()
        tango, plan, _ = misestimated_run(db, TangoConfig(learn_cardinalities=True))
        with tango:
            coalesce = next(node for node in plan.walk() if isinstance(node, Coalesce))
            learned = tango.learner.store.learned_cardinality(plan_fingerprint(coalesce))
            assert learned == HOT_KEYS * ROWS_PER_KEY
            assert tango.metrics.value("cardinality_feedback_updates") >= 1

    def test_qerror_histogram_observed(self):
        db = make_db()
        tango, _, _ = misestimated_run(db, TangoConfig(learn_cardinalities=True))
        with tango:
            histogram = tango.metrics.histogram("qerror")
            assert histogram.count >= 1


class TestNextSession:
    def test_plans_without_transfer_d(self, truth, tmp_path):
        db = make_db()
        config = TangoConfig(
            learn_cardinalities=True, feedback_path=str(tmp_path / "feedback.json")
        )
        first, _, _ = misestimated_run(db, config)
        first.close()  # persists what the completed run learned
        with Tango(db, config=config) as second:
            corrupt_stats(second)  # the learned cardinality beats it
            plan = second.optimize(initial_plan(db)).plan
            assert not has_transfer_d(plan)
            assert second.execute_plan(plan).rows == truth
        assert leaked_temp_tables(db) == []


class TestExplainAnalyze:
    def test_report_lays_the_misestimate_bare(self):
        """The q-err column shows how wrong the estimate that chose the
        plan was; there is no threshold marker beside it."""
        db = make_db()
        with Tango(db) as tango:
            corrupt_stats(tango)
            plan = scan(db, "BIGPOS").to_middleware().build()
            report = tango.explain_analyze(plan)
            (transfer,) = report.operators
            assert transfer.actual_rows == HOT_KEYS * ROWS_PER_KEY
            assert transfer.qerror == pytest.approx(HOT_KEYS * ROWS_PER_KEY / 10)
            text = str(report)
            assert "q-err" in text and f"{transfer.qerror:.1f}" in text
            assert "!" not in text
