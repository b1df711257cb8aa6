"""Mid-query re-optimization at TRANSFER^D materialization points.

The scenario is the paper's nightmare case: statistics so wrong that the
optimizer ships a large intermediate result into the DBMS expecting a
tiny one.  The tests corrupt the collector's cached statistics for one
relation (claiming ~10 rows where thousands exist), verify the optimizer
falls for it (the chosen plan materializes via ``TRANSFER^D``), and then
verify the materialization-point probe catches the q-error, re-enters
the optimizer for the remainder, and still produces byte-identical
results with no temp-table leaks.
"""

import pytest

from repro.algebra.builder import scan
from repro.algebra.operators import Location, TransferD
from repro.core.tango import Tango, TangoConfig
from repro.dbms.database import MiniDB

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
    """Replace the collector's cached statistics with a wildly low count."""
    stats = tango.planner.collector.collect(table)
    tango.planner.collector._cache[table.lower()] = stats.with_cardinality(cardinality)


@pytest.fixture(scope="module")
def truth():
    """Ground-truth rows from an honest, non-adaptive execution."""
    db = make_db()
    with Tango(db) as tango:
        optimized = tango.optimize(initial_plan(db))
        # Honest statistics: the optimizer keeps the join in the
        # middleware; no down-transfer, nothing to re-optimize.
        assert not any(
            isinstance(node, TransferD) for node in optimized.plan.walk()
        )
        result = tango.execute_plan(optimized.plan)
        assert tango.metrics.counter("reoptimizations").value == 0
    return result.rows


class TestMidQueryReoptimization:
    def test_reoptimizes_and_matches_oracle(self, truth):
        db = make_db()
        with Tango(
            db, config=TangoConfig(reoptimize_threshold=2.0, tracing=True)
        ) as tango:
            corrupt_stats(tango)
            optimized = tango.optimize(initial_plan(db))
            # The corrupted statistics must actually fool the optimizer
            # into materializing in the DBMS; otherwise this test is
            # vacuous.
            assert any(
                isinstance(node, TransferD) for node in optimized.plan.walk()
            )
            result = tango.execute_plan(optimized.plan)

            assert result.rows == truth
            assert tango.metrics.counter("reoptimizations").value >= 1
            # The executed plan is the spliced one, not the original.
            assert result.plan is not optimized.plan
            assert not any(
                isinstance(node, TransferD) for node in result.plan.walk()
            )
            leaked = [
                name
                for name in db.list_tables()
                if name.startswith("TANGO_TMP")
            ]
            assert leaked == []

    def test_trace_carries_reoptimize_span(self):
        db = make_db()
        with Tango(
            db, config=TangoConfig(reoptimize_threshold=2.0, tracing=True)
        ) as tango:
            corrupt_stats(tango)
            # run() wraps the whole optimize/execute/re-optimize cycle in
            # one "query" span, so the reoptimize span is in the tree.
            result = tango.run(initial_plan(db))

            reopt_spans = []
            annotated = []

            def collect(span):
                if span.kind == "reoptimize":
                    reopt_spans.append(span)
                if span.attributes.get("reoptimizations"):
                    annotated.append(span)
                for child in span.children:
                    collect(child)

            assert result.trace is not None
            collect(result.trace)
            assert len(reopt_spans) >= 1
            span = reopt_spans[0]
            assert span.attributes["qerror"] > 2.0
            assert span.attributes["actual"] > span.attributes["estimated"]
            assert "cost" in span.attributes
            # The final execution span counts the rounds that led to it.
            assert annotated and annotated[0].attributes["reoptimizations"] >= 1

    def test_qerror_histogram_observed(self):
        db = make_db()
        with Tango(db, config=TangoConfig(reoptimize_threshold=2.0)) as tango:
            corrupt_stats(tango)
            tango.execute_plan(tango.optimize(initial_plan(db)).plan)
            histogram = tango.metrics.histogram("qerror")
            assert histogram.count >= 1

    def test_below_threshold_runs_to_completion(self, truth):
        db = make_db()
        # An effectively infinite threshold: the probe observes but never
        # triggers, so the misestimated plan runs to completion (and the
        # engine's own teardown drops its temp tables).
        with Tango(db, config=TangoConfig(reoptimize_threshold=1e9)) as tango:
            corrupt_stats(tango)
            result = tango.execute_plan(tango.optimize(initial_plan(db)).plan)
            assert result.rows == truth
            assert tango.metrics.counter("reoptimizations").value == 0
        leaked = [
            name for name in db.list_tables() if name.startswith("TANGO_TMP")
        ]
        assert leaked == []

    def test_learns_cardinalities_at_materialization(self):
        db = make_db()
        config = TangoConfig(reoptimize_threshold=2.0, learn_cardinalities=True)
        with Tango(db, config=config) as tango:
            corrupt_stats(tango)
            tango.execute_plan(tango.optimize(initial_plan(db)).plan)
            # The probe fed the observed cardinality of the coalesced
            # subtree into the feedback store before re-optimizing.
            assert len(tango.learner.store) >= 1
            assert (
                tango.metrics.counter("cardinality_feedback_updates").value
                >= 1
            )


class TestExplainAnalyzeAnnotations:
    def test_reoptimized_run_is_annotated(self):
        db = make_db()
        with Tango(db, config=TangoConfig(reoptimize_threshold=2.0)) as tango:
            corrupt_stats(tango)
            report = tango.explain_analyze(initial_plan(db))
            text = str(report)
            assert report.reoptimized is True
            assert "[reoptimized]" in text
            assert "q-err" in text
            # The splice gave the final round exact statistics for the
            # completed prefix, so the surviving estimates converge — the
            # report shows the *repaired* execution.

    def test_flagging_without_materialization_point(self):
        # A misestimated plan with no TRANSFER^D has no place to catch
        # the error mid-query: the report must flag the q-error instead.
        db = make_db()
        with Tango(db, config=TangoConfig(reoptimize_threshold=2.0)) as tango:
            corrupt_stats(tango)
            plan = scan(db, "BIGPOS").to_middleware().build()
            report = tango.explain_analyze(plan)
            assert report.reoptimized is False
            flagged = [
                measurement
                for measurement in report.operators
                if measurement.flagged
            ]
            assert flagged
            assert all(m.qerror > 2.0 for m in flagged)
            assert "!" in str(report)

    def test_normal_run_is_not_annotated(self):
        db = make_db()
        with Tango(db, config=TangoConfig(reoptimize_threshold=2.0)) as tango:
            report = tango.explain_analyze(initial_plan(db))
            assert report.reoptimized is False
            assert "[reoptimized]" not in str(report)
