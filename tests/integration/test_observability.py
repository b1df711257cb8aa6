"""Integration: the query-lifecycle observability layer on real workloads.

Span-tree shape for the paper's four benchmark queries, metrics counters
across repeated queries, EXPLAIN ANALYZE estimated-vs-actual output, and a
regression check that the Section 7 adaptive loop still converges now that
its observations are derived from spans.
"""

import pytest

from repro.core.tango import Tango, TangoConfig
from repro.optimizer.costs import CostFactors
from repro.workloads import queries


@pytest.fixture
def tango(uis_db):
    return Tango(uis_db, config=TangoConfig(tracing=True))


def lifecycle_trace(tango, initial_plan):
    """Run optimize + execute under one root span, as Tango.query does for
    SQL input; Queries 2-4 enter as algebra trees."""
    with tango.tracer.span("query", kind="query") as root:
        optimization = tango.optimize(initial_plan)
        tango.execute_plan(optimization.plan)
    return root


class TestSpanTreeShape:
    """One test per benchmark query (Section 5.2)."""

    def assert_lifecycle(self, trace, phases=("optimize", "translate", "execute")):
        names = [child.name for child in trace.children]
        for phase in phases:
            assert phase in names, f"missing {phase!r} span in {names}"
        optimize = trace.find(name="optimize")
        assert optimize.find(name="explore") is not None
        assert optimize.find(name="extract") is not None
        execute = trace.find(name="execute")
        transfers = [s for s in execute.iter() if s.kind == "transfer"]
        assert transfers, "execution produced no transfer spans"
        ups = [s for s in transfers if s.attributes["direction"] == "up"]
        assert ups, "no TRANSFER^M span — nothing came up from the DBMS"
        for span in transfers:
            assert span.attributes["tuples"] >= 0
            assert span.attributes["bytes"] >= 0
            assert span.attributes["seconds"] >= 0.0

    def test_query1_full_sql_path(self, tango):
        result = tango.query(queries.query1_sql())
        trace = result.trace
        assert trace is not None and trace.kind == "query"
        assert trace.children[0].name == "parse"
        self.assert_lifecycle(trace)
        assert trace.attributes["rows"] == len(result.rows)
        # The TAGGR^M cursor span carries its actual cardinality.
        taggr = trace.find(name="TAGGR^M")
        assert taggr is not None
        assert taggr.attributes["rows"] > 0

    def test_query2_trace(self, tango):
        trace = lifecycle_trace(
            tango, queries.query2_initial_plan(tango.db, "1996-01-01")
        )
        self.assert_lifecycle(trace)

    def test_query3_trace(self, tango):
        trace = lifecycle_trace(
            tango, queries.query3_initial_plan(tango.db, "1995-01-01")
        )
        self.assert_lifecycle(trace)

    def test_query4_trace(self, tango):
        trace = lifecycle_trace(tango, queries.query4_initial_plan(tango.db))
        self.assert_lifecycle(trace)

    def test_trace_round_trips_through_json(self, tango):
        import json

        result = tango.query(queries.query1_sql())
        restored = json.loads(result.trace.to_json())
        assert restored["name"] == "query"
        assert [c["name"] for c in restored["children"]] == [
            c.name for c in result.trace.children
        ]


class TestMetricsAcrossQueries:
    def test_counters_accumulate(self, tango):
        for _ in range(3):
            tango.query(queries.query1_sql())
        assert tango.metrics.value("queries_total") == 3
        assert tango.metrics.value("queries_temporal") == 3
        assert tango.metrics.value("queries_passthrough") == 0
        assert tango.metrics.value("transfer_up_tuples") > 0
        assert tango.metrics.value("transfer_up_bytes") > 0
        assert tango.metrics.value("dbms_round_trips") > 0
        assert tango.metrics.histogram("query_seconds").count == 3
        assert tango.metrics.histogram("execution_seconds").count == 3
        # The plan cache answers the two repeats without re-optimizing.
        assert tango.metrics.histogram("memo_classes").count == 1
        assert tango.metrics.value("optimizer_runs") == 1
        assert tango.metrics.value("plan_cache_hits") == 2
        assert tango.metrics.value("plan_cache_misses") == 1

    def test_passthrough_counted_separately(self, tango):
        tango.query("SELECT PosID FROM POSITION WHERE PosID = 1")
        tango.query(queries.query1_sql())
        assert tango.metrics.value("queries_total") == 2
        assert tango.metrics.value("queries_passthrough") == 1
        assert tango.metrics.value("queries_temporal") == 1

    def test_estimator_cache_effective_across_repeats(self, tango):
        tango.query(queries.query1_sql())
        assert tango.metrics.value("estimator_cache_hits") > 0
        assert tango.metrics.value("estimator_cache_misses") > 0

    def test_transfer_down_counted_when_loading(self, tango):
        """Query 2's middleware plans ship intermediate results down."""
        plan = queries.query2_plans(tango.db, "1996-01-01")[0].plan
        tango.execute_plan(plan)
        assert tango.metrics.value("transfer_down_tuples") > 0
        assert tango.metrics.value("dbms_rows_loaded") > 0


class TestExplainAnalyze:
    def test_query1_estimated_vs_actual(self, tango):
        result = tango.query(queries.query1_sql())
        report = tango.explain_analyze(queries.query1_sql())
        assert len(report) > 0
        algorithms = [m.algorithm for m in report]
        assert "TAGGR^M" in algorithms
        assert "TRANSFER^M" in algorithms
        for measurement in report:
            assert measurement.estimated_rows > 0
            assert measurement.actual_rows >= 0
            assert measurement.estimated_cost_us > 0.0
            assert measurement.actual_total_us >= measurement.actual_self_us
        # The root operator's actual cardinality is the query result's.
        root = report.operators[0]
        assert root.depth == 0
        assert root.actual_rows == len(result.rows)
        assert report.result_rows == len(result.rows)

    def test_all_four_queries_produce_reports(self, tango):
        inputs = [
            queries.query1_sql(),
            queries.query2_initial_plan(tango.db, "1996-01-01"),
            queries.query3_initial_plan(tango.db, "1995-01-01"),
            queries.query4_initial_plan(tango.db),
        ]
        for query in inputs:
            report = tango.explain_analyze(query)
            assert len(report) > 0
            assert report.actual_seconds > 0.0
            assert report.estimated_total_us > 0.0

    def test_rendered_table_lines_up(self, tango):
        text = str(tango.explain_analyze(queries.query1_sql()))
        lines = text.splitlines()
        assert "operator" in lines[0]
        assert "est rows" in lines[0] and "act rows" in lines[0]
        assert any("TAGGR^M" in line for line in lines)
        assert "total" in lines[-1]

    def test_report_to_dict(self, tango):
        exported = tango.explain_analyze(queries.query1_sql()).to_dict()
        assert exported["operators"]
        assert {"algorithm", "estimated_rows", "actual_rows"} <= set(
            exported["operators"][0]
        )

    def test_works_without_tracing_config(self, uis_db):
        """EXPLAIN ANALYZE instruments on its own, whatever the config."""
        tango = Tango(uis_db)  # tracing off
        report = tango.explain_analyze(queries.query1_sql())
        assert len(report) > 0
        assert tango.metrics.value("queries_analyzed") == 1


class TestAdaptiveFeedbackFromSpans:
    def test_stale_factors_converge(self, uis_db):
        """Regression for the Section 7 loop: with observations now derived
        from transfer spans, a wildly wrong per-row transfer cost must still
        be pulled toward the observed value by repeated queries."""
        stale = CostFactors(p_tmr=1e6)
        tango = Tango(
            uis_db, config=TangoConfig(adaptive=True), factors=stale
        )
        previous = tango.planner.factors.p_tmr
        for _ in range(5):
            tango.query(queries.query1_sql())
            assert tango.planner.factors.p_tmr <= previous
            previous = tango.planner.factors.p_tmr
        assert tango.planner.factors.p_tmr < stale.p_tmr / 2
        assert tango.metrics.value("feedback_updates") > 0

    def test_feedback_works_with_tracing_enabled_too(self, uis_db):
        stale = CostFactors(p_tmr=1e6)
        tango = Tango(
            uis_db,
            config=TangoConfig(adaptive=True, tracing=True),
            factors=stale,
        )
        for _ in range(3):
            tango.query(queries.query1_sql())
        assert tango.planner.factors.p_tmr < stale.p_tmr
