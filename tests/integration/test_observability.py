"""Integration: the query-lifecycle observability layer on real workloads.

Span-tree shape for the paper's four benchmark queries, metrics counters
across repeated queries, EXPLAIN ANALYZE estimated-vs-actual output, and a
regression check that the Section 7 adaptive loop still converges now that
its observations are derived from spans.
"""

import json
import re
import sys
from pathlib import Path

import pytest

from repro.core.tango import Tango, TangoConfig
from repro.dbms.database import MiniDB
from repro.optimizer.costs import CostFactors
from repro.resilience import FaultInjector, FaultPolicy
from repro.workloads import queries
from repro.workloads.uis import load_uis
from repro.xxl.cursor import BATCH_SIZE


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
        restored = json.loads(json.dumps(result.trace.to_dict()))
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


    def test_partitioned_run_times_every_row_and_sums_per_node(self):
        """An estimate belongs to a plan node; four partition cursors
        implement the ``T^M``.  Each partition row is laid against the
        node's estimate through the sum over them (q-error 1.0, not 3.8-4.1)
        and has a time.  The exchange stands in for the one ``TRANSFER^M``,
        so it sits under ``TAGGR^M``, which runs once, serially."""
        db = MiniDB()
        load_uis(db, scale=0.05, with_variants=False, seed=1)
        config = TangoConfig(workers=4)
        with Tango(db, config, fault_injector=FaultInjector(FaultPolicy(), seed=0)) as tango:
            report = tango.explain_analyze(queries.query1_sql())
        taggr, exchange, *transfers = report.operators
        assert (taggr.algorithm, taggr.depth) == ("TAGGR^M", 0)
        assert (exchange.algorithm, exchange.depth, exchange.workers) == ("EXCHANGE", 1, 4)
        # No SORT^M since PR 21: over the pruned scan the sort is cheaper in
        # the DBMS (10,379 us against 16,516 for Sort^M over all eight
        # columns), which is what ``query1_initial_plan`` always got.
        assert [(m.algorithm, m.depth) for m in transfers] == [("TRANSFER^M", 2)] * 4
        assert all(
            m.actual_total_us is not None and m.actual_self_us is not None
            for m in report.operators
        )
        assert [m.actual_rows for m in transfers] == [1022, 1046, 1094, 1030]
        assert all(m.estimated_rows == 4192 and m.qerror == 1.0 for m in transfers)
        assert exchange.actual_rows == 4192 and exchange.qerror == 1.0
        assert taggr.actual_rows == 7180
        assert taggr.qerror == pytest.approx(7180 / 4721, abs=1e-3)


class TestTracerRetention:
    def test_traced_queries_do_not_accumulate(self, tango):
        """``QueryResult.trace`` is the published record; the tracer keeps
        the most recent root, not one tree per query forever."""
        sql = "VALIDTIME SELECT PosID, COUNT(PosID) FROM POSITION WHERE PosID < 40 GROUP BY PosID"
        results = [tango.query(sql) for _ in range(200)]
        assert len(tango.tracer.spans) <= 1
        assert tango.tracer.last() is results[-1].trace
        for result in (results[0], results[-1]):
            assert result.trace.attributes["rows"] == len(result.rows)
            assert result.trace.find(name="execute").find(kind="transfer") is not None

    def test_an_untraced_query_leaves_the_null_span_empty(self, uis_db):
        from repro.obs.tracing import _NULL_SPAN

        Tango(uis_db).query(queries.query1_sql())
        assert _NULL_SPAN.attributes == {}


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


# -- the behaviour pin of PR 18 ---------------------------------------------------------
#
# ``golden_spans.json`` was recorded on the commit *before* the cursor tree
# learned to describe itself (``PYTHONPATH=<that commit>/src python
# tests/integration/test_observability.py --record``): per plan x workers,
# the Figure 5 text and the execution span tree reduced to what
# consumers read; per query, the EXPLAIN ANALYZE rows of the serial run.  The
# reduction drops what that PR removed on purpose (``cursor_id``,
# ``next_calls``) and the two timing keys, which the parent could not put on
# partition cursors; ``test_span_tree_and_figure5_text`` checks those itself.
#
# PR 21 (required-column pruning) re-recorded the four ``Q1 ...`` cases and
# the ``Q1`` explain rows, and nothing else: Query 1 comes in as SQL, and its
# ``T^M`` now sends ``SELECT PosID, T1, T2`` (bytes 160,992 -> 40,248, the
# estimates of ``T^M`` and ``TAGGR^M`` lower with it); span names, kinds,
# keys, rows and batches did not move.
#
# The ``statement`` key left the forty ``TRANSFER^M`` lines when MiniDB's
# parse pool was folded into its prepared plans (``plan`` says hit or miss);
# nothing else moved.
#
# The ten ``batch=1`` cases left with ``TangoConfig.batch_size``; every plan
# now runs at ``BATCH_SIZE``, which the ``batches`` values depend on, so the
# case names keep it.
#
# Moving the exchange below the pipeline re-recorded ``Q1``, ``Q2`` and
# ``Q2-P1 forced`` at ``workers=4``, and nothing else: the exchange stands in for each ordered ``TRANSFER^M``
# (below ``TAGGR^M``, and below both inputs of Query 2's ``TJOIN^M``) instead
# of cloning the pipeline above Query 1's, and each partition's statement
# leads with ``IS NOT NULL`` (the last one: ``IS NULL OR``).  Result rows and
# every transfer's rows, tuples and bytes did not move.

GOLDEN_SPANS = Path(__file__).with_name("golden_spans.json")
DROPPED_KEYS = {"cursor_id", "next_calls", "batch_calls", "init_seconds"}
VALUE_KEYS = ("rows", "tuples", "bytes", "batches", "step", "partition", "direction")
QUERIES = {
    "Q1": lambda db: queries.query1_sql(),
    "Q2": lambda db: queries.query2_initial_plan(db, "1996-01-01"),
    "Q3": lambda db: queries.query3_initial_plan(db, "1995-01-01"),
    "Q4": lambda db: queries.query4_initial_plan(db),
}
PIN_CASES = [
    f"{name} workers={workers} batch={BATCH_SIZE}"
    for name in (*QUERIES, "Q2-P1 forced")
    for workers in (1, 4)
]


def pin_db() -> MiniDB:
    db = MiniDB()
    load_uis(db, scale=0.02, with_variants=False, seed=1)
    return db


def pin_tango(db, workers=1) -> Tango:
    # The explicit zero-probability injector keeps the run fault-free under
    # the TANGO_CHAOS_P profile (a retry adds a ``retries`` key).
    return Tango(
        db,
        config=TangoConfig(tracing=True, workers=workers),
        fault_injector=FaultInjector(FaultPolicy(), seed=0),
    )


def reduce_spans(trace) -> list[str]:
    """One line per span, pre-order: depth, name, kind, attribute keys, and
    the values that do not depend on the clock."""
    lines = []

    def visit(span, depth):
        keys = ",".join(sorted(set(span.attributes) - DROPPED_KEYS))
        values = "".join(
            f" {key}={span.attributes[key]}" for key in VALUE_KEYS if key in span.attributes
        )
        lines.append(f"{depth} {span.name} {span.kind} [{keys}]{values}")
        for child in span.children:
            visit(child, depth + 1)

    visit(trace, 0)
    return lines


def figure5_text(execution) -> str:
    """``describe()`` with temp-table names numbered by first appearance
    (they embed the pid and a process-wide counter)."""
    names: dict[str, str] = {}
    return re.sub(
        r"TANGO_TMP_\d+_\d+",
        lambda match: names.setdefault(match.group(), f"TANGO_TMP#{len(names)}"),
        execution.describe(),
    )


def observe_case(db, case: str):
    """``(Figure 5 text, plain trace, timed trace)`` of one pin case: plain
    through the executor's loop, timed straight through the engine."""
    name, workers = re.fullmatch(r"(.+) workers=(\d) batch=\d+", case).groups()
    with pin_tango(db, int(workers)) as tango:
        if name in QUERIES:
            plan = tango.optimize(QUERIES[name](db)).plan
        else:
            plan = queries.query2_plans(db, "1996-01-01")[0].plan
        plain = tango.execute_plan(plan).trace
        execution = tango.executor.compile(plan)
        text = figure5_text(execution)
        timed = tango.executor.engine.execute(execution, instrument=True).trace
    return text, plain, timed


def explain_rows(report) -> list[list]:
    return [
        [m.algorithm, m.operator, m.depth, m.estimated_rows, m.actual_rows,
         m.estimated_cost_us, m.batches, m.qerror]
        for m in report
    ]


@pytest.fixture(scope="module")
def pinned():
    return pin_db(), json.loads(GOLDEN_SPANS.read_text())


class TestBehaviourPin:
    @pytest.mark.parametrize("case", PIN_CASES)
    def test_span_tree_and_figure5_text(self, pinned, case):
        db, golden = pinned
        text, plain, timed = observe_case(db, case)
        assert text == golden["cases"][case]["describe"]
        assert reduce_spans(plain) == golden["cases"][case]["spans"]
        assert reduce_spans(timed) == golden["cases"][case]["spans"]
        for span in (*plain.iter(), *timed.iter()):
            assert not {"cursor_id", "next_calls"} & set(span.attributes)
        # Timing is on every cursor of a timed run — partition pipelines
        # included, which the parent left untimed — and on none otherwise.
        operators = [s for s in timed.iter() if s.kind in ("cursor", "transfer", "exchange")]
        assert operators and all(
            span.seconds is not None and {"batch_calls", "init_seconds"} <= set(span.attributes)
            for span in operators
        )
        assert not any(
            {"batch_calls", "init_seconds"} & set(span.attributes) for span in plain.iter()
        )

    @pytest.mark.parametrize("name", QUERIES)
    def test_serial_explain_analyze_rows(self, pinned, name):
        db, golden = pinned
        with pin_tango(db) as tango:
            report = tango.explain_analyze(QUERIES[name](db))
        assert json.loads(json.dumps(explain_rows(report))) == golden["explain"][name]
        assert all(
            m.actual_total_us is not None and m.actual_self_us is not None for m in report
        )


def record() -> None:
    db = pin_db()
    golden = {"cases": {}, "explain": {}}
    with pin_tango(db) as tango:
        for name, query in QUERIES.items():
            golden["explain"][name] = explain_rows(tango.explain_analyze(query(db)))
    for case in PIN_CASES:
        text, plain, timed = observe_case(db, case)
        assert reduce_spans(plain) == reduce_spans(timed), case
        golden["cases"][case] = {"describe": text, "spans": reduce_spans(plain)}
    GOLDEN_SPANS.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"recorded {len(PIN_CASES)} cases to {GOLDEN_SPANS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_observability.py --record")
    record()
