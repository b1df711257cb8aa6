"""Unit tests for the observability subsystem (repro.obs)."""

import json

import pytest

from repro.algebra.builder import scan
from repro.core.engine import ExecutionEngine
from repro.core.engine import observations_from_trace
from repro.core.plans import compile_plan
from repro.obs.metrics import Counter, Histogram
from repro.obs import MetricsRegistry, Span, Tracer
from repro.obs.instrument import cursor_span, execution_trace
from repro.obs.tracing import NULL_TRACER, RETAINED_ROOTS
from repro.algebra.schema import AttrType, Attribute, Schema
from repro.xxl.cursor import materialize, walk
from repro.xxl.sort import SortCursor
from repro.xxl.sources import RelationCursor


class TestSpan:
    def test_nesting_and_attributes(self):
        tracer = Tracer()
        with tracer.span("query", kind="query") as root:
            with tracer.span("parse", kind="phase") as child:
                child.set(tokens=7)
        assert tracer.spans == [root]
        assert root.children[0].name == "parse"
        assert root.children[0].attributes["tokens"] == 7
        assert root.elapsed_seconds >= root.children[0].elapsed_seconds

    def test_current_tracks_stack(self):
        tracer = Tracer()
        assert tracer.current is None
        with tracer.span("outer") as outer:
            assert tracer.current is outer
            with tracer.span("inner") as inner:
                assert tracer.current is inner
            assert tracer.current is outer
        assert tracer.current is None

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("query") as span:
            span.set(ignored=True)
        assert tracer.spans == []

    def test_disabled_tracers_span_stores_nothing(self):
        """The null span is module-level and shared by every thread."""
        with NULL_TRACER.span("query") as span:
            assert span.set(rule_attempts=28, cost=1.0) is span
        assert span.attributes == {}

    def test_only_the_most_recent_roots_are_retained(self):
        tracer = Tracer()
        for index in range(200):
            with tracer.span("query", serial=index):
                tracer.attach(Span("execute"))
        assert RETAINED_ROOTS == 1 and len(tracer.spans) == 1
        last = tracer.last()
        assert last.attributes["serial"] == 199
        assert [child.name for child in last.children] == ["execute"]
        assert tracer.drain() == [last] and tracer.spans == []

    def test_attach_adopts_prebuilt_tree(self):
        tracer = Tracer()
        prebuilt = Span("execute", kind="phase", seconds=0.5)
        with tracer.span("query") as root:
            tracer.attach(prebuilt)
        assert prebuilt in root.children

    def test_explicit_seconds_overrides_clock(self):
        span = Span("execute", seconds=1.25)
        assert span.elapsed_seconds == 1.25

    def test_find_and_iter(self):
        root = Span("query", kind="query")
        root.add_child(Span("optimize", kind="phase")).add_child(
            Span("explore", kind="phase")
        )
        assert root.find(name="explore") is not None
        assert root.find(kind="query") is root
        assert root.find(name="missing") is None
        assert len(list(root.iter())) == 3

    def test_to_dict_and_json(self):
        root = Span("query", kind="query", attributes={"sql": "SELECT 1"})
        root.add_child(Span("parse", kind="phase", seconds=0.001))
        exported = root.to_dict()
        assert exported["name"] == "query"
        assert exported["children"][0]["seconds"] == 0.001
        assert json.loads(json.dumps(exported))["attributes"]["sql"] == "SELECT 1"

    def test_render_is_indented(self):
        root = Span("query", seconds=0.001)
        root.add_child(Span("parse", seconds=0.0005))
        lines = root.render().splitlines()
        assert lines[0].startswith("query")
        assert lines[1].startswith("  parse")

    def test_drain_clears_roots(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        drained = tracer.drain()
        assert [span.name for span in drained] == ["a"]
        assert tracer.spans == []


class TestMetrics:
    def test_counter_get_or_create(self):
        metrics = MetricsRegistry()
        metrics.counter("queries").inc()
        metrics.counter("queries").inc(2)
        assert metrics.value("queries") == 3
        assert metrics.value("never_touched") == 0

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)

    def test_histogram_summary(self):
        histogram = Histogram("latency")
        for value in (1.0, 3.0, 2.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.mean == pytest.approx(2.0)
        assert histogram.minimum == 1.0
        assert histogram.maximum == 3.0

    def test_empty_histogram_mean_is_zero(self):
        assert Histogram("empty").mean == 0.0

    def test_to_dict_shape(self):
        metrics = MetricsRegistry()
        metrics.counter("a").inc(5)
        metrics.histogram("b").observe(0.5)
        exported = metrics.to_dict()
        assert exported["counters"] == {"a": 5}
        assert exported["histograms"]["b"]["count"] == 1
        assert metrics.flush() == exported

    def test_reset(self):
        metrics = MetricsRegistry()
        metrics.counter("a").inc()
        metrics.reset()
        assert metrics.to_dict() == {"counters": {}, "histograms": {}}


def _relation_cursor():
    schema = Schema(
        [Attribute("K", AttrType.INT), Attribute("V", AttrType.INT)]
    )
    return RelationCursor(schema, [(1, 10), (2, 20), (3, 30)])


class TestInstrumentedCursor:
    """A cursor is instrumented by telling it to time itself."""

    def test_counts_and_rows(self):
        cursor = SortCursor(_relation_cursor(), ["K"])
        for timed in walk([cursor]):
            timed.timed = True
        cursor.batch_size = 2
        assert materialize(cursor) == [(1, 10), (2, 20), (3, 30)]
        assert cursor.batch_calls == 3  # two batches and the empty one
        assert cursor.rows_produced == 3
        assert cursor.wall_seconds >= cursor.init_seconds >= 0.0
        assert cursor.wall_seconds > 0.0
        # Wall time includes the input's: self time is the difference.
        (source,) = cursor.inputs
        assert source.batch_calls >= 1
        assert 0.0 < source.wall_seconds <= cursor.wall_seconds

    def test_untimed_cursor_records_no_calls(self):
        cursor = _relation_cursor()
        assert materialize(cursor) and not cursor.timed
        assert (cursor.batch_calls, cursor.wall_seconds, cursor.init_seconds) == (0, 0.0, 0.0)
        assert "batch_calls" not in cursor.measurements()

    def test_context_manager_protocol(self):
        cursor = _relation_cursor()
        cursor.timed = True
        with cursor as opened:
            assert opened is cursor
            assert cursor.next_batch()[0] == (1, 10)

    def test_algorithm_label_is_declared_on_the_class(self):
        assert RelationCursor.algorithm == "RELATION^M"
        assert cursor_span(_relation_cursor()).name == "RELATION^M"


class TestExecutionTrace:
    @pytest.fixture
    def execution_plan(self, figure3_db, figure3_connection):
        plan = (
            scan(figure3_db, "POSITION")
            .project("PosID", "T1", "T2")
            .sort("PosID", "T1")
            .to_middleware()
            .taggr(group_by=["PosID"], count="PosID")
            .build()
        )
        return compile_plan(plan, figure3_connection)

    def test_timing_flag_reaches_every_cursor(self, execution_plan):
        steps = list(execution_plan.steps)
        ExecutionEngine().execute(execution_plan, instrument=True)
        # The plan is not rewritten; interior children are timed too.
        assert execution_plan.steps == steps
        cursors = list(walk(execution_plan.steps))
        assert [c.algorithm for c in cursors] == ["TAGGR^M", "TRANSFER^M"]
        assert all(c.timed and c.batch_calls >= 1 for c in cursors)

    def test_trace_without_instrumentation(self, execution_plan):
        outcome = ExecutionEngine().execute(execution_plan)
        trace = outcome.trace
        assert trace is not None
        assert trace.name == "execute"
        transfer = trace.find(kind="transfer")
        assert transfer is not None
        assert transfer.attributes["direction"] == "up"
        assert transfer.attributes["tuples"] == 3
        # Untimed spans have no call counts; transfers self-time anyway.
        assert "batch_calls" not in transfer.attributes
        assert transfer.seconds == transfer.attributes["seconds"] > 0.0

    def test_trace_with_instrumentation(self, execution_plan):
        tracer = Tracer()
        outcome = ExecutionEngine().execute(
            execution_plan, tracer=tracer, instrument=True
        )
        trace = outcome.trace
        assert tracer.spans == [trace]
        taggr = trace.find(name="TAGGR^M")
        assert taggr is not None
        # The engine drains batch-wise, so the signal is in batch_calls.
        assert taggr.attributes["batch_calls"] >= 1
        assert taggr.attributes["init_seconds"] >= 0.0
        assert taggr.attributes["rows"] == len(outcome.rows)
        assert taggr.elapsed_seconds > 0.0
        # Total time includes the input's.
        assert taggr.elapsed_seconds >= trace.find(kind="transfer").elapsed_seconds

    def test_plain_tracing_does_not_wrap_cursors(self, execution_plan):
        """tracing=True must stay cheap: spans without per-call timing,
        over the very cursors that were compiled."""
        tracer = Tracer()
        steps = list(execution_plan.steps)
        outcome = ExecutionEngine().execute(execution_plan, tracer=tracer)
        assert execution_plan.steps == steps
        assert not any(cursor.timed for cursor in walk(execution_plan.steps))
        taggr = outcome.trace.find(name="TAGGR^M")
        assert taggr is not None
        assert taggr.attributes["rows"] == len(outcome.rows)
        assert "batch_calls" not in taggr.attributes and taggr.seconds is None

    def test_spans_carry_the_plan_node_but_do_not_export_it(self, execution_plan):
        trace = ExecutionEngine().execute(execution_plan).trace
        cursors = trace.find_all(kind="cursor") + trace.find_all(kind="transfer")
        assert cursors and all(span.node is not None for span in cursors)
        assert "node" not in json.dumps(trace.to_dict()) and "node=" not in trace.render()
        assert all("cursor_id" not in span.attributes for span in trace.iter())

    def test_observations_derive_from_trace(self, execution_plan):
        outcome = ExecutionEngine().execute(execution_plan)
        derived = observations_from_trace(outcome.trace)
        assert [o.direction for o in derived] == [
            o.direction for o in outcome.observations
        ]
        assert derived and derived[0].tuples == 3

    def test_cursor_span_shared_subtree_emitted_once(self):
        cursor = _relation_cursor()
        materialize(cursor)
        seen = set()
        first = cursor_span(cursor, seen)
        assert first is not None
        assert cursor_span(cursor, seen) is None

    def test_execution_trace_counts_steps(self, execution_plan):
        ExecutionEngine().execute(execution_plan)
        trace = execution_trace(execution_plan, elapsed_seconds=0.0)
        assert trace.attributes["steps"] == len(execution_plan.steps)
