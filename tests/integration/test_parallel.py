"""Integration: partition-parallel execution is an invisible optimization.

The paper's four queries must return exactly the serial answers at every
worker count; ``workers=1`` must reproduce the
serial plans verbatim; parallel runs must leak no temp tables, share one
retry budget across partitions, and fall back to the all-DBMS plan when
that budget runs out — chaos included."""

import re

import pytest

from repro.core.tango import Tango, TangoConfig
from repro.dbms.database import MiniDB
from repro.errors import TransientError
from repro.fuzz.compare import canonical_rows
from repro.resilience import FaultInjector, FaultPolicy, RetryPolicy
from repro.workloads import queries
from repro.workloads.uis import load_uis
from repro.xxl import SQLCursor
from repro.xxl.cursor import walk

Q1_SQL = queries.query1_sql()
CHAOS_SEED = 20010521


@pytest.fixture(scope="module")
def parallel_db():
    db = MiniDB()
    load_uis(db, scale=0.01, with_variants=False)
    return db


def initial_plan(db, name):
    return {
        "Q1": lambda: queries.query1_initial_plan(db),
        "Q2": lambda: queries.query2_initial_plan(db, "1996-01-01"),
        "Q3": lambda: queries.query3_initial_plan(db, "1995-01-01"),
        "Q4": lambda: queries.query4_initial_plan(db),
    }[name]()


def run(tango, name):
    if name == "Q1":
        return tango.query(Q1_SQL).rows
    optimization = tango.optimize(initial_plan(tango.db, name))
    return tango.execute_plan(optimization.plan).rows


@pytest.fixture(scope="module")
def baseline(parallel_db):
    """Serial ground truth, fault-free even under the env chaos profile."""
    tango = Tango(
        parallel_db, fault_injector=FaultInjector(FaultPolicy(), seed=0)
    )
    return {name: run(tango, name) for name in ("Q1", "Q2", "Q3", "Q4")}


def assert_no_leaked_temp_tables(db):
    leaked = [t for t in db.list_tables() if t.startswith("TANGO_TMP")]
    assert leaked == [], f"leaked temp tables: {leaked}"


def assert_same_rows(actual, expected):
    """Canonical multiset comparison (the fuzzer oracle's helper)."""
    assert canonical_rows(actual) == canonical_rows(expected)


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("name", ["Q1", "Q2", "Q3", "Q4"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_same_rows_at_every_degree(self, parallel_db, baseline, name, workers):
        # Multiset comparison: the parallel cost terms may legitimately
        # pick a different (cheaper) plan, which can reorder rows that tie
        # under the query's ORDER BY.  The row multiset must be identical.
        tango = Tango(parallel_db, config=TangoConfig(workers=workers))
        assert_same_rows(run(tango, name), baseline[name])
        assert_no_leaked_temp_tables(parallel_db)
        tango.close()

    def test_query1_order_is_preserved_exactly(self, parallel_db, baseline):
        # Query 1's delivered order (PosID, T1) is a key of the result, so
        # exchange reassembly must reproduce the serial order exactly.
        tango = Tango(parallel_db, config=TangoConfig(workers=4))
        assert run(tango, "Q1") == baseline["Q1"]
        tango.close()

    def test_parallel_run_actually_fans_out(self, parallel_db, baseline):
        tango = Tango(parallel_db, config=TangoConfig(workers=4))
        assert_same_rows(run(tango, "Q1"), baseline["Q1"])
        assert tango.metrics.value("exchange_partitions") >= 2
        tango.close()


class TestFanOutBelowAJoin:
    def test_query2_fans_out_under_its_temporal_join_in_serial_order(self):
        # Every DBMS call sleeps 10 ms, as over a wire: the regime the
        # exchange is for.  Both inputs of TJOIN^M are ordered fetches.
        db = MiniDB()
        load_uis(db, scale=0.02, with_variants=False)
        rows, traces = {}, {}
        for workers in (1, 4):
            wire = FaultInjector(FaultPolicy(latency_p=1.0, latency_seconds=0.01), seed=0)
            config = TangoConfig(workers=workers, tracing=True)
            with Tango(db, config=config, fault_injector=wire) as tango:
                plan = tango.optimize(initial_plan(db, "Q2")).plan
                result = tango.execute_plan(plan)
            rows[workers], traces[workers] = result.rows, result.trace
        assert rows[4] == rows[1]  # list-equal, order included
        assert traces[1].find_all(kind="exchange") == []
        join = traces[4].find(name="TJOIN^M")
        exchanges = join.find_all(kind="exchange")
        assert len(exchanges) >= 2
        assert all(span.attributes["partitions"] >= 2 for span in exchanges)
        assert_no_leaked_temp_tables(db)


class TestPartitionStatements:
    """A partition's SQL is the region's own block with its range as one
    more conjunct: the fan-out goes through ``translate()`` like every other
    ``T^M`` (there is no second renderer to keep in step)."""

    #: ``[lo, hi)`` on a non-NULL key, or the last range, which takes NULL.
    RANGE = (
        r"Q1\.PosID IS NOT NULL( AND Q1\.PosID >= (?P<lo>[\d.]+))? AND Q1\.PosID < (?P<hi>[\d.]+)"
        r"|Q1\.PosID IS NULL OR Q1\.PosID >= (?P<last>[\d.]+)"
    )

    def statements(self, db, workers):
        with Tango(db, config=TangoConfig(workers=workers)) as tango:
            execution = tango.executor.compile(tango.optimize(Q1_SQL).plan)
            return [c.sql for c in walk(execution.steps) if isinstance(c, SQLCursor)]

    def test_each_partition_is_one_block_with_its_range(self, parallel_db):
        statements = self.statements(parallel_db, workers=4)
        assert len(statements) == 4
        bounds = []
        for sql in statements:
            assert sql.count("SELECT") == 1
            select, source, where, order = sql.split("\n")
            assert source == "FROM POSITION Q1" and order == "ORDER BY PosID, T1"
            match = re.fullmatch(f"WHERE (?:{self.RANGE})", where)
            assert match, where
            bounds.append((match["lo"] or match["last"], match["hi"]))
        # Open at both extremes, and each range starts where the last ended;
        # only the last one takes NULL.
        assert bounds[0][0] is None and bounds[-1][1] is None
        assert ["IS NULL OR" in sql for sql in statements] == [False] * 3 + [True]
        assert [lo for lo, _ in bounds[1:]] == [hi for _, hi in bounds[:-1]]
        assert None not in [hi for _, hi in bounds[:-1]]

    def test_partitions_concatenate_to_the_serial_statement(self, parallel_db):
        (serial,) = self.statements(parallel_db, workers=1)
        concatenated = [
            row
            for sql in self.statements(parallel_db, workers=4)
            for row in parallel_db.query(sql)
        ]
        assert concatenated == parallel_db.query(serial)

    def test_values_outside_the_histogram_land_in_the_open_partitions(self):
        db = MiniDB()
        load_uis(db, scale=0.01, with_variants=False)
        position = db.table("POSITION")
        template = position.rows[0]
        quiet = FaultInjector(FaultPolicy(), seed=0)  # also under TANGO_CHAOS_P
        with Tango(db, config=TangoConfig(workers=4), fault_injector=quiet) as tango:
            before = tango.query(Q1_SQL).rows
            # Behind the middleware's back: statistics, cut points and the
            # cached plan all predate these two rows.
            position.append((-7,) + template[1:])
            position.append((10**9,) + template[1:])
            after = tango.query(Q1_SQL).rows
            assert tango.metrics.value("exchange_partitions") >= 2
        period = template[-2:]  # POSITION ends (..., T1, T2)
        assert after == [(-7, *period, 1)] + before + [(10**9, *period, 1)]


class TestWorkersOneIsSerial:
    def test_plan_description_is_byte_identical(self, parallel_db):
        serial = Tango(parallel_db)
        one_worker = Tango(parallel_db, config=TangoConfig(workers=1))

        def describe(tango):
            optimization = tango.optimize(initial_plan(tango.db, "Q1"))
            execution = tango.executor.compile(optimization.plan)
            text = execution.describe()
            execution.cleanup()
            return text

        assert describe(one_worker) == describe(serial)
        assert "EXCHANGE" not in describe(one_worker)

    def test_trace_shape_is_identical(self, parallel_db, baseline):
        def span_names(tango):
            result = tango.query(Q1_SQL)
            assert result.rows == baseline["Q1"]
            names = []

            def visit(span):
                names.append((span.name, span.kind))
                for child in span.children:
                    visit(child)

            visit(result.trace)
            return names

        serial = Tango(parallel_db, config=TangoConfig(tracing=True))
        one_worker = Tango(
            parallel_db, config=TangoConfig(tracing=True, workers=1)
        )
        assert span_names(one_worker) == span_names(serial)

    def test_no_pool_is_built_for_serial_sessions(self, parallel_db):
        tango = Tango(parallel_db, config=TangoConfig(workers=1))
        tango.query(Q1_SQL)
        assert tango.pool is None
        tango.close()


class TestParallelObservability:
    def test_explain_analyze_reports_workers(self, parallel_db):
        tango = Tango(parallel_db, config=TangoConfig(workers=4))
        report = tango.explain_analyze(Q1_SQL)
        text = str(report)
        assert "EXCHANGE" in text
        assert "[workers=" in text
        exchange = [m for m in report.operators if m.algorithm == "EXCHANGE"]
        assert len(exchange) == 1 and exchange[0].workers >= 2
        tango.close()

    def test_exchange_trace_has_one_span_per_partition(self, parallel_db):
        tango = Tango(parallel_db, config=TangoConfig(workers=4, tracing=True))
        result = tango.query(Q1_SQL)
        exchange_spans = result.trace.find_all(kind="exchange")
        assert len(exchange_spans) == 1
        span = exchange_spans[0]
        partitions = span.attributes["partitions"]
        assert partitions >= 2
        tagged = [
            child
            for child in span.children
            if child.attributes.get("partition") is not None
        ]
        assert len(tagged) == partitions
        assert 0.0 <= span.attributes["parallel_efficiency"] <= 1.0
        tango.close()

    def test_efficiency_histogram_is_recorded(self, parallel_db):
        tango = Tango(parallel_db, config=TangoConfig(workers=4))
        tango.query(Q1_SQL)
        assert tango.metrics.value("exchange_partitions") >= 2
        histogram = tango.metrics.histogram("parallel_efficiency")
        assert histogram.count >= 1
        tango.close()


class PartitionOnlyInjector(FaultInjector):
    """Faults every DBMS call issued from an exchange worker thread and
    none from the main thread — the deterministic way to kill all
    partitions while leaving the serial fallback healthy."""

    def before(self, op: str) -> None:
        import threading

        if threading.current_thread().name.startswith("tango-exchange"):
            self.faults_injected += 1
            raise TransientError(f"injected partition fault on {op}")
        super().before(op)


class TestRetryBudgetAcrossPartitions:
    def make_tango(self, db, budget):
        return Tango(
            db,
            config=TangoConfig(
                workers=4,
                retry=RetryPolicy(
                    max_attempts=3,
                    budget=budget,
                    base_delay_seconds=0.0,
                    max_delay_seconds=0.0,
                ),
            ),
            fault_injector=PartitionOnlyInjector(FaultPolicy(), seed=CHAOS_SEED),
        )

    def test_exhausted_partitions_fall_back_to_serial(
        self, parallel_db, baseline
    ):
        tango = self.make_tango(parallel_db, budget=4)
        result = tango.query(Q1_SQL)
        # The initial plan orders groups only by PosID; compare as a
        # multiset of constant intervals (as the chaos fallback test does).
        assert_same_rows(result.rows, baseline["Q1"])
        assert tango.metrics.value("fallbacks") == 1
        assert_no_leaked_temp_tables(parallel_db)
        tango.close()

    def test_budget_is_shared_not_per_partition(self, parallel_db, baseline):
        budget = 4
        tango = self.make_tango(parallel_db, budget=budget)
        tango.query(Q1_SQL)
        # Four partitions retrying independently would spend up to 8
        # retries (2 per cursor); the shared budget caps the whole query.
        assert tango.metrics.value("retries") <= budget
        tango.close()


class TestParallelChaosEquivalence:
    def test_seeded_chaos_parallel_answers_unchanged(self, parallel_db, baseline):
        injector = FaultInjector(
            FaultPolicy(round_trip_p=0.2, load_chunk_p=0.2), seed=CHAOS_SEED
        )
        tango = Tango(
            parallel_db,
            config=TangoConfig(
                workers=4,
                retry=RetryPolicy(
                    max_attempts=10,
                    budget=100_000,
                    base_delay_seconds=0.0,
                    max_delay_seconds=0.0,
                ),
            ),
            fault_injector=injector,
        )
        for name in ("Q1", "Q2", "Q3", "Q4"):
            assert_same_rows(run(tango, name), baseline[name])
        assert injector.faults_injected > 0
        assert tango.metrics.value("fallbacks") == 0
        assert_no_leaked_temp_tables(parallel_db)
        tango.close()
