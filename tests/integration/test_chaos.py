"""Chaos integration: the paper's four queries under seeded transient
faults must return exactly the fault-free answers, retry visibly, leak no
temp tables, fall back to the all-DBMS plan when the budget runs out, and
honor query deadlines."""

import pytest

from repro.core.tango import Tango, TangoConfig
from repro.dbms.database import MiniDB
from repro.errors import QueryTimeoutError, RetryExhaustedError
from repro.fuzz.compare import canonical_rows
from repro.optimizer.search import OptimizationResult
from repro.resilience import FaultInjector, FaultPolicy
from repro.workloads import queries
from repro.workloads.uis import load_uis

#: Per-call transient probability of the acceptance scenario.
CHAOS_P = 0.2
CHAOS_SEED = 20010521

Q1_SQL = queries.query1_sql()


def chaos_policy(p=CHAOS_P):
    return FaultPolicy(round_trip_p=p, load_chunk_p=p)


@pytest.fixture(scope="module")
def chaos_db():
    db = MiniDB()
    load_uis(db, scale=0.01, with_variants=False)
    return db


@pytest.fixture(scope="module")
def baseline(chaos_db):
    """Fault-free answers for the four queries (the ground truth).

    The explicit zero-probability injector keeps this baseline fault-free
    even when the suite runs under the ``TANGO_CHAOS_P`` env profile.
    """
    tango = Tango(chaos_db, fault_injector=FaultInjector(FaultPolicy(), seed=0))
    return {name: run(tango, name) for name in ("Q1", "Q2", "Q3", "Q4")}


def initial_plan(tango, name):
    db = tango.db
    return {
        "Q2": lambda: queries.query2_initial_plan(db, "1996-01-01"),
        "Q3": lambda: queries.query3_initial_plan(db, "1995-01-01"),
        "Q4": lambda: queries.query4_initial_plan(db),
    }[name]()


def run(tango, name):
    """Execute one of the paper's queries through the full TANGO path."""
    if name == "Q1":
        return tango.query(Q1_SQL).rows
    # Queries 2-4 are not expressible in the VALIDTIME dialect; their entry
    # point is the algebraic initial plan (as in the benchmarks).
    optimization = tango.optimize(initial_plan(tango, name))
    return tango.execute_plan(optimization.plan).rows


def assert_no_leaked_temp_tables(db):
    leaked = [t for t in db.list_tables() if t.startswith("TANGO_TMP")]
    assert leaked == [], f"leaked temp tables: {leaked}"


def assert_same_rows(actual, expected):
    """Canonical multiset comparison (the fuzzer oracle's helper).

    The optimizer is free to pick a plan that reorders rows tying under
    the delivered ORDER BY, so exact list equality here is an implicit
    ordering assumption — and a flake when retries or cost ties nudge
    the plan choice.
    """
    assert canonical_rows(actual) == canonical_rows(expected)


class TestChaosIdentity:
    """p=0.2 on round trips and load chunks: same answers, visible retries."""

    @pytest.mark.parametrize("name", ["Q1", "Q2", "Q3", "Q4"])
    def test_query_survives_chaos_unchanged(self, chaos_db, baseline, name):
        injector = FaultInjector(chaos_policy(), seed=CHAOS_SEED)
        tango = Tango(chaos_db, fault_injector=injector)
        assert_same_rows(run(tango, name), baseline[name])
        assert_no_leaked_temp_tables(chaos_db)

    def test_chaos_run_records_retries(self, chaos_db, baseline):
        injector = FaultInjector(chaos_policy(), seed=CHAOS_SEED)
        tango = Tango(chaos_db, fault_injector=injector)
        for name in ("Q1", "Q2", "Q3", "Q4"):
            assert_same_rows(run(tango, name), baseline[name])
        assert injector.faults_injected > 0
        assert tango.metrics.value("retries") > 0
        assert tango.metrics.value("faults_injected") == injector.faults_injected
        # Every injected transient was cured by a retry, never a fallback.
        assert tango.metrics.value("retries") >= injector.faults_injected
        assert tango.metrics.value("fallbacks") == 0
        assert_no_leaked_temp_tables(chaos_db)

    def test_same_seed_same_schedule_across_runs(self, chaos_db, baseline):
        def fault_count():
            injector = FaultInjector(chaos_policy(), seed=CHAOS_SEED)
            tango = Tango(chaos_db, fault_injector=injector)
            assert_same_rows(run(tango, "Q1"), baseline["Q1"])
            return injector.faults_injected

        assert fault_count() == fault_count()


class TestFallback:
    def force_partitioned_plan(self, tango, sql):
        """Seed the plan cache so query(sql) executes a plan containing a
        ``TRANSFER^D`` (middleware aggregation pushed back down for the
        DBMS sort) instead of whatever the optimizer would pick."""
        from repro.algebra.builder import scan

        plan = (
            scan(tango.db, "POSITION")
            .project("PosID", "T1", "T2")
            .to_middleware()
            .sort("PosID", "T1")
            .taggr(group_by=["PosID"], count="PosID")
            .to_dbms()
            .sort("PosID")
            .to_middleware()
            .build()
        )
        tango.planner.cache.put(
            tango.planner.cache_key(sql),
            OptimizationResult(plan=plan, cost=0.0, class_count=0, element_count=0),
        )

    def test_budget_exhaustion_falls_back_to_all_dbms_plan(
        self, chaos_db, baseline
    ):
        # Every TRANSFER^D chunk faults: the partitioned plan can never
        # finish, so the query must re-run on the Section 3.1 initial plan
        # (which has no T^D) and still answer correctly.
        injector = FaultInjector(FaultPolicy(load_chunk_p=1.0), seed=CHAOS_SEED)
        tango = Tango(chaos_db, fault_injector=injector)
        self.force_partitioned_plan(tango, Q1_SQL)
        result = tango.query(Q1_SQL)
        # The initial plan orders groups only by PosID, so compare as a
        # multiset of constant intervals rather than exact row order.
        assert_same_rows(result.rows, baseline["Q1"])
        assert tango.metrics.value("fallbacks") == 1
        assert tango.metrics.value("retries") > 0
        assert_no_leaked_temp_tables(chaos_db)

    def test_fallback_disabled_surfaces_the_error(self, chaos_db):
        injector = FaultInjector(FaultPolicy(load_chunk_p=1.0), seed=CHAOS_SEED)
        tango = Tango(
            chaos_db, config=TangoConfig(fallback=False), fault_injector=injector
        )
        self.force_partitioned_plan(tango, Q1_SQL)
        with pytest.raises(RetryExhaustedError):
            tango.query(Q1_SQL)
        assert tango.metrics.value("fallbacks") == 0
        assert_no_leaked_temp_tables(chaos_db)

    def test_fallback_is_annotated_in_trace(self, chaos_db, baseline):
        injector = FaultInjector(FaultPolicy(load_chunk_p=1.0), seed=CHAOS_SEED)
        tango = Tango(
            chaos_db, config=TangoConfig(tracing=True), fault_injector=injector
        )
        self.force_partitioned_plan(tango, Q1_SQL)
        result = tango.query(Q1_SQL)
        assert_same_rows(result.rows, baseline["Q1"])
        spans = result.trace.find_all(kind="fallback")
        assert len(spans) == 1
        assert spans[0].attributes["retries"] > 0

    def test_no_fallback_when_the_initial_plan_cannot_run(self, chaos_db):
        # A coalescing query's Section 3.1 plan holds a ``Coalesce^D``, which
        # no algorithm evaluates (rule X1 is what makes the query runnable):
        # there is no all-DBMS plan to fall back to, so the outage surfaces
        # as what it is — not as a PlanError from a fallback that cannot run.
        injector = FaultInjector(FaultPolicy(round_trip_p=1.0), seed=CHAOS_SEED)
        config = TangoConfig(tracing=True, workers=2)  # workers: there is a pool
        with Tango(chaos_db, config=config, fault_injector=injector) as tango:
            with pytest.raises(RetryExhaustedError) as raised:
                tango.query("VALIDTIME COALESCED SELECT PosID FROM POSITION")
            # ... and as it was raised: not chained from a fallback's failure.
            assert not isinstance(raised.value.__cause__, RetryExhaustedError)
            assert tango.metrics.value("fallbacks") == 0
            assert tango.metrics.value("retries") > 0
            assert not tango.tracer.spans[-1].find_all(kind="fallback")
            assert tango.pool.in_use == 0
        assert_no_leaked_temp_tables(chaos_db)


class TestDeadline:
    def test_deadline_violation_raises_with_partial_trace(self, chaos_db):
        tango = Tango(
            chaos_db, config=TangoConfig(deadline_seconds=1e-9, tracing=True)
        )
        with pytest.raises(QueryTimeoutError) as info:
            tango.query(Q1_SQL)
        assert info.value.partial_trace is not None
        assert info.value.partial_trace.attributes.get("deadline_exceeded") is True
        assert tango.metrics.value("deadline_exceeded") == 1
        assert_no_leaked_temp_tables(chaos_db)

    def test_generous_deadline_does_not_fire(self, chaos_db, baseline):
        tango = Tango(chaos_db, config=TangoConfig(deadline_seconds=300.0))
        assert_same_rows(tango.query(Q1_SQL).rows, baseline["Q1"])
        assert tango.metrics.value("deadline_exceeded") == 0

    def test_deadline_is_not_swallowed_by_fallback(self, chaos_db):
        # A deadline is a client-facing contract, not a transient fault:
        # fallback must not catch it.
        tango = Tango(
            chaos_db,
            config=TangoConfig(deadline_seconds=1e-9, fallback=True),
        )
        with pytest.raises(QueryTimeoutError):
            tango.query(Q1_SQL)
        assert tango.metrics.value("fallbacks") == 0
