"""Integration: the planning-epoch plan cache across the benchmark queries.

Correctness contract: an identical re-run is a cache hit that skips the
optimizer; cached plans return the same answers as fresh ones; and
*everything* a plan is priced with — statistics, cost factors, learned
cardinalities — moves the one planning epoch (``planner.epoch``) exactly
once when it materially changes, while immaterial drift leaves cached
plans alone (the staleness matrix below).  Statistics are the catalog's,
so replacing them re-plans every planner on the database, a query
service's as well as the Tango's that replaced them.
"""

import threading
from types import SimpleNamespace

import pytest

from repro.core.engine import TransferObservation
from repro.core.tango import Tango, TangoConfig
from repro.dbms.database import MiniDB
from repro.service import QueryService, ServiceConfig
from repro.workloads import queries
from repro.workloads.uis import load_uis
from tests.conftest import learn


@pytest.fixture
def tango(uis_db):
    return Tango(uis_db)


def benchmark_queries(db):
    """Queries 1-4: Query 1 as SQL text, 2-4 as initial algebra trees."""
    return [
        queries.query1_sql(),
        queries.query2_initial_plan(db, "1996-01-01"),
        queries.query3_initial_plan(db, "1995-01-01"),
        queries.query4_initial_plan(db),
    ]


class TestCacheHits:
    def test_identical_rerun_skips_optimizer(self, tango):
        for query in benchmark_queries(tango.db):
            runs_before = tango.metrics.value("optimizer_runs")
            first = tango.optimize(query)
            assert tango.metrics.value("optimizer_runs") == runs_before + 1
            second = tango.optimize(query)
            # Same object, no new optimizer invocation.
            assert second is first
            assert tango.metrics.value("optimizer_runs") == runs_before + 1
        assert tango.metrics.value("plan_cache_hits") == 4
        assert tango.metrics.value("plan_cache_misses") == 4

    def test_cached_query_answers_match(self, tango):
        first = tango.query(queries.query1_sql())
        second = tango.query(queries.query1_sql())
        assert second.rows == first.rows
        assert tango.metrics.value("plan_cache_hits") == 1

    def test_a_hit_never_waits_for_another_threads_optimization(self, tango):
        first = tango.optimize(queries.query1_sql())
        served = []
        with tango.planner._lock:  # as held by a thread optimizing a miss
            reader = threading.Thread(
                target=lambda: served.append(tango.optimize(queries.query1_sql()))
            )
            reader.start()
            reader.join(timeout=10)
            assert not reader.is_alive()
        assert served == [first]

    def test_whitespace_variant_hits(self, tango):
        tango.optimize(queries.query1_sql())
        # Whitespace only: a spelling names what it names (an alias, a
        # result column), so a text spelled otherwise is planned apart.
        variant = "  " + queries.query1_sql().replace(" FROM ", "\n  FROM ")
        tango.optimize(variant)
        assert tango.metrics.value("plan_cache_hits") == 1
        assert tango.metrics.value("optimizer_runs") == 1


class TestUpdateInvalidation:
    @pytest.fixture
    def learning_tango(self, figure3_db):
        return Tango(figure3_db, TangoConfig(learn_cardinalities=True))

    def test_apply_updates_invalidates_cached_plans(self, learning_tango):
        tango = learning_tango
        first = tango.optimize(queries.query1_sql())
        assert tango.optimize(queries.query1_sql()) is first
        assert tango.metrics.value("plan_cache_hits") == 1

        doomed = tango.db.table("POSITION").rows[0]
        tango.apply_updates("POSITION", deletes=[doomed])

        tango.optimize(queries.query1_sql())
        assert tango.metrics.value("optimizer_runs") == 2
        assert tango.metrics.value("plan_cache_hits") == 1

    def test_a_service_on_the_same_database_re_plans_at_the_new_estimate(self):
        """The statistics one root replaces are every planner's: a query
        service's cached Query 1 plan dies with them."""
        db = MiniDB()
        load_uis(db, scale=0.01, with_variants=False)
        sql = queries.query1_sql()
        with Tango(db) as tango, QueryService(db, ServiceConfig(max_concurrency=1)) as service:
            before = service.planner.plan(sql).cost
            assert tango.optimize(sql).cost == before
            rows = list(db.table("POSITION").rows)
            tango.apply_updates("POSITION", inserts=rows * 4)
            estimate = tango.optimize(sql).cost
            assert estimate > before
            assert service.planner.plan(sql).cost == estimate
            assert service.metrics.value("plan_cache_hits") == 0

    def test_apply_updates_forgets_learned_cardinalities(self, learning_tango):
        tango = learning_tango
        # Execute once so the feedback store learns cardinalities that
        # read POSITION.
        tango.query(queries.query1_sql())
        learned = tango.learner.store.to_dict()["entries"]
        assert learned

        doomed = tango.db.table("POSITION").rows[0]
        tango.apply_updates("POSITION", deletes=[doomed])

        # Every learned entry read POSITION; none is trusted any more.
        for fingerprint in learned:
            assert tango.learner.store.learned_cardinality(fingerprint) is None
        assert tango.learner.store.to_dict()["entries"] == {}

    def test_every_root_forgets_what_another_roots_write_staled(self):
        """A service learned Query 1 over POSITION, and the Tango beside it
        wrote POSITION: the service must price Query 1 as the Tango does,
        not at the cardinalities it learned before the write."""
        db = MiniDB()
        load_uis(db, scale=0.01, with_variants=False)
        sql = queries.query1_sql()
        config = TangoConfig(learn_cardinalities=True)
        with Tango(db, config) as tango, QueryService(
            db, ServiceConfig(max_concurrency=1), tango_config=config
        ) as service:
            tango.query(sql)
            service.query(sql, timeout=60)
            assert service.learner.store.learned_cardinality("scan:position") == 838
            rows = list(db.table("POSITION").rows)
            tango.apply_updates("POSITION", inserts=rows * 4)
            assert service.learner.store.learned_cardinality("scan:position") is None
            assert service.planner.plan(sql).cost == tango.optimize(sql).cost


# -- the staleness matrix ---------------------------------------------------------------

SQL = "VALIDTIME SELECT PosID, COUNT(PosID) FROM POSITION GROUP BY PosID ORDER BY PosID"


def transfers(per_tuple_us: float) -> SimpleNamespace:
    """A finished execution whose one TRANSFER^M took *per_tuple_us* per
    tuple (no bytes, so nothing is attributed to the per-byte term)."""
    observation = TransferObservation("up", 1000, 0, per_tuple_us * 1000 / 1e6)
    return SimpleNamespace(observations=[observation], trace=None)


def with_view(tango):
    tango.create_view("V", SQL)


def with_stale_view(tango):
    with_view(tango)
    tango.apply_updates("POSITION", inserts=[(3, "Ann", 1, 9)])


def with_learned(tango):
    learn(tango, "fp", 100)


def refresh_view(forced, ran):
    def happen(tango):
        assert tango.refresh_view("V", strategy=forced).strategy == ran

    return happen


#: event → (setup, the event, whether it is material to the Tango's own
#: planner, whether to a query service's planner on the same database).
#: Statistics live in the catalog, so whatever replaces them re-plans
#: both; factors and learned cardinalities are the Tango's own.
EVENTS = {
    "refresh_statistics": (
        None, lambda t: t.refresh_statistics(["POSITION"]), True, True
    ),
    "apply_updates": (
        None, lambda t: t.apply_updates("POSITION", inserts=[(3, "Ann", 1, 9)]), True, True
    ),
    "calibrate": (None, lambda t: t.calibrate(sizes=(40,), repeats=1), True, False),
    "factor_drift": (None, lambda t: t.learner.observe(transfers(500.0), None), True, False),
    "factor_drift_within_tolerance": (
        None, lambda t: t.learner.observe(transfers(1.01), None), False, False
    ),
    "learned_new_fingerprint": (None, lambda t: learn(t, "fp", 100), True, False),
    "learned_shift": (with_learned, lambda t: learn(t, "fp", 1000), True, False),
    "learned_shift_within_tolerance": (
        with_learned, lambda t: learn(t, "fp", 101), False, False
    ),
    # A new table's first ANALYZE replaces nothing a plan was priced with,
    # and an incremental refresh (the chooser's pick for a one-row batch)
    # defers the view's ANALYZE.
    "create_view": (None, with_view, False, False),
    "drop_view": (with_view, lambda t: t.views.drop("V"), True, True),
    "refresh_view": (with_stale_view, refresh_view(None, "incremental"), False, False),
    "refresh_view_full": (with_stale_view, refresh_view("full", "full"), True, True),
}


@pytest.mark.parametrize("mode", ["inline", "service"])
@pytest.mark.parametrize("event", EVENTS)
def test_staleness_matrix(figure3_db, event, mode):
    setup, happen, inline, served = EVENTS[event]
    material = inline if mode == "inline" else served
    with Tango(figure3_db, TangoConfig(adaptive=True)) as tango, QueryService(
        figure3_db, ServiceConfig(max_concurrency=1)
    ) as service:
        planner, metrics = (
            (tango.planner, tango.metrics)
            if mode == "inline"
            else (service.planner, service.metrics)
        )

        def planned() -> tuple[int, int]:
            before = metrics.value("plan_cache_misses"), metrics.value("plan_cache_hits")
            planner.plan(SQL)
            return (
                metrics.value("plan_cache_misses") - before[0],
                metrics.value("plan_cache_hits") - before[1],
            )

        if setup is not None:
            setup(tango)
        planned()
        assert planned() == (0, 1)  # warm
        epoch = planner.epoch
        happen(tango)
        assert planned() == ((1, 0) if material else (0, 1))
        assert planner.epoch == epoch + material
        assert planned() == (0, 1)
