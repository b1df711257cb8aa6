"""Integration: the planning-epoch plan cache across the benchmark queries.

Correctness contract: an identical re-run is a cache hit that skips the
optimizer; cached plans return the same answers as fresh ones; and
*everything* a plan is priced with — statistics, cost factors, learned
cardinalities, the catalog of views — moves the one planning epoch
(``planner.epoch``) exactly once when it materially changes, inline and
through a service's workers alike, while immaterial drift leaves cached
plans alone (the staleness matrix below).
"""

import threading
from types import SimpleNamespace

import pytest

from repro.core.engine import TransferObservation
from repro.core.tango import Tango, TangoConfig
from repro.service import ServiceConfig
from repro.workloads import queries


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

    def test_apply_updates_forgets_learned_cardinalities(self, learning_tango):
        tango = learning_tango
        # Execute once so the feedback store learns cardinalities that
        # read POSITION.
        tango.query(queries.query1_sql())
        assert len(tango.learner.store) > 0

        doomed = tango.db.table("POSITION").rows[0]
        result = tango.apply_updates("POSITION", deletes=[doomed])

        assert result["feedback_invalidated"] > 0
        # Every learned entry read POSITION; all must be gone.
        assert len(tango.learner.store) == 0


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
    tango.learner.learn("fp", 100)


#: event → (setup, the event, whether it is material).  The service cases
#: run on POSITION's three rows: a transfer that small is below the
#: adapter's ``min_tuples``, so executing queries never drifts the factors
#: by itself, and nothing is learned unless the event does it.
EVENTS = {
    "refresh_statistics": (None, lambda t: t.refresh_statistics(["POSITION"]), True),
    "deferred_analyze": (None, lambda t: t.refresh_statistics([], analyze=False), True),
    "apply_updates": (
        None, lambda t: t.apply_updates("POSITION", inserts=[(3, "Ann", 1, 9)]), True
    ),
    "calibrate": (None, lambda t: t.calibrate(sizes=(40,), repeats=1), True),
    "factor_drift": (None, lambda t: t.learner.observe(transfers(500.0), None), True),
    "factor_drift_within_tolerance": (
        None, lambda t: t.learner.observe(transfers(1.01), None), False
    ),
    "learned_new_fingerprint": (None, lambda t: t.learner.learn("fp", 100), True),
    "learned_shift": (with_learned, lambda t: t.learner.learn("fp", 1000), True),
    "learned_shift_within_tolerance": (
        with_learned, lambda t: t.learner.learn("fp", 101), False
    ),
    "create_view": (None, with_view, True),
    "drop_view": (with_view, lambda t: t.drop_view("V"), True),
    "refresh_view": (with_stale_view, lambda t: t.refresh_view("V"), True),
}


@pytest.mark.parametrize("mode", ["inline", "service"])
@pytest.mark.parametrize("event", EVENTS)
def test_staleness_matrix(figure3_db, event, mode):
    setup, happen, material = EVENTS[event]
    service = ServiceConfig(max_concurrency=2) if mode == "service" else None
    with Tango(figure3_db, TangoConfig(adaptive=True, service=service)) as tango:
        # Inline, planning is the facade's optimize(); in service mode it is
        # whatever a worker does for a submitted query.
        plan = tango.optimize if mode == "inline" else tango.query

        def planned() -> tuple[int, int]:
            before = tango.metrics.value("plan_cache_misses"), tango.metrics.value(
                "plan_cache_hits"
            )
            plan(SQL)
            return (
                tango.metrics.value("plan_cache_misses") - before[0],
                tango.metrics.value("plan_cache_hits") - before[1],
            )

        if setup is not None:
            setup(tango)
        planned()
        assert planned() == (0, 1)  # warm
        epoch = tango.planner.epoch
        happen(tango)
        assert tango.planner.epoch == epoch + material
        assert planned() == ((1, 0) if material else (0, 1))
        assert planned() == (0, 1)
