"""The executor's loop, where its transitions compose.

RUN → REPLAN, RUN → FALLBACK and FALLBACK → FAIL are each under test
elsewhere (``test_reoptimization.py``, ``test_chaos.py``,
``test_parallel.py``); these drive the two sequences no test reaches
there: a retry budget that runs out in the round *after* a re-plan splice
(temp tables are being kept alive across rounds at that moment), and a
fallback that itself fails.  Either way nothing may be left behind.
"""

import threading

import pytest

from repro.algebra.builder import scan
from repro.core.tango import Tango, TangoConfig
from repro.dbms.database import MiniDB
from repro.errors import RetryExhaustedError, TransientError
from repro.resilience import FaultInjector, FaultPolicy, RetryPolicy
from repro.workloads import queries
from repro.workloads.uis import load_uis
from tests.integration.test_reoptimization import corrupt_stats, make_db

IMPATIENT = RetryPolicy(
    max_attempts=3, budget=8, base_delay_seconds=0.0, max_delay_seconds=0.0
)


def initial_plan(db):
    """TAGGR over BIGPOS joined to EMP, everything in the DBMS — a shape
    the fallback can run as is.  Told BIGPOS has ten rows, the optimizer
    aggregates in the middleware and ships the "tiny" result back down
    (``TAGGR^M → T^D → TJOIN^D``), which is where the re-plan fires."""
    return (
        scan(db, "BIGPOS")
        .project("PosID", "T1", "T2")
        .taggr(group_by=["PosID"], count="PosID")
        .temporal_join(scan(db, "EMP").build(), "PosID", "PosID")
        .sort("PosID")
        .to_middleware()
        .build()
    )


def leaked_temp_tables(db) -> list[str]:
    return [name for name in db.list_tables() if name.startswith("TANGO_TMP")]


def exchange_threads() -> list[str]:
    return [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith("tango-exchange")
    ]


class AfterReplanInjector(FaultInjector):
    """Faults the next *burst* DBMS calls once a re-optimization happened —
    enough to exhaust one call site's attempts in the re-planned round,
    and spent by the time the fallback runs."""

    def __init__(self, burst: int):
        super().__init__(FaultPolicy(), seed=0)
        self.burst = burst

    def before(self, op: str) -> None:
        if self.burst and self.metrics.value("reoptimizations") >= 1:
            self.burst -= 1
            self.faults_injected += 1
            raise TransientError(f"injected fault on {op} after the re-plan")


def test_budget_exhausted_after_a_replan_splice_falls_back_clean():
    db = make_db()
    with Tango(db) as honest:
        expected = sorted(honest.run(initial_plan(db)).rows)
    injector = AfterReplanInjector(burst=IMPATIENT.max_attempts)
    config = TangoConfig(reoptimize_threshold=2.0, retry=IMPATIENT, tracing=True)
    with Tango(db, config, fault_injector=injector) as tango:
        corrupt_stats(tango)
        result = tango.run(initial_plan(db))

        assert injector.burst == 0
        assert tango.metrics.value("reoptimizations") == 1
        assert tango.metrics.value("fallbacks") == 1
        assert result.degraded
        assert sorted(result.rows) == expected
        # The splice's temp table was alive when the budget ran out.
        assert leaked_temp_tables(db) == []
        names = [span.name for span in result.trace.iter()]
        assert names.index("reoptimize") < names.index("fallback")
    assert leaked_temp_tables(db) == []


def test_failed_fallback_surfaces_its_own_error_chained_from_the_original():
    db = MiniDB()
    load_uis(db, scale=0.01, with_variants=False)
    injector = FaultInjector(FaultPolicy(round_trip_p=1.0, load_chunk_p=1.0), seed=0)
    config = TangoConfig(workers=4, retry=IMPATIENT)
    tango = Tango(db, config, fault_injector=injector)
    try:
        with pytest.raises(RetryExhaustedError) as raised:
            tango.run(queries.query1_sql())
    finally:
        tango.close()
    error = raised.value
    assert isinstance(error.__cause__, RetryExhaustedError)
    assert error.__cause__ is not error
    assert tango.metrics.value("fallbacks") == 1
    assert leaked_temp_tables(db) == []
    assert tango.pool.in_use == 0
    assert exchange_threads() == []
