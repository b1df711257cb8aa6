"""The executor's policy, where its transitions compose.

RUN → FALLBACK is under test elsewhere (``test_chaos.py``,
``test_parallel.py``); this drives the sequence no test reaches there: a
fallback that itself fails (FALLBACK → FAIL).  Nothing may be left
behind.
"""

import threading

import pytest

from repro.core.tango import Tango, TangoConfig
from repro.dbms.database import MiniDB
from repro.errors import RetryExhaustedError
from repro.resilience import FaultInjector, FaultPolicy, RetryPolicy
from repro.workloads import queries
from repro.workloads.uis import load_uis

IMPATIENT = RetryPolicy(
    max_attempts=3, budget=8, base_delay_seconds=0.0, max_delay_seconds=0.0
)


def leaked_temp_tables(db) -> list[str]:
    return [name for name in db.list_tables() if name.startswith("TANGO_TMP")]


def exchange_threads() -> list[str]:
    return [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith("tango-exchange")
    ]


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
