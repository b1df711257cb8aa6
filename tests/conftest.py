"""Shared fixtures.

``figure3_db`` is the 3-tuple POSITION relation of the paper's Figure 3 —
the worked example every layer is checked against.  ``uis_db`` is a small
scaled UIS instance shared (read-only) across integration tests.

Setting ``TANGO_CHAOS_P`` (and optionally ``TANGO_CHAOS_SEED``) runs the
whole suite under seeded fault injection: every :class:`Tango` built
without an explicit injector gets one with that per-call transient
probability on round trips and load chunks.  The CI chaos job uses this to
prove the resilience layer keeps every test green under p=0.2.
"""

from __future__ import annotations

import os
from itertools import islice
from typing import Iterable, Iterator

import pytest

from repro.algebra.schema import Schema
from repro.dbms.database import MiniDB
from repro.dbms.jdbc import Connection
from repro.workloads.uis import load_uis
from repro.xxl.cursor import Cursor


@pytest.fixture(autouse=True)
def _chaos_profile(monkeypatch):
    """Env-driven chaos: default a FaultInjector into every Tango."""
    p = float(os.environ.get("TANGO_CHAOS_P", "0") or 0)
    if p <= 0:
        yield
        return
    seed = int(os.environ.get("TANGO_CHAOS_SEED", "0") or 0)
    from dataclasses import replace

    from repro.core.tango import Tango, TangoConfig
    from repro.resilience import FaultInjector, FaultPolicy, RetryPolicy

    # Chaos-grade retries: enough attempts that p=0.2 cannot plausibly
    # exhaust a call site (0.2^10), and zero backoff sleep so the suite's
    # wall time and timing-sensitive assertions stay usable.
    chaos_retry = RetryPolicy(
        max_attempts=10,
        budget=100_000,
        base_delay_seconds=0.0,
        max_delay_seconds=0.0,
    )
    original_init = Tango.__init__

    def chaotic_init(self, db, config=None, *, fault_injector=None, **kwargs):
        if fault_injector is None:
            fault_injector = FaultInjector(
                FaultPolicy(round_trip_p=p, load_chunk_p=p), seed=seed
            )
            if isinstance(config, TangoConfig):
                config = replace(config, retry=chaos_retry)
            elif config is None:
                config = TangoConfig(retry=chaos_retry)
        original_init(self, db, config, fault_injector=fault_injector, **kwargs)

    monkeypatch.setattr(Tango, "__init__", chaotic_init)
    yield


FIGURE3_ROWS = [
    (1, "Tom", 2, 20),
    (1, "Jane", 5, 25),
    (2, "Tom", 5, 10),
]

#: Figure 3(c): the temporal aggregation result.
FIGURE3_AGGREGATION = [
    (1, 2, 5, 1),
    (1, 5, 20, 2),
    (1, 20, 25, 1),
    (2, 5, 10, 1),
]

#: Figure 3(b): the full query result (count of employees per position).
FIGURE3_QUERY_RESULT = [
    (1, "Tom", 2, 5, 1),
    (1, "Tom", 5, 20, 2),
    (1, "Jane", 5, 20, 2),
    (1, "Jane", 20, 25, 1),
    (2, "Tom", 5, 10, 1),
]


def make_figure3_db() -> MiniDB:
    db = MiniDB()
    db.execute(
        "CREATE TABLE POSITION (PosID INT, EmpName VARCHAR(16), T1 DATE, T2 DATE)"
    )
    values = ", ".join(
        f"({pos}, '{name}', {t1}, {t2})" for pos, name, t1, t2 in FIGURE3_ROWS
    )
    db.execute(f"INSERT INTO POSITION VALUES {values}")
    db.analyze("POSITION")
    return db


def pending_delta(db: MiniDB, name: str) -> int | None:
    """Rows *name* changed since its last ANALYZE, as its DML tracker counts
    them; None for a table that never took ``insert_rows`` / ``delete_rows``
    (the catalog keeps nothing for it)."""
    tracker = db._dml.get(name.lower())
    return None if tracker is None else db.table(name).changes - tracker.since


def learn(root, fingerprint: str, rows: float) -> bool:
    """Record one learned cardinality in *root*'s store by hand, as a run
    would, and have its planner hear; True when the change was material."""
    material = root.learner.store.observe(fingerprint, rows)
    root.planner.learned(material)
    return material


class IterableCursor(Cursor):
    """Adapts any row iterable (a generator, an endless one) to the cursor
    protocol: the test source for what a relation cannot be."""

    algorithm = "ITERABLE^M"

    def __init__(self, schema: Schema, rows: Iterable[tuple]):
        super().__init__(schema)
        self._rows = rows
        self._iterator: Iterator[tuple] | None = None

    def _open(self) -> None:
        self._iterator = iter(self._rows)

    def _next_batch(self, n: int) -> list[tuple]:
        assert self._iterator is not None
        return list(islice(self._iterator, n))


@pytest.fixture
def figure3_db() -> MiniDB:
    return make_figure3_db()


@pytest.fixture
def figure3_connection(figure3_db) -> Connection:
    return Connection(figure3_db)


@pytest.fixture
def scans(monkeypatch) -> list:
    """The table of every ``Table.column_values`` call — ANALYZE's one way
    of reading a table, so a table absent from the list after ``analyze``
    had its statistics folded from the delta (DESIGN.md §20)."""
    from repro.dbms.table import Table

    calls: list[Table] = []
    original = Table.column_values

    def counting(self, name):
        calls.append(self)
        return original(self, name)

    monkeypatch.setattr(Table, "column_values", counting)
    return calls


@pytest.fixture(scope="session")
def uis_db() -> MiniDB:
    """A small UIS instance (scale 0.01).  Treat as read-only."""
    db = MiniDB()
    load_uis(db, scale=0.01)
    return db


@pytest.fixture(scope="session")
def uis_tango(uis_db):
    from repro.core.tango import Tango

    return Tango(uis_db)
