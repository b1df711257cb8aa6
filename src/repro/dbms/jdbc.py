"""A JDBC-flavoured connection/cursor API over MiniDB.

The middleware reaches the DBMS exclusively through this interface, matching
the paper's architecture ("accesses the DBMS using a JDBC interface").  The
cursor models *row prefetch*: rows travel from the engine to the client in
batches of ``prefetch`` rows, and every round trip costs a fixed overhead on
top of the per-row transfer cost.  Section 3.2 notes that the Oracle
row-prefetch setting visibly affects ``TRANSFER^M`` — the ablation benchmark
``bench_ablation_prefetch`` reproduces that effect against this model.  A
statement's ``?`` markers travel with their bind values, as JDBC's
``PreparedStatement`` parameters do.
"""

from __future__ import annotations

import sys
import threading
from typing import Sequence

from repro.algebra.schema import Schema
from repro.dbms.database import MiniDB
from repro.dbms.loader import DirectPathLoader
from repro.dbms.sql.executor import ResultSet
from repro.errors import DatabaseError
from repro.obs.metrics import Counter, MetricsRegistry
from repro.resilience.faults import FaultInjector

#: JDBC row-prefetch of every connection and pool not told otherwise
#: (Section 3.2; Oracle's historical default is 10, ablation A3 sweeps it).
DEFAULT_PREFETCH = 50

#: Simulated CPU cost of one client-server round trip.
ROUND_TRIP_COST = 200

#: Simulated CPU cost per transferred byte (marshalling + network).
PER_BYTE_COST = 1 / 16


class Cursor:
    """A forward-only cursor with batched row delivery."""

    def __init__(self, connection: "Connection", prefetch: int):
        self._connection = connection
        self.prefetch = max(1, prefetch)
        self._result: ResultSet | None = None
        self._buffer: list[tuple] = []
        self._buffer_pos = 0
        self._exhausted = False
        self._round_trips = 0
        self._closed = False
        #: Whether the last SELECT came planned from the database's
        #: prepared plans (None before the first, and for other statements).
        self.plan_hit: bool | None = None

    def _check_usable(self) -> None:
        """Fetches and statements require an open cursor *and* connection.

        The connection check matters: the simulated result set lives
        in-process, so without it a cursor created before
        ``Connection.close()`` would happily keep "fetching" rows over a
        connection the application already released.
        """
        if self._closed:
            raise DatabaseError("cursor is closed")
        if self._connection.closed:
            raise DatabaseError("connection is closed")

    # -- statement execution ------------------------------------------------------

    @property
    def round_trips(self) -> int:
        """Round trips paid by *this* cursor's current result set.

        Per-cursor by construction — pooled connections hand concurrent
        partition cursors out of one pool, and a shared counter would
        double-charge whichever cursor read it last.
        """
        return self._round_trips

    def execute(self, sql: str, binds: Sequence[object] = ()) -> "Cursor":
        """Send *sql*, its ``?`` markers bound to *binds* in text order: a
        statement that differs from another only in its binds is the same
        text, parsed and planned once."""
        self._check_usable()
        self._connection._inject("execute")
        outcome = self._connection.db.execute(sql, binds)
        if isinstance(outcome, ResultSet):
            self.plan_hit = outcome.prepared
            metrics = self._connection.metrics
            if metrics is not None:
                metrics.counter(
                    "dbms_prepared_hits" if self.plan_hit else "dbms_prepared_misses"
                ).inc()
            self._result = outcome
            self._buffer = []
            self._buffer_pos = 0
            self._exhausted = False
            self._round_trips = 0
        else:
            self.plan_hit = None
            self._result = None
        return self

    @property
    def schema(self) -> Schema:
        if self._result is None:
            raise DatabaseError("no open result set")
        return self._result.schema

    # -- fetching -------------------------------------------------------------------

    def _refill(self) -> None:
        """Pull the next prefetch batch across the simulated wire.

        A round trip is charged (and counted) only when the batch carries
        rows — except for the very first one, which a client always pays
        to learn the result is empty.  A result of exactly ``k * prefetch``
        rows therefore costs exactly ``k`` round trips: the trailing
        empty pull that merely discovers exhaustion is free, as it would
        be for a real driver that piggybacks the end-of-data marker on the
        last full batch.
        """
        assert self._result is not None
        self._connection._inject("round_trip")
        batch = self._result.fetchmany(self.prefetch)
        row_width = self.schema.row_width
        if batch or self._round_trips == 0:
            self._round_trips += 1
            meter = self._connection.db.meter
            meter.charge_cpu(ROUND_TRIP_COST)
            meter.charge_cpu(int(len(batch) * row_width * PER_BYTE_COST))
            traffic = self._connection.traffic_counters()
            if traffic is not None:
                round_trips, rows_fetched, bytes_fetched = traffic
                round_trips.inc()
                rows_fetched.inc(len(batch))
                bytes_fetched.inc(len(batch) * row_width)
        if len(batch) < self.prefetch:
            self._exhausted = True
        self._buffer = batch
        self._buffer_pos = 0

    def fetchmany(self, count: int) -> list[tuple]:
        """Up to *count* rows in one call, sliced straight off the prefetch
        buffer — the batched face of ``TRANSFER^M``.

        Exception-safe: if a refill fails mid-call (e.g. an injected
        transient fault), rows already collected are parked back as the
        current buffer before the error propagates, so a retried
        ``fetchmany`` re-serves them instead of dropping them.
        """
        self._check_usable()
        if self._result is None:
            raise DatabaseError("no open result set")
        rows: list[tuple] = []
        while len(rows) < count:
            available = len(self._buffer) - self._buffer_pos
            if available <= 0:
                if self._exhausted:
                    break
                try:
                    self._refill()
                except BaseException:
                    if rows:
                        self._buffer = rows
                        self._buffer_pos = 0
                    raise
                if not self._buffer:
                    break
                continue
            take = min(count - len(rows), available)
            rows.extend(self._buffer[self._buffer_pos : self._buffer_pos + take])
            self._buffer_pos += take
        return rows

    def fetchall(self) -> list[tuple]:
        return self.fetchmany(sys.maxsize)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the result set; idempotent and terminal — any later
        ``execute``/fetch raises instead of resurrecting buffer state."""
        self._closed = True
        self._result = None
        self._buffer = []


class Connection:
    """A client connection to a MiniDB instance.

    When built with a :class:`~repro.obs.metrics.MetricsRegistry`, the
    connection counts its traffic: round trips, rows and bytes fetched,
    rows bulk-loaded.  When built with a
    :class:`~repro.resilience.faults.FaultInjector`, every DBMS touchpoint
    (statement execution, prefetch round trips, load chunks) first passes
    through the injector — the chaos harness the resilience tests and
    benchmarks run the paper's queries under.  Its latency spikes are also
    how a remote DBMS's wire latency is modelled:
    ``FaultPolicy(latency_p=1.0, latency_seconds=L)`` sleeps *L* — releasing
    the GIL — before every one of those calls, outside the injector's lock,
    so pooled connections overlap their waits.
    """

    def __init__(
        self,
        db: MiniDB,
        prefetch: int = DEFAULT_PREFETCH,
        metrics: MetricsRegistry | None = None,
        injector: FaultInjector | None = None,
    ):
        self.db = db
        self.prefetch = prefetch
        self.metrics = metrics
        self.injector = injector
        self._loader = DirectPathLoader(db)
        self._closed = False
        self._traffic: tuple[Counter, Counter, Counter] | None = None

    def traffic_counters(self) -> tuple[Counter, Counter, Counter] | None:
        """The round-trip, rows-fetched and bytes-fetched counters, looked up
        in the registry at the first round trip and kept: a fetch runs once
        per prefetch batch, and each lookup takes the registry's lock on a
        miss.  ``None`` without a registry."""
        if self._traffic is None and self.metrics is not None:
            counter = self.metrics.counter
            self._traffic = (
                counter("dbms_round_trips"),
                counter("dbms_rows_fetched"),
                counter("dbms_bytes_fetched"),
            )
        return self._traffic

    def _inject(self, op: str) -> None:
        if self.injector is not None:
            self.injector.before(op)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the connection; further statements are an error."""
        self._closed = True

    def cursor(self, prefetch: int | None = None) -> Cursor:
        if self._closed:
            raise DatabaseError("connection is closed")
        return Cursor(self, prefetch if prefetch is not None else self.prefetch)

    def execute(self, sql: str, binds: Sequence[object] = ()) -> Cursor:
        """Shorthand: new cursor, execute, return it."""
        return self.cursor().execute(sql, binds)

    def create_temp(self, table_name: str, schema: Schema) -> None:
        """Create an empty direct-path load target (``TRANSFER^D`` setup)."""
        if self._closed:
            raise DatabaseError("connection is closed")
        self._inject("execute")
        self._loader.create(table_name, schema)

    def executemany(
        self,
        table_name: str,
        schema: Schema,
        rows: "Sequence[tuple] | list[tuple]",
        order: Sequence[str] = (),
    ) -> int:
        """Append one batch of rows — the JDBC addBatch/executeBatch
        analogue, riding the direct-path loader.

        ``TRANSFER^D`` calls this once per chunk so a load of N rows costs
        N/batch_size round trips instead of N.  Creates the table on first
        use when :meth:`create_temp` was not called explicitly.
        """
        if self._closed:
            raise DatabaseError("connection is closed")
        self._inject("load_chunk")
        loaded = self._loader.append(table_name, schema, rows, order)
        if self.metrics is not None:
            self.metrics.counter("dbms_rows_loaded").inc(loaded)
            self.metrics.counter("dbms_load_batches").inc()
        return loaded

    def drop_temp(self, table_name: str) -> None:
        # No fault injection here: end-of-query cleanup must stay reliable,
        # or chaos runs would leak the temp tables they exist to clean up.
        self._loader.unload(table_name)


class ConnectionPool:
    """A small fixed-size pool of connections to one MiniDB instance.

    ``TRANSFER^M`` fan-out pulls its partitions over concurrent
    connections drawn from here, and the query service's workers take
    their primary connections here.  Connections are created lazily up
    to *size*; :meth:`release` parks a connection for reuse (or closes
    it if the pool was closed meanwhile).  All connections share the
    pool's metrics registry and fault injector, so chaos and accounting
    see partition traffic exactly like serial traffic.

    :meth:`acquire` never blocks: a burst beyond *size* gets *overflow*
    connections, which :meth:`release` closes instead of parking, so the
    steady state stays at *size*.

    Checked-out connections are tracked (:attr:`in_use`), so a caller
    that dies mid-checkout is visible as a leak instead of silently
    shrinking the pool.
    """

    def __init__(
        self,
        db: MiniDB,
        size: int,
        prefetch: int = DEFAULT_PREFETCH,
        metrics: MetricsRegistry | None = None,
        injector: FaultInjector | None = None,
    ):
        self.db = db
        self.size = max(1, size)
        self.prefetch = prefetch
        self.metrics = metrics
        self.injector = injector
        self._lock = threading.Lock()
        self._idle: list[Connection] = []
        #: Connections currently checked out (identity set).
        self._checked_out: dict[int, Connection] = {}
        self._closed = False

    def acquire(self) -> Connection:
        """An idle connection, or a fresh one."""
        with self._lock:
            if self._closed:
                raise DatabaseError("connection pool is closed")
            if self._idle:
                connection = self._idle.pop()
            else:
                connection = Connection(
                    self.db,
                    prefetch=self.prefetch,
                    metrics=self.metrics,
                    injector=self.injector,
                )
            self._checked_out[id(connection)] = connection
            return connection

    def release(self, connection: Connection) -> None:
        with self._lock:
            self._checked_out.pop(id(connection), None)
            if (
                not self._closed
                and not connection.closed
                and len(self._idle) < self.size
            ):
                self._idle.append(connection)
                return
        connection.close()

    @property
    def in_use(self) -> int:
        """Connections currently checked out and not yet released."""
        with self._lock:
            return len(self._checked_out)

    @property
    def idle(self) -> int:
        with self._lock:
            return len(self._idle)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()
