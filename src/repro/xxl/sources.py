"""Source cursors: in-memory relations and DBMS result sets.

:class:`SQLCursor` is the ``TRANSFER^M`` algorithm's core: it issues a
``SELECT`` over the JDBC connection on ``init()`` and streams the result
rows into the middleware (Section 3.2).  Its pull hook maps directly to
JDBC: ``next_batch(n)`` is one ``fetchmany(n)``, so middleware batching and
the connection's row prefetch compose instead of fighting.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.algebra.expressions import inline
from repro.algebra.schema import Schema
from repro.dbms.costmodel import CostMeter
from repro.xxl.cursor import Cursor
from repro.xxl.transfer import TransferMixin


class RelationCursor(Cursor):
    """A cursor over an already materialized middleware relation."""

    algorithm = "RELATION^M"

    def __init__(self, schema: Schema, rows: Sequence[tuple], meter: CostMeter | None = None):
        super().__init__(schema)
        self._rows = rows
        self._meter = meter
        self._position = 0

    def _open(self) -> None:
        self._position = 0

    def _next_batch(self, n: int) -> list[tuple]:
        batch = list(self._rows[self._position : self._position + n])
        self._position += len(batch)
        if self._meter is not None and batch:
            self._meter.charge_cpu(len(batch))
        return batch


class SQLCursor(TransferMixin, Cursor):
    """Streams the rows of an SQL query from the DBMS — ``TRANSFER^M``.

    The query is sent on ``init()``; rows arrive through the JDBC cursor's
    prefetch batching — one ``fetchmany`` per middleware batch.  The output
    schema is taken from the DBMS result-set metadata.

    *binds* are the values of the statement's ``?`` markers, sent with it;
    the span and :meth:`detail` show the text with each spelled in place.

    With a :class:`~repro.resilience.retry.RetryState` attached (the
    per-query retry budget ``compile_plan`` threads through), statement
    dispatch and every fetch are retried under the policy on
    :class:`~repro.errors.TransientError` — safe because the JDBC cursor's
    ``fetchmany`` re-serves rows collected before a failed refill instead
    of dropping them.
    """

    algorithm = "TRANSFER^M"

    def __init__(
        self,
        connection,
        sql: str,
        retry=None,
        binds: Sequence[object] = (),
    ):
        self._connection = connection
        self._sql = sql
        self._binds = binds
        self._text: str | None = None
        self._retry = retry
        self._cursor = None
        #: Wall-clock seconds spent fetching rows from the DBMS — the
        #: performance-feedback signal (Section 7) for TRANSFER^M.
        self.fetch_seconds = 0.0
        self._final_round_trips = 0
        #: "hit" or "miss": whether MiniDB found the SELECT planned.
        self.plan: str | None = None
        # The schema is only known after execution; initialize lazily with a
        # placeholder and fix it up in _open().
        super().__init__(Schema([]))

    @property
    def sql(self) -> str:
        """The statement as text, every bind spelled in place."""
        if self._text is None:
            self._text = inline(self._sql, self._binds)
        return self._text

    @property
    def round_trips(self) -> int:
        """DBMS round trips this cursor's result set has paid so far.

        Tracked on the underlying JDBC cursor (never on the connection),
        so concurrent partition cursors drawing connections from one pool
        each report exactly their own ``ceil(rows / prefetch)``.
        """
        if self._cursor is not None:
            return self._cursor.round_trips
        return self._final_round_trips

    def detail(self) -> str:
        sql = " ".join(self.sql.split())
        return f"Query: {sql[:97] + '...' if len(sql) > 100 else sql}"

    def measurements(self) -> dict:
        where = {"sql": self.sql}
        if self.plan is not None:
            where["plan"] = self.plan
        return self._transfer_measurements(
            "up", self.rows_produced, self.fetch_seconds, **where
        )

    def _open(self) -> None:
        begin = time.perf_counter()
        self._cursor = self._call_dbms(
            lambda: self._connection.cursor().execute(self._sql, self._binds),
            "transfer_m.execute",
        )
        self.fetch_seconds += time.perf_counter() - begin
        if self._cursor.plan_hit is not None:
            self.plan = "hit" if self._cursor.plan_hit else "miss"
        self.schema = self._cursor.schema

    def _next_batch(self, n: int) -> list[tuple]:
        assert self._cursor is not None
        begin = time.perf_counter()
        batch = self._call_dbms(
            lambda: self._cursor.fetchmany(n), "transfer_m.fetch"
        )
        self.fetch_seconds += time.perf_counter() - begin
        return batch

    def _close(self) -> None:
        if self._cursor is not None:
            self._final_round_trips = self._cursor.round_trips
            self._cursor.close()
            self._cursor = None


class PooledSQLCursor(SQLCursor):
    """A ``TRANSFER^M`` partition cursor drawing its connection from a
    :class:`~repro.dbms.jdbc.ConnectionPool`.

    Each partition of a fanned-out transfer runs one of these on its own
    connection, so concurrent fetches genuinely overlap on the wire.  The
    connection is acquired at ``init()`` and returned to the pool at
    ``close()`` (or immediately if acquisition's first statement fails).
    """

    def __init__(
        self,
        pool,
        sql: str,
        retry=None,
        binds: Sequence[object] = (),
    ):
        super().__init__(None, sql, retry=retry, binds=binds)
        self._pool = pool

    def _open(self) -> None:
        self._connection = self._pool.acquire()
        try:
            super()._open()
        except BaseException:
            self._pool.release(self._connection)
            self._connection = None
            raise

    def _close(self) -> None:
        try:
            super()._close()
        finally:
            # Even a JDBC close that raises must not leak the connection.
            if self._connection is not None:
                self._pool.release(self._connection)
                self._connection = None
