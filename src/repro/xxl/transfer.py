"""``TRANSFER^D`` — materialize a middleware relation in the DBMS.

Section 3.2: the algorithm "first creates a table in the DBMS and then loads
data into it" via the direct-path loader; the created table's name must be
unique and the table is dropped at the end of the query.  Figure 2: all the
work happens in ``init()`` — the cursor itself produces no rows, it only
gates the algorithms that follow it in the execution-ready plan.

The load is *chunked*: the input is drained through ``next_batch`` and each
chunk goes down through the connection's ``executemany`` (the JDBC
addBatch/executeBatch analogue riding the direct-path loader), so the
middleware never materializes more than ``batch_size`` rows of the input at
once and pays one call per chunk rather than per row.

(The companion ``TRANSFER^M`` algorithm is
:class:`repro.xxl.sources.SQLCursor`.)
"""

from __future__ import annotations

import heapq
import os
import threading
import time

from repro.algebra.schema import Schema
from repro.xxl.cursor import Cursor

_SEQUENCE_LOCK = threading.Lock()
#: Per prefix: the highest slot ever issued, and the slots given back below it.
_ISSUED: dict[str, int] = {}
_FREE: dict[str, list[int]] = {}

#: The name prefix of every ``TRANSFER^D`` temp table (matched
#: case-insensitively wherever a table name is tested for it).
TEMP_TABLE_PREFIX = "TANGO_TMP"


class TransferMixin:
    """What ``TRANSFER^M`` and ``TRANSFER^D`` share: every DBMS call runs
    under the per-query retry budget (a
    :class:`~repro.resilience.retry.RetryState`, or None), and the cursor
    reports itself as a ``transfer`` span — the Section 7 signal."""

    kind = "transfer"
    _retry = None
    #: Transient-fault retries this cursor spent (EXPLAIN ANALYZE shows the
    #: count on the transfer span).
    retries = 0

    def _count_retry(self) -> None:
        self.retries += 1

    def _call_dbms(self, fn, op: str):
        if self._retry is None:
            return fn()
        return self._retry.run(fn, op=op, on_retry=self._count_retry)

    def _transfer_measurements(
        self, direction: str, tuples: int, seconds: float, **where
    ) -> dict:
        measured = Cursor.measurements(self)
        measured.update(
            direction=direction,
            tuples=tuples,
            bytes=tuples * self.schema.row_width,
            seconds=seconds,
            **where,
        )
        if self.retries:
            measured["retries"] = self.retries
        return measured


def unique_temp_name(prefix: str = TEMP_TABLE_PREFIX) -> str:
    """A temp-table name no live table has: ``prefix_pid_n``.

    *n* is the lowest slot of *prefix* not in use, taken under a lock: a
    name comes back only once :func:`release_temp_name` says its table was
    dropped, so names live at one time never collide, and the pid keeps
    processes sharing one DBMS apart.  A query run again gets the names it
    had, so the statements that read its temp tables recur verbatim and the
    DBMS parses and plans them once (DESIGN.md §23).
    """
    with _SEQUENCE_LOCK:
        free = _FREE.setdefault(prefix, [])
        if free:
            n = heapq.heappop(free)
        else:
            n = _ISSUED[prefix] = _ISSUED.get(prefix, 0) + 1
    return f"{prefix}_{os.getpid()}_{n}"


def release_temp_name(name: str) -> None:
    """Give back a name of :func:`unique_temp_name` whose table was dropped;
    any other name is ignored."""
    prefix, pid, n = (name.rsplit("_", 2) + ["", ""])[:3]
    if pid != str(os.getpid()) or not n.isdigit():
        return
    with _SEQUENCE_LOCK:
        free = _FREE.get(prefix)
        slot = int(n)
        if free is not None and slot <= _ISSUED[prefix] and slot not in free:
            heapq.heappush(free, slot)


class TransferDCursor(TransferMixin, Cursor):
    """Drains its input into a new DBMS table on ``init()``.

    ``order`` declares the sort order the input is known to arrive in, which
    is recorded as the new table's clustered order.  ``batch_size`` bounds
    the rows per ``executemany`` round trip (and the middleware-side
    buffering).
    """

    algorithm = "TRANSFER^D"

    def __init__(
        self,
        input: Cursor,
        connection,
        table_name: str | None = None,
        order: tuple[str, ...] = (),
        retry=None,
    ):
        super().__init__(Schema([]), (input,))
        self._input = input
        self._connection = connection
        self.table_name = table_name or unique_temp_name()
        self._order = order
        self._retry = retry
        self.rows_loaded = 0
        self._dropped = False
        self._drop_lock = threading.Lock()
        #: Wall-clock seconds of the bulk load — the performance-feedback
        #: signal (Section 7) for TRANSFER^D.
        self.load_seconds = 0.0

    def detail(self) -> str:
        return f"TableName: {self.table_name}"

    def measurements(self) -> dict:
        return self._transfer_measurements(
            "down", self.rows_loaded, self.load_seconds, table=self.table_name
        )

    def _open(self) -> None:
        self._input.init()
        self.schema = self._input.schema
        # The table must exist even for an empty input: later TRANSFER^M
        # SQL references it by name.
        begin = time.perf_counter()
        self._call_dbms(
            lambda: self._connection.create_temp(self.table_name, self.schema),
            "transfer_d.create",
        )
        self.load_seconds += time.perf_counter() - begin
        while True:
            # Input production is middleware work and stays outside
            # load_seconds — the Section 7 signal times only the DBMS side.
            chunk = self._input.next_batch(self.batch_size)
            if not chunk:
                break
            begin = time.perf_counter()
            # Retrying re-sends the *same* chunk: the input was drained
            # exactly once, and the loader rolls back a chunk that failed
            # mid-append, so a retry can never double-load rows.
            self.rows_loaded += self._call_dbms(
                lambda: self._connection.executemany(
                    self.table_name, self.schema, chunk, self._order
                ),
                "transfer_d.load",
            )
            self.load_seconds += time.perf_counter() - begin
        self._input.close()

    def _next_batch(self, n: int) -> list[tuple]:
        return []

    def drop(self) -> None:
        """End-of-query cleanup: drop the loaded temp table and give its
        name back; idempotent and race-tolerant — a drop may arrive from the
        engine's finally-teardown concurrently with an exchange thread's
        cleanup.  A name whose drop failed is not given back.
        """
        with self._drop_lock:
            if self._dropped:
                return
            self._dropped = True
        try:
            self._connection.drop_temp(self.table_name)
        except BaseException:
            with self._drop_lock:
                self._dropped = False
            raise
        release_temp_name(self.table_name)
