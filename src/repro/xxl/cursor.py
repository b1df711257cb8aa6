"""The cursor (result-set) protocol of the middleware Execution Engine.

Figure 2 of the paper: every algorithm is wrapped in a result set exposing
``init()`` and ``getNext()``; ``init()`` usually just sets up inner state
but may do real work (``TRANSFER^D`` drains its whole input there).

An algorithm implements exactly one pull hook: :meth:`Cursor._next_batch`
returns up to *n* rows per call (``[]`` exactly when drained), so a
pipeline pays one method-dispatch round trip per batch rather than per
row.  Most algorithms subclass :class:`GeneratorCursor`, which supplies the
hook by slicing the generator built in ``_generate()``.

Everything a consumer sees is layered on that one hook by the base class:
:meth:`Cursor.next_batch` is the batched face; Figure 2's
``has_next()``/``next()`` and ``for row in cursor`` are a small adapter that
pulls ``_next_batch(1)`` into the shared look-ahead buffer.  All faces drain
that buffer first, so they may be mixed freely on one cursor without
dropping or reordering a row, and a batch size of 1 degenerates to the
paper's row-at-a-time execution.

A cursor also *describes itself* — four facts every consumer (span tree,
feedback loops, EXPLAIN ANALYZE, Figure 5 text) reads here
instead of guessing: its :attr:`~Cursor.inputs`, its Figure 5
:attr:`~Cursor.algorithm` label and :meth:`~Cursor.detail`, the plan
:attr:`~Cursor.node` it was compiled from, and its
:meth:`~Cursor.measurements` (with per-call wall time once
:attr:`~Cursor.timed` is set).  :func:`walk` is the one traversal.
"""

from __future__ import annotations

from itertools import islice
from time import perf_counter
from typing import Iterable, Iterator

from repro.algebra.schema import Schema
from repro.errors import ExecutionError

#: Rows per batch: every pull, the engine drain and every ``TRANSFER^D``
#: load chunk.
BATCH_SIZE = 256


class Cursor:
    """Abstract pipelined iterator over rows.

    Subclasses implement :meth:`_open` (called once from :meth:`init`) and
    :meth:`_next_batch` (up to *n* rows, ``[]`` when drained) — directly,
    or through :class:`GeneratorCursor` by writing the algorithm as a
    generator.
    """

    #: Rows pulled per internal batch.  Nothing in the middleware assigns
    #: it; a test may shrink it on one instance (1 is the paper's
    #: row-at-a-time protocol).
    batch_size: int = BATCH_SIZE
    #: The Figure 5 label of the algorithm; every concrete class sets it.
    algorithm: str = ""
    #: The span kind this cursor reports under.
    kind: str = "cursor"
    #: The plan node this cursor implements (stamped by plan compilation;
    #: several partition cursors may share one node).
    node = None
    #: Time ``init()``/``next_batch()`` calls (EXPLAIN ANALYZE); the engine
    #: sets it on every cursor of an instrumented plan.  Tested once per
    #: call, never per row.
    timed: bool = False
    #: What a timed cursor accumulates: ``next_batch`` calls, and wall
    #: seconds inside ``_open`` / inside the cursor overall — children
    #: included (span rendering subtracts child time to get self time).
    batch_calls: int = 0
    init_seconds: float = 0.0
    wall_seconds: float = 0.0

    def __init__(self, schema: Schema, inputs: Iterable["Cursor"] = ()):
        self.schema = schema
        #: The child cursors this one pulls from, declared once, here.
        self.inputs: tuple[Cursor, ...] = tuple(inputs)
        self._initialized = False
        self._closed = False
        #: Rows produced but not yet handed out: ``has_next`` buffers one
        #: row here; a ``_next_batch`` that overshoots parks its surplus
        #: here.  Every consuming method drains it first, so a buffered
        #: row is never dropped whichever faces the caller mixes.
        self._lookahead: list[tuple] = []
        #: Rows handed out so far (handy for tests and accounting).
        self.rows_produced = 0
        #: Non-empty batches handed out via :meth:`next_batch`.
        self.batches_produced = 0

    # -- protocol -------------------------------------------------------------------

    def init(self) -> "Cursor":
        """Prepare the cursor; idempotent."""
        if self._closed:
            raise ExecutionError(f"{type(self).__name__} is closed")
        if not self._initialized:
            if self.timed:
                begin = perf_counter()
                self._open()
                self.init_seconds = perf_counter() - begin
                self.wall_seconds += self.init_seconds
            else:
                self._open()
            self._initialized = True
        return self

    def next_batch(self, n: int) -> list[tuple]:
        """Return the next up-to-*n* rows; ``[]`` exactly when drained.

        Buffered look-ahead rows are served first, so mixing this with
        ``has_next``/``next`` never drops a row.
        """
        self.init()
        if n <= 0:
            return []
        begin = perf_counter() if self.timed else None
        lookahead = self._lookahead
        if lookahead:
            batch = lookahead[:n]
            del lookahead[:n]
            if len(batch) < n:
                batch.extend(self._next_batch(n - len(batch)))
        else:
            batch = self._next_batch(n)
        if batch:
            self.rows_produced += len(batch)
            self.batches_produced += 1
        if begin is not None:
            self.batch_calls += 1
            self.wall_seconds += perf_counter() - begin
        return batch

    def iter_batched(self, size: int | None = None) -> Iterator[tuple]:
        """Iterate rows, pulling them through :meth:`next_batch` internally.

        The drop-in replacement for ``while c.has_next(): c.next()`` inner
        loops: per-row cost is one generator resume instead of two cursor
        dispatches plus buffer bookkeeping.
        """
        size = size if size is not None else self.batch_size
        while True:
            batch = self.next_batch(size)
            if not batch:
                return
            yield from batch

    def close(self) -> None:
        """Release resources; further use is an error.

        Marked closed *before* ``_close()`` runs, so a teardown that raises
        is not re-entered by a later ``close()`` (the engine's ``finally``).
        """
        if not self._closed:
            self._closed = True
            self._close()

    # -- Figure 2's row-at-a-time face: an adapter over ``_next_batch(1)`` --------

    def has_next(self) -> bool:
        """True when another row is available (buffers one row ahead)."""
        self.init()
        if not self._lookahead:
            # In front: a hook that overshot has parked its surplus behind.
            self._lookahead[:0] = self._next_batch(1)
        return bool(self._lookahead)

    def next(self) -> tuple:
        """Return the next row; raises :class:`ExecutionError` when drained."""
        if not self.has_next():
            raise ExecutionError(f"{type(self).__name__} has no more rows")
        self.rows_produced += 1
        return self._lookahead.pop(0)

    def __iter__(self) -> Iterator[tuple]:
        while self.has_next():
            yield self.next()

    def __enter__(self) -> "Cursor":
        return self.init()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- self-description ------------------------------------------------------------

    def detail(self) -> str:
        """The algorithm's one-line Figure 5 parameters (``Keys: …``)."""
        return ""

    def describe(self, indent: int = 0) -> list[str]:
        """Figure 5 rendering of this cursor's tree: one line per
        algorithm, inputs indented under the cursor that drains them."""
        detail = self.detail()
        lines = ["  " * indent + self.algorithm + (f"  {detail}" if detail else "")]
        for child in self.inputs:
            lines.extend(child.describe(indent + 1))
        return lines

    def measurements(self) -> dict:
        """What this cursor measured, as span attributes."""
        measured = {
            "cursor": type(self).__name__,
            "rows": self.rows_produced,
            "batches": self.batches_produced,
        }
        if self.timed:
            measured.update(
                batch_calls=self.batch_calls, init_seconds=self.init_seconds
            )
        return measured

    # -- subclass hooks ----------------------------------------------------------------

    def _open(self) -> None:
        """One-time setup; default does nothing."""

    def _next_batch(self, n: int) -> list[tuple]:
        """Produce up to *n* rows (empty list when drained).

        The single pull hook.  Implementations that naturally overproduce
        (e.g. a filter working input-batch-wise) return at most *n* rows
        and park the surplus via :meth:`_park_surplus`.
        """
        raise NotImplementedError

    def _park_surplus(self, rows: list[tuple], n: int) -> list[tuple]:
        """Trim *rows* to *n*; the overshoot waits in the look-ahead buffer."""
        if len(rows) > n:
            self._lookahead.extend(rows[n:])
            del rows[n:]
        return rows

    def _close(self) -> None:
        """Release resources; default does nothing."""


class GeneratorCursor(Cursor):
    """A cursor whose rows come from a generator built in :meth:`_generate`.

    Most middleware algorithms subclass this: ``_generate`` expresses the
    algorithm naturally and ``_next_batch`` ``islice``s the generator, so
    a batch costs one slicing call rather than *n* ``next()`` round trips.
    """

    def __init__(self, schema: Schema, inputs: Iterable[Cursor] = ()):
        super().__init__(schema, inputs)
        self._generator: Iterator[tuple] | None = None

    def _open(self) -> None:
        self._generator = self._generate()

    def _next_batch(self, n: int) -> list[tuple]:
        assert self._generator is not None
        return list(islice(self._generator, n))

    def _close(self) -> None:
        self._generator = None

    def _generate(self) -> Iterator[tuple]:
        raise NotImplementedError


class BatchReader:
    """Single-row reads over a cursor's batched protocol.

    Sort-merge algorithms consume rows one at a time but compare-and-advance
    in tight loops; this adapter gives them ``read()`` (one row or ``None``)
    backed by ``next_batch`` pulls, replacing two cursor dispatches per row
    with one local method call and a list index.
    """

    __slots__ = ("_cursor", "_size", "_batch", "_pos")

    def __init__(self, cursor: Cursor, size: int | None = None):
        self._cursor = cursor
        self._size = size if size is not None else cursor.batch_size
        self._batch: list[tuple] = []
        self._pos = 0

    def read(self) -> tuple | None:
        """The next row, or ``None`` when the cursor is drained."""
        if self._pos >= len(self._batch):
            self._batch = self._cursor.next_batch(self._size)
            self._pos = 0
            if not self._batch:
                return None
        row = self._batch[self._pos]
        self._pos += 1
        return row


def walk(roots: Iterable[Cursor]) -> Iterator[Cursor]:
    """Every distinct cursor reachable from *roots* through the declared
    :attr:`Cursor.inputs`, pre-order."""
    seen: set[int] = set()
    stack = list(roots)[::-1]
    while stack:
        cursor = stack.pop()
        if id(cursor) not in seen:
            seen.add(id(cursor))
            yield cursor
            stack.extend(cursor.inputs[::-1])


def materialize(cursor: Cursor) -> list[tuple]:
    """Drain a cursor into a list and close it."""
    try:
        rows: list[tuple] = []
        cursor.init()
        while True:
            batch = cursor.next_batch(cursor.batch_size)
            if not batch:
                return rows
            rows.extend(batch)
    finally:
        cursor.close()
