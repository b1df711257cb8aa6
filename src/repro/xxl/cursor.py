"""The cursor (result-set) protocol of the middleware Execution Engine.

Figure 2 of the paper: every algorithm is wrapped in a result set exposing
``init()`` and ``getNext()``; ``init()`` usually just sets up inner state
but may do real work (``TRANSFER^D`` drains its whole input there).

Here ``getNext()`` hands out a batch: :meth:`Cursor.next_batch` returns the
next non-empty list of rows, or ``[]`` once the cursor is drained, so a
pipeline pays one method-dispatch round trip per batch rather than per row.
It takes no size.  An algorithm implements the one pull hook
:meth:`Cursor._next_batch` and returns its natural unit: sources and
generators slice :attr:`~Cursor.batch_size` rows (most algorithms subclass
:class:`GeneratorCursor`, which supplies the hook by slicing the generator
built in ``_generate()``), a projection maps one input batch, a filter
returns what one or more input batches leave.  No cursor parks rows for a
later call.  A batch size of 1 on every cursor degenerates to the paper's
row-at-a-time execution.

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

#: Rows per batch a source or generator hands out, and so the most any
#: cursor's batch (an engine drain pull, a ``TRANSFER^D`` load chunk) holds.
BATCH_SIZE = 256


class Cursor:
    """Abstract pipelined iterator over rows.

    Subclasses implement :meth:`_open` (called once from :meth:`init`) and
    :meth:`_next_batch` (the next non-empty batch, ``[]`` when drained) —
    directly, or through :class:`GeneratorCursor` by writing the algorithm
    as a generator.
    """

    #: Rows a source or generator hands out per batch.  Nothing in the
    #: middleware assigns it; a test may shrink it on one instance (1 is
    #: the paper's row-at-a-time protocol).
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

    def next_batch(self) -> list[tuple]:
        """Return the next non-empty batch; ``[]`` once drained, and on
        every call after that."""
        self.init()
        begin = perf_counter() if self.timed else None
        batch = self._next_batch()
        if batch:
            self.rows_produced += len(batch)
            self.batches_produced += 1
        if begin is not None:
            self.batch_calls += 1
            self.wall_seconds += perf_counter() - begin
        return batch

    def iter_batched(self) -> Iterator[tuple]:
        """Iterate rows, pulling them through :meth:`next_batch`."""
        while batch := self.next_batch():
            yield from batch

    def close(self) -> None:
        """Release resources; further use is an error.

        Marked closed *before* ``_close()`` runs, so a teardown that raises
        is not re-entered by a later ``close()`` (the engine's ``finally``).
        """
        if not self._closed:
            self._closed = True
            self._close()

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

    def _next_batch(self) -> list[tuple]:
        """Produce the next non-empty batch (``[]`` when drained)."""
        raise NotImplementedError

    def _close(self) -> None:
        """Release resources; default does nothing."""


class GeneratorCursor(Cursor):
    """A cursor whose rows come from a generator built in :meth:`_generate`.

    Most middleware algorithms subclass this: ``_generate`` expresses the
    algorithm naturally and ``_next_batch`` ``islice``s
    :attr:`~Cursor.batch_size` rows off the generator, so a batch costs one
    slicing call rather than a ``next()`` round trip per row.
    """

    def __init__(self, schema: Schema, inputs: Iterable[Cursor] = ()):
        super().__init__(schema, inputs)
        self._generator: Iterator[tuple] | None = None

    def _open(self) -> None:
        self._generator = self._generate()

    def _next_batch(self) -> list[tuple]:
        assert self._generator is not None
        return list(islice(self._generator, self.batch_size))

    def _close(self) -> None:
        self._generator = None

    def _generate(self) -> Iterator[tuple]:
        raise NotImplementedError


class BatchReader:
    """Single-row reads over a cursor's batched protocol.

    Sort-merge algorithms consume rows one at a time but compare-and-advance
    in tight loops; this adapter gives them ``read()`` (one row or ``None``)
    backed by ``next_batch`` pulls, so a row costs one local method call and
    a list index rather than a cursor dispatch.
    """

    __slots__ = ("_cursor", "_batch", "_pos")

    def __init__(self, cursor: Cursor):
        self._cursor = cursor
        self._batch: list[tuple] = []
        self._pos = 0

    def read(self) -> tuple | None:
        """The next row, or ``None`` when the cursor is drained."""
        if self._pos >= len(self._batch):
            self._batch = self._cursor.next_batch()
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
        while batch := cursor.next_batch():
            rows.extend(batch)
        return rows
    finally:
        cursor.close()
