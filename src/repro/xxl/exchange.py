"""Partition-parallel ``TRANSFER^M``: range partitions behind an exchange.

The paper's Execution Engine (Figure 2) is strictly serial: wall-clock time
is the *sum* of DBMS fetch time and middleware CPU.  The one step bound by
the wire is ``TRANSFER^M`` issuing its ``SELECT``, so that is the one step
this module parallelizes, with the classic exchange operator (Graefe's
Volcano) on the cursor protocol:

* :class:`PartitionSpec` describes how rows split — by range on an
  attribute, cut points picked from the Section 3.3 histograms, so the
  DBMS-side ``SELECT`` fans out into per-partition range predicates;
* :class:`ExchangeCursor` pulls the per-partition fetches on a bounded
  thread pool with backpressure-bounded per-partition queues, and
  reassembles the delivered sort order by concatenating the partitions in
  cut-point order.  It stands in for the one ``SQLCursor`` the serial plan
  has there; the middleware pipeline above it is the serial one.

Under CPython's GIL the win is overlapped wire latency, not CPU (DESIGN.md
§5).  Plans compiled with ``TangoConfig.workers=1`` never touch this
module, so the serial engine stays byte-for-byte the paper's.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from queue import Empty, Full, Queue

from repro.algebra.expressions import And, Comparison, Expression, Not, Or, col, lit
from repro.algebra.schema import Schema
from repro.errors import ExecutionError
from repro.stats.collector import AttributeStats, RelationStats
from repro.xxl.cursor import Cursor

#: Producers and the consumer poll their queues at this granularity so a
#: cancellation (sibling failure, teardown) is noticed promptly.
_POLL_SECONDS = 0.02

#: Estimated rows below which a partition is not worth its startup cost.
MIN_PARTITION_ROWS = 128


@dataclass(frozen=True)
class PartitionSpec:
    """How one stream of rows splits into ``degree`` range partitions.

    Partition *i* holds rows whose ``attribute`` value falls in
    ``[cut_points[i-1], cut_points[i])`` (open-ended at both extremes), and
    the last partition also holds the rows whose value is NULL, which sort
    last.  Concatenating partitions in order therefore preserves any sort
    order led by ``attribute``, and every distinct value lands wholly in
    one partition.
    """

    attribute: str
    degree: int
    cut_points: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ExecutionError("partition degree must be >= 1")
        if len(self.cut_points) != self.degree - 1:
            raise ExecutionError("range partitioning needs degree-1 cut points")
        if any(b <= a for a, b in zip(self.cut_points, self.cut_points[1:])):
            raise ExecutionError("cut points must be strictly increasing")

    def bounds(self, index: int) -> tuple[float | None, float | None]:
        """Half-open ``[lo, hi)`` range of partition *index* (None = open)."""
        lo = self.cut_points[index - 1] if index > 0 else None
        hi = self.cut_points[index] if index < self.degree - 1 else None
        return lo, hi

    def predicates(self) -> list[Expression | None]:
        """One range predicate per partition over ``attribute`` — what the
        TRANSFER^M fan-out selects each partition with; ``None`` for the
        single partition that takes everything.  The ranges cover every
        value whatever the statistics said, so stale histograms can only
        unbalance the partitions, never lose rows.  A bounded partition
        tests ``IS NOT NULL`` before its bounds, so no comparison ever sees
        a NULL; the last one takes ``IS NULL OR >= lo``."""
        column = col(self.attribute)
        is_null = Comparison("=", column, lit(None))

        def cut(value: float) -> Expression:
            # Integral cut points as ints: predicates on INT/DATE read naturally.
            return lit(int(value) if float(value).is_integer() else value)

        predicates: list[Expression | None] = []
        for index in range(self.degree):
            lo, hi = self.bounds(index)
            at_least = [] if lo is None else [Comparison(">=", column, cut(lo))]
            if hi is not None:
                below = Comparison("<", column, cut(hi))
                predicates.append(And((Not(is_null), *at_least, below)))
            elif at_least:
                predicates.append(Or((is_null, *at_least)))
            else:
                predicates.append(None)
        return predicates


def equal_count_cut_points(histogram, degree: int) -> list[float]:
    """Invert ``values_below`` to find cut points splitting the histogram
    into *degree* equal-count ranges (the Section 3.3 estimator reused as
    a partition balancer)."""
    total = histogram.total
    if total <= 0 or degree < 2:
        return []
    points: list[float] = []
    for i in range(1, degree):
        target = total * i / degree
        below = 0.0
        value = histogram.bounds[-1]
        for bucket in range(histogram.num_buckets):
            count = histogram.b_val(bucket)
            if below + count >= target:
                width = histogram.b2(bucket) - histogram.b1(bucket)
                fraction = (target - below) / count if count else 0.0
                value = histogram.b1(bucket) + fraction * width
                break
            below += count
        points.append(value)
    return points


def _strictly_increasing(points: list[float]) -> tuple[float, ...]:
    kept: list[float] = []
    for point in points:
        if not kept or point > kept[-1]:
            kept.append(point)
    return tuple(kept)


def range_partition_spec(
    attribute: str, stats: RelationStats, degree: int
) -> PartitionSpec | None:
    """A balanced range :class:`PartitionSpec`, or None when partitioning
    is not worthwhile (too few rows, too few distinct values, no usable
    statistics).  Cut points come from the attribute's histogram when one
    exists (equal-count split), else from a uniform min/max split."""
    if degree < 2:
        return None
    capacity = int(stats.cardinality // MIN_PARTITION_ROWS)
    degree = min(degree, max(1, capacity))
    attr_stats: AttributeStats = stats.attribute(attribute)
    if attr_stats.distinct:
        degree = min(degree, attr_stats.distinct)
    if degree < 2:
        return None
    if attr_stats.histogram is not None and attr_stats.histogram.total > 0:
        points = equal_count_cut_points(attr_stats.histogram, degree)
    elif attr_stats.min_value is not None and attr_stats.max_value is not None:
        lo, hi = float(attr_stats.min_value), float(attr_stats.max_value)
        if hi <= lo:
            return None
        points = [lo + (hi - lo) * i / degree for i in range(1, degree)]
    else:
        return None
    cut_points = _strictly_increasing(points)
    if not cut_points:
        return None
    return PartitionSpec(attribute, len(cut_points) + 1, cut_points)


class _Cancelled(Exception):
    """Internal: a producer noticed the exchange was cancelled."""


#: A producer's last queue item: its partition is finished (a failure, if
#: any, is recorded before this is put).
_END = object()


class ExchangeCursor(Cursor):
    """Pulls per-partition ``TRANSFER^M`` cursors on a bounded thread pool
    and reassembles one ordered output stream.

    Each partition is produced into a backpressure-bounded queue by one
    task on a ``ThreadPoolExecutor`` of at most ``workers`` threads, and
    the partitions are concatenated in index order (correct for range
    partitions, whose bounds ascend).  Fewer workers than partitions is
    fine: the consumer drains partition *i* before it asks for *i+1*, so a
    partition still waiting for a thread blocks nobody.  Partition 0 puts
    its schema before its rows: ``init()`` returns once it is known, which
    is when the cursor above reads it.

    A failing partition cancels its siblings: the first error is recorded,
    the cancel event stops every producer, and the error resurfaces from
    the consumer, whichever partition it is waiting on — the engine's
    unconditional teardown then closes everything, and ``Tango.query``
    falls back to the all-DBMS plan when the shared retry budget was the
    cause.
    """

    algorithm = "EXCHANGE"
    kind = "exchange"
    #: Batches each partition queue buffers before its producer blocks
    #: (the backpressure bound: memory per partition ≤ queue_batches ×
    #: batch).  A test may shrink it on one instance.
    queue_batches: int = 4

    def __init__(self, partitions: list[Cursor], workers: int):
        super().__init__(Schema([]), partitions)
        if not partitions:
            raise ExecutionError("an exchange needs at least one partition")
        self.partitions = len(self.inputs)
        self.workers = max(1, min(workers, self.partitions))
        #: Producer blocks on a full partition queue (backpressure events).
        self.queue_full_stalls = 0
        #: Σ busy seconds / (wall seconds × partitions), computed at close.
        self.parallel_efficiency = 0.0
        self._lock = threading.Lock()
        self._failure: BaseException | None = None
        self._cancel: threading.Event | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._queues: list[Queue] = []
        self._busy: list[float] = []
        self._begin = 0.0
        self._current = 0

    def detail(self) -> str:
        return (
            f"Partitions: {self.partitions}  Workers: {self.workers}"
            "  Reassembly: concat"
        )

    def describe(self, indent: int = 0) -> list[str]:
        lines = ["  " * indent + f"{self.algorithm}  {self.detail()}"]
        for index, partition in enumerate(self.inputs):
            lines.append("  " * (indent + 1) + f"[partition {index}]")
            lines.extend(partition.describe(indent + 2))
        return lines

    def measurements(self) -> dict:
        measured = super().measurements()
        measured.update(
            partitions=self.partitions,
            workers=self.workers,
            queue_full_stalls=self.queue_full_stalls,
            parallel_efficiency=self.parallel_efficiency,
        )
        return measured

    # -- producer side ---------------------------------------------------------------

    def _open(self) -> None:
        self._cancel = threading.Event()
        self._queues = [Queue(maxsize=self.queue_batches) for _ in self.inputs]
        self._busy = [0.0] * self.partitions
        self._begin = time.perf_counter()
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="tango-exchange"
        )
        for index, (partition, queue) in enumerate(zip(self.inputs, self._queues)):
            self._executor.submit(self._produce, index, partition, queue)
        self.schema = self._get(self._queues[0])

    def _produce(self, index: int, partition: Cursor, queue: Queue) -> None:
        busy = 0.0
        cancel = self._cancel
        assert cancel is not None
        try:
            begin = time.perf_counter()
            partition.init()
            busy += time.perf_counter() - begin
            if index == 0:
                self._offer(queue, partition.schema)
            while not cancel.is_set():
                begin = time.perf_counter()
                batch = partition.next_batch()
                busy += time.perf_counter() - begin
                if not batch:
                    break
                self._offer(queue, batch)
        except _Cancelled:
            pass
        except BaseException as error:  # noqa: BLE001 - crosses the thread
            self._fail(error)
        finally:
            self._busy[index] = busy
            try:
                partition.close()
            except BaseException as error:  # noqa: BLE001
                self._fail(error)
            try:
                self._offer(queue, _END)
            except _Cancelled:
                pass  # the consumer finds the cancel once the queue runs dry

    def _fail(self, error: BaseException) -> None:
        """Record *error* unless another partition failed first; cancel."""
        with self._lock:
            if self._failure is None:
                self._failure = error
        assert self._cancel is not None
        self._cancel.set()

    def _offer(self, queue: Queue, item) -> None:
        cancel = self._cancel
        assert cancel is not None
        if queue.full():
            with self._lock:
                self.queue_full_stalls += 1
        while True:
            try:
                queue.put(item, timeout=_POLL_SECONDS)
                return
            except Full:
                if cancel.is_set():
                    raise _Cancelled() from None

    # -- consumer side ---------------------------------------------------------------

    def _get(self, queue: Queue):
        """The next item of one partition's *queue*: a batch, partition 0's
        schema, or ``_END``.  Raises the recorded failure at an end, or as
        soon as a failure cancelled the exchange and *queue* is dry."""
        cancel = self._cancel
        assert cancel is not None
        while True:
            try:
                item = queue.get(timeout=_POLL_SECONDS)
            except Empty:
                if cancel.is_set():
                    raise self._failure from None  # set before the cancel
                continue
            if item is _END and self._failure is not None:
                raise self._failure
            return item

    def _next_batch(self) -> list[tuple]:
        """The next batch to arrive, in partition order; ``[]`` when every
        partition has finished."""
        while self._current < len(self._queues):
            item = self._get(self._queues[self._current])
            if item is not _END:
                return item
            self._current += 1
        return []

    # -- teardown --------------------------------------------------------------------

    def _close(self) -> None:
        if self._cancel is None:
            # Never initialized: the partitions were never started either.
            for partition in self.inputs:
                try:
                    partition.close()
                except BaseException:  # noqa: BLE001 - best-effort cleanup
                    pass
            return
        self._cancel.set()
        # Unblock producers stuck on full queues, then join them.
        for queue in self._queues:
            while True:
                try:
                    queue.get_nowait()
                except Empty:
                    break
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        wall = time.perf_counter() - self._begin
        if wall > 0:
            self.parallel_efficiency = min(1.0, sum(self._busy) / (wall * self.partitions))
