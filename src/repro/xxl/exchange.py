"""Partition-parallel execution: range partitions behind an exchange.

The paper's Execution Engine (Figure 2) is strictly serial: wall-clock time
is the *sum* of DBMS fetch time and middleware CPU.  This module adds the
classic exchange-operator design (Graefe's Volcano) on top of the cursor
protocol so a middleware pipeline can run as *k* independent partitions:

* :class:`PartitionSpec` describes how rows split — by range on an
  attribute, cut points picked from the Section 3.3 histograms, so the
  DBMS-side ``SELECT`` fans out into per-partition range predicates;
* :class:`ExchangeCursor` fans the per-partition pipelines out across a
  bounded thread pool with backpressure-bounded per-partition queues, and
  reassembles the delivered sort order by concatenating the partitions in
  cut-point order.

Under CPython's GIL the win is overlapped wire latency, not CPU (DESIGN.md
§5), which is why the fan-out happens at the ``TRANSFER^M`` and nowhere
else.  Everything here is strictly opt-in: plans compiled without a
:class:`~repro.core.partition.ParallelContext` (``TangoConfig.workers=1``)
never touch this module, so the serial engine stays byte-for-byte the
paper's.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from queue import Empty, Full, Queue

from repro.algebra.expressions import Comparison, Expression, col, conjoin, lit
from repro.algebra.schema import Schema
from repro.errors import ExecutionError
from repro.stats.collector import AttributeStats, RelationStats
from repro.xxl.cursor import Cursor

#: Batches each partition queue buffers before its producer blocks
#: (the backpressure bound: memory per partition ≤ queue_batches × batch).
DEFAULT_QUEUE_BATCHES = 4

#: Producers and the consumer poll their queues at this granularity so a
#: cancellation (sibling failure, deadline, teardown) is noticed promptly.
_POLL_SECONDS = 0.02

#: Estimated rows below which a partition is not worth its startup cost.
MIN_PARTITION_ROWS = 128


@dataclass(frozen=True)
class PartitionSpec:
    """How one stream of rows splits into ``degree`` range partitions.

    Partition *i* holds rows whose ``attribute`` value falls in
    ``[cut_points[i-1], cut_points[i])`` (open-ended at both extremes), so
    concatenating partitions in order preserves any sort order led by
    ``attribute``, and every distinct value (every TAGGR^M group) lands
    wholly in one partition.
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
        unbalance the partitions, never lose rows."""
        column = col(self.attribute)

        def cut(value: float) -> Expression:
            # Integral cut points as ints: predicates on INT/DATE read naturally.
            return lit(int(value) if float(value).is_integer() else value)

        predicates = []
        for index in range(self.degree):
            lo, hi = self.bounds(index)
            terms = [] if lo is None else [Comparison(">=", column, cut(lo))]
            if hi is not None:
                terms.append(Comparison("<", column, cut(hi)))
            predicates.append(conjoin(terms))
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
    attribute: str,
    stats: RelationStats,
    degree: int,
    min_rows: int = MIN_PARTITION_ROWS,
) -> PartitionSpec | None:
    """A balanced range :class:`PartitionSpec`, or None when partitioning
    is not worthwhile (too few rows, too few distinct values, no usable
    statistics).  Cut points come from the attribute's histogram when one
    exists (equal-count split), else from a uniform min/max split."""
    if degree < 2:
        return None
    capacity = int(stats.cardinality // max(1, min_rows))
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


class _PartitionStream:
    """The queue plumbing between one producer thread and the consumer."""

    __slots__ = ("queue", "done", "error", "schema")

    def __init__(self, capacity: int):
        self.queue: Queue = Queue(maxsize=max(1, capacity))
        self.done = threading.Event()
        self.error: BaseException | None = None
        self.schema: Schema | None = None


class ExchangeCursor(Cursor):
    """Runs per-partition pipelines on a bounded thread pool and
    reassembles one ordered output stream.

    Each pipeline is produced into a backpressure-bounded queue by one
    task on a ``ThreadPoolExecutor`` of at most ``workers`` threads, and
    the partitions are concatenated in index order (correct for range
    partitions, whose bounds ascend).  Fewer workers than partitions is
    fine: the consumer drains partition *i* before it asks for *i+1*, so a
    partition still waiting for a thread blocks nobody.

    A failing partition cancels its siblings: the first error is recorded,
    the cancel event stops every producer, and the error resurfaces from
    the consumer — the engine's unconditional teardown then closes
    everything, and ``Tango.query`` falls back to the all-DBMS plan when
    the shared retry budget was the cause.
    """

    algorithm = "EXCHANGE"
    kind = "exchange"

    def __init__(
        self,
        pipelines: list[Cursor],
        workers: int,
        queue_batches: int = DEFAULT_QUEUE_BATCHES,
    ):
        super().__init__(Schema([]), pipelines)
        if not pipelines:
            raise ExecutionError("an exchange needs at least one partition")
        self.partitions = len(self.inputs)
        self.workers = max(1, min(workers, self.partitions))
        self._queue_batches = max(1, queue_batches)
        #: Producer blocks on a full partition queue (backpressure events).
        self.queue_full_stalls = 0
        #: Σ busy seconds / (wall seconds × partitions), computed at close.
        self.parallel_efficiency = 0.0
        self._stall_lock = threading.Lock()
        self._cancel: threading.Event | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._streams: list[_PartitionStream] = []
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
        for index, pipeline in enumerate(self.inputs):
            lines.append("  " * (indent + 1) + f"[partition {index}]")
            lines.extend(pipeline.describe(indent + 2))
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
        self._streams = [
            _PartitionStream(self._queue_batches) for _ in self.inputs
        ]
        self._busy = [0.0] * self.partitions
        self._begin = time.perf_counter()
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="tango-exchange"
        )
        for index, (pipeline, stream) in enumerate(zip(self.inputs, self._streams)):
            self._executor.submit(self._produce, index, pipeline, stream)

    def _produce(
        self, index: int, pipeline: Cursor, stream: _PartitionStream
    ) -> None:
        busy = 0.0
        cancel = self._cancel
        assert cancel is not None
        try:
            begin = time.perf_counter()
            pipeline.init()
            stream.schema = pipeline.schema
            busy += time.perf_counter() - begin
            size = max(1, self.batch_size)
            while not cancel.is_set():
                begin = time.perf_counter()
                batch = pipeline.next_batch(size)
                busy += time.perf_counter() - begin
                if not batch:
                    break
                self._offer(stream, batch)
        except _Cancelled:
            pass
        except BaseException as error:  # noqa: BLE001 - crosses the thread
            stream.error = error
            cancel.set()
        finally:
            self._busy[index] = busy
            try:
                pipeline.close()
            except BaseException as error:  # noqa: BLE001
                if stream.error is None:
                    stream.error = error
                    cancel.set()
            stream.done.set()

    def _offer(self, stream: _PartitionStream, batch: list[tuple]) -> None:
        queue = stream.queue
        cancel = self._cancel
        assert cancel is not None
        if queue.full():
            with self._stall_lock:
                self.queue_full_stalls += 1
        while True:
            if cancel.is_set():
                raise _Cancelled()
            try:
                queue.put(batch, timeout=_POLL_SECONDS)
                return
            except Full:
                continue

    # -- consumer side ---------------------------------------------------------------

    def _take(self, stream: _PartitionStream) -> list[tuple] | None:
        """Next batch from one stream; None when it finished cleanly."""
        queue = stream.queue
        while True:
            if stream.error is not None:
                raise stream.error
            try:
                batch = queue.get(timeout=_POLL_SECONDS)
            except Empty:
                if stream.done.is_set():
                    # The producer sets done after its last put; one final
                    # non-blocking drain closes the race.
                    try:
                        batch = queue.get_nowait()
                    except Empty:
                        if stream.error is not None:
                            raise stream.error
                        # Even an empty partition publishes its schema (set
                        # by the producer after pipeline init, before done).
                        self._adopt_schema(stream)
                        return None
                else:
                    continue
            self._adopt_schema(stream)
            return batch

    def _adopt_schema(self, stream: _PartitionStream) -> None:
        if not len(self.schema) and stream.schema is not None:
            self.schema = stream.schema

    def _next_batch(self, n: int) -> list[tuple]:
        out: list[tuple] = []
        while len(out) < n:
            rows = self._take_concat()
            if rows is None:
                break
            if not out and len(rows) == n:
                # A full arriving batch with nothing buffered is the hot
                # path: hand it straight through.
                return rows
            out.extend(rows)
        return self._park_surplus(out, n)

    def _take_concat(self) -> list[tuple] | None:
        """Next batch in partition order; ``None`` when every partition
        stream has finished."""
        while self._current < len(self._streams):
            batch = self._take(self._streams[self._current])
            if batch is not None:
                return batch
            self._current += 1
        return None

    # -- teardown --------------------------------------------------------------------

    def _close(self) -> None:
        if self._cancel is None:
            # Never initialized: the pipelines were never started either.
            for pipeline in self.inputs:
                try:
                    pipeline.close()
                except BaseException:  # noqa: BLE001 - best-effort cleanup
                    pass
            return
        self._cancel.set()
        # Unblock producers stuck on full queues, then join them.
        for stream in self._streams:
            while True:
                try:
                    stream.queue.get_nowait()
                except Empty:
                    break
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        wall = time.perf_counter() - self._begin
        if wall > 0:
            self.parallel_efficiency = min(1.0, sum(self._busy) / (wall * self.partitions))
