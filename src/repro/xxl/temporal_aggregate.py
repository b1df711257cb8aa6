"""``TAGGR^M`` — the paper's two-sorted-copies temporal aggregation.

Section 3.4: the argument must arrive sorted on the grouping attributes and
``T1``; the algorithm internally keeps a second copy of each group sorted on
``T2`` and traverses both "similarly to sort-merge join", computing the
aggregate values group by group.  Per group this is a sweep over the start
and end instants: between two consecutive instants the set of valid tuples
is constant, so one result tuple per non-empty constant interval is emitted
(Figure 3(c)).

COUNT/SUM/AVG slide in O(1); MIN/MAX use a lazy-deletion heap
(:class:`~repro.dbms.sql.functions.SlidingAggregate`), which is exactly why
the algorithm wants the T2-sorted copy rather than the in-memory aggregation
trees of Kline & Snodgrass [13].
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterator, Sequence

from repro.algebra.operators import AggregateSpec
from repro.algebra.schema import Attribute, AttrType, Schema
from repro.dbms.costmodel import CostMeter
from repro.dbms.sql.functions import SlidingAggregate
from repro.errors import ExecutionError
from repro.xxl.cursor import Cursor, GeneratorCursor


class TemporalAggregateCursor(GeneratorCursor):
    """Temporal aggregation over an input sorted on (group attrs, T1).

    Output: group attributes, ``T1``, ``T2``, one value per aggregate —
    ordered by the grouping attributes then ``T1`` (the algorithm is order
    preserving, so no extra sort is needed after it; see Query 1).
    """

    algorithm = "TAGGR^M"

    def __init__(
        self,
        input: Cursor,
        group_by: Sequence[str] = (),
        aggregates: Sequence[AggregateSpec] = (),
        period: tuple[str, str] = ("T1", "T2"),
        meter: CostMeter | None = None,
    ):
        if not aggregates:
            raise ExecutionError("temporal aggregation needs at least one aggregate")
        self._input = input
        self.group_by = tuple(group_by)
        self.aggregates = tuple(aggregates)
        self.period = period
        self._meter = meter
        super().__init__(input.schema, (input,))

    def detail(self) -> str:
        aggregates = ", ".join(spec.to_sql() for spec in self.aggregates)
        return f"GroupBy: {', '.join(self.group_by)}  Aggregate: {aggregates}"

    def _open(self) -> None:
        self._input.init()
        source = self._input.schema
        t1, t2 = self.period
        attributes = [source[name] for name in self.group_by]
        attributes.append(Attribute(t1, AttrType.DATE))
        attributes.append(Attribute(t2, AttrType.DATE))
        for spec in self.aggregates:
            attributes.append(Attribute(spec.output_name, spec.output_type(source)))
        self.schema = Schema(attributes)
        super()._open()

    def _generate(self) -> Iterator[tuple]:
        source = self._input.schema
        group_positions = [source.index_of(name) for name in self.group_by]
        t1_pos = source.index_of(self.period[0])
        t2_pos = source.index_of(self.period[1])
        argument_positions = [
            source.index_of(spec.attribute) if spec.attribute is not None else None
            for spec in self.aggregates
        ]

        single_group = group_positions[0] if len(group_positions) == 1 else None

        current_key: tuple | None = None
        group_rows: list[tuple] = []
        # Batch loop outside, row loop inside: no per-row generator resume.
        while batch := self._input.next_batch(self.batch_size):
            for row in batch:
                if single_group is not None:
                    key = (row[single_group],)
                else:
                    key = tuple(row[p] for p in group_positions)
                if current_key is None:
                    current_key = key
                if key != current_key:
                    try:
                        out_of_order = key < current_key  # type: ignore[operator]
                    except TypeError:
                        out_of_order = False
                    if out_of_order:
                        raise ExecutionError(
                            "TAGGR^M input is not sorted on the grouping attributes"
                        )
                    yield from self._sweep_group(
                        current_key, group_rows, t1_pos, t2_pos, argument_positions
                    )
                    current_key = key
                    group_rows = []
                group_rows.append(row)
        if current_key is not None:
            yield from self._sweep_group(
                current_key, group_rows, t1_pos, t2_pos, argument_positions
            )

    def _sweep_group(
        self,
        key: tuple,
        rows: list[tuple],
        t1_pos: int,
        t2_pos: int,
        argument_positions: list[int | None],
    ) -> Iterator[tuple]:
        """Sweep one group's constant intervals.

        *rows* arrive sorted on T1 (the external sort); the internal second
        copy sorted on T2 drives the removals.  Not itself a generator —
        it hands back the sweep's iterator directly, saving one generator
        frame per emitted tuple.
        """
        meter = self._meter
        by_end = sorted(rows, key=itemgetter(t2_pos))
        if meter is not None:
            count = len(rows)
            meter.charge_cpu(count * max(1, count.bit_length()))

        if all(spec.func == "COUNT" for spec in self.aggregates):
            return self._sweep_counts(
                key, rows, by_end, t1_pos, t2_pos, argument_positions, meter
            )
        return self._sweep_general(
            key, rows, by_end, t1_pos, t2_pos, argument_positions, meter
        )

    def _sweep_general(
        self,
        key: tuple,
        rows: list[tuple],
        by_end: list[tuple],
        t1_pos: int,
        t2_pos: int,
        argument_positions: list[int | None],
        meter: CostMeter | None,
    ) -> Iterator[tuple]:
        sliding = [SlidingAggregate(spec.func) for spec in self.aggregates]
        start_index = 0
        end_index = 0
        total = len(rows)
        previous: int | None = None
        infinity = float("inf")

        while end_index < total:
            next_start = rows[start_index][t1_pos] if start_index < total else infinity
            next_end = by_end[end_index][t2_pos]
            instant = next_start if next_start < next_end else next_end

            if (
                previous is not None
                and previous < instant
                and any(not agg.empty for agg in sliding)
            ):
                yield key + (previous, instant) + tuple(
                    agg.result() for agg in sliding
                )
            # Meter checks are hoisted out of the advance loops: indices
            # before/after give the exact tuple count to charge at once.
            s0, e0 = start_index, end_index
            while start_index < total and rows[start_index][t1_pos] == instant:
                row = rows[start_index]
                for agg, position in zip(sliding, argument_positions):
                    agg.add(1 if position is None else row[position])
                start_index += 1
            while end_index < total and by_end[end_index][t2_pos] == instant:
                row = by_end[end_index]
                for agg, position in zip(sliding, argument_positions):
                    agg.remove(1 if position is None else row[position])
                end_index += 1
            if meter is not None:
                meter.charge_cpu((start_index - s0) + (end_index - e0))
            previous = instant

    @staticmethod
    def _sweep_counts(
        key: tuple,
        rows: list[tuple],
        by_end: list[tuple],
        t1_pos: int,
        t2_pos: int,
        argument_positions: list[int | None],
        meter: CostMeter | None,
    ) -> Iterator[tuple]:
        """The sweep specialized to all-COUNT aggregates (Queries 1 and 2).

        COUNT slides with a plain integer per aggregate — no
        :class:`SlidingAggregate` objects, no per-instant generator
        expressions — which roughly halves the per-tuple cost of the
        paper's flagship aggregation.  ``COUNT(A)`` still skips NULLs.
        """
        start_index = 0
        end_index = 0
        total = len(rows)
        previous: int | None = None
        infinity = float("inf")

        if len(argument_positions) == 1:
            # One COUNT (the Query 1 / Query 2 shape): slide a scalar.
            position = argument_positions[0]
            count = 0
            while end_index < total:
                next_start = (
                    rows[start_index][t1_pos] if start_index < total else infinity
                )
                next_end = by_end[end_index][t2_pos]
                instant = next_start if next_start < next_end else next_end

                if previous is not None and previous < instant and count:
                    yield key + (previous, instant, count)
                s0, e0 = start_index, end_index
                while start_index < total and rows[start_index][t1_pos] == instant:
                    if position is None or rows[start_index][position] is not None:
                        count += 1
                    start_index += 1
                while end_index < total and by_end[end_index][t2_pos] == instant:
                    if position is None or by_end[end_index][position] is not None:
                        count -= 1
                    end_index += 1
                if meter is not None:
                    meter.charge_cpu((start_index - s0) + (end_index - e0))
                previous = instant
            return

        counts = [0] * len(argument_positions)
        while end_index < total:
            next_start = rows[start_index][t1_pos] if start_index < total else infinity
            next_end = by_end[end_index][t2_pos]
            instant = next_start if next_start < next_end else next_end

            if previous is not None and previous < instant and any(counts):
                yield key + (previous, instant) + tuple(counts)
            s0, e0 = start_index, end_index
            while start_index < total and rows[start_index][t1_pos] == instant:
                row = rows[start_index]
                for index, position in enumerate(argument_positions):
                    if position is None or row[position] is not None:
                        counts[index] += 1
                start_index += 1
            while end_index < total and by_end[end_index][t2_pos] == instant:
                row = by_end[end_index]
                for index, position in enumerate(argument_positions):
                    if position is None or row[position] is not None:
                        counts[index] -= 1
                end_index += 1
            if meter is not None:
                meter.charge_cpu((start_index - s0) + (end_index - e0))
            previous = instant

    def _close(self) -> None:
        super()._close()
        self._input.close()
