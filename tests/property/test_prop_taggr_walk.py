"""Differential wall: ``TAGGR^M``'s batched merge sweep against the
row-at-a-time sweeps it replaced.

The reference below is the operator's previous sweep code — one generator
per group, a T2-sorted copy merged index by index with the T1-sorted input,
a general :class:`SlidingAggregate` sweep and two counting specializations
— with one change: an interval is emitted when some tuple is *valid* in it
(``live``), not when some count is non-zero, which is the NULL-argument
semantics the operator now follows (``COUNT(A)`` skips NULLs, the other
aggregates are NULL when every value is).  The merge must give the same
rows, in the same order, and charge the same ``meter.cpu`` to the tick,
at any batch size, grouping, aggregate list and NULL pattern.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter

from hypothesis import given, settings, strategies as st

from repro.algebra.operators import AggregateSpec
from repro.algebra.schema import Attribute, AttrType, Schema
from repro.dbms.costmodel import CostMeter
from repro.dbms.sql.functions import SlidingAggregate
from repro.errors import ExecutionError
from repro.xxl.cursor import materialize
from repro.xxl.sources import RelationCursor
from repro.xxl.temporal_aggregate import TemporalAggregateCursor

SCHEMA = Schema(
    [
        Attribute("G1", AttrType.INT),
        Attribute("G2", AttrType.INT),
        Attribute("V", AttrType.INT),
        Attribute("W", AttrType.INT),
        Attribute("T1", AttrType.DATE),
        Attribute("T2", AttrType.DATE),
    ]
)
T1, T2 = 4, 5

SPECS = [
    AggregateSpec("COUNT"),
    AggregateSpec("COUNT", "V"),
    AggregateSpec("COUNT", "W"),
    AggregateSpec("SUM", "V"),
    AggregateSpec("AVG", "V"),
    AggregateSpec("MIN", "V"),
    AggregateSpec("MAX", "V"),
    AggregateSpec("SUM", "W"),
]
GROUPINGS = [(), ("G1",), ("G1", "G2")]


# -- the reference: the replaced sweeps ------------------------------------------------


def reference(rows, group_by, aggregates, meter):
    """Every group of *rows* (sorted on *group_by*, T1) swept in turn."""
    group_positions = [SCHEMA.index_of(name) for name in group_by]
    argument_positions = [
        SCHEMA.index_of(spec.attribute) if spec.attribute is not None else None
        for spec in aggregates
    ]
    out = []
    for key, group in groupby(rows, lambda row: tuple(row[p] for p in group_positions)):
        out.extend(sweep_group(key, list(group), aggregates, argument_positions, meter))
    return out


def sweep_group(key, rows, aggregates, argument_positions, meter):
    by_end = sorted(rows, key=itemgetter(T2))
    count = len(rows)
    meter.charge_cpu(count * max(1, count.bit_length()))
    if all(spec.func == "COUNT" for spec in aggregates):
        return sweep_counts(key, rows, by_end, argument_positions, meter)
    return sweep_general(key, rows, by_end, aggregates, argument_positions, meter)


def sweep_general(key, rows, by_end, aggregates, argument_positions, meter):
    sliding = [SlidingAggregate(spec.func) for spec in aggregates]
    start_index = end_index = live = 0
    total = len(rows)
    previous = None
    infinity = float("inf")
    while end_index < total:
        next_start = rows[start_index][T1] if start_index < total else infinity
        next_end = by_end[end_index][T2]
        instant = next_start if next_start < next_end else next_end
        if previous is not None and previous < instant and live:
            yield key + (previous, instant) + tuple(agg.result() for agg in sliding)
        s0, e0 = start_index, end_index
        while start_index < total and rows[start_index][T1] == instant:
            row = rows[start_index]
            for agg, position in zip(sliding, argument_positions):
                agg.add(1 if position is None else row[position])
            start_index += 1
        while end_index < total and by_end[end_index][T2] == instant:
            row = by_end[end_index]
            for agg, position in zip(sliding, argument_positions):
                agg.remove(1 if position is None else row[position])
            end_index += 1
        live += (start_index - s0) - (end_index - e0)
        meter.charge_cpu((start_index - s0) + (end_index - e0))
        previous = instant


def sweep_counts(key, rows, by_end, argument_positions, meter):
    start_index = end_index = live = 0
    total = len(rows)
    previous = None
    infinity = float("inf")

    if len(argument_positions) == 1:
        position = argument_positions[0]
        count = 0
        while end_index < total:
            next_start = rows[start_index][T1] if start_index < total else infinity
            next_end = by_end[end_index][T2]
            instant = next_start if next_start < next_end else next_end
            if previous is not None and previous < instant and live:
                yield key + (previous, instant, count)
            s0, e0 = start_index, end_index
            while start_index < total and rows[start_index][T1] == instant:
                if position is None or rows[start_index][position] is not None:
                    count += 1
                start_index += 1
            while end_index < total and by_end[end_index][T2] == instant:
                if position is None or by_end[end_index][position] is not None:
                    count -= 1
                end_index += 1
            live += (start_index - s0) - (end_index - e0)
            meter.charge_cpu((start_index - s0) + (end_index - e0))
            previous = instant
        return

    counts = [0] * len(argument_positions)
    while end_index < total:
        next_start = rows[start_index][T1] if start_index < total else infinity
        next_end = by_end[end_index][T2]
        instant = next_start if next_start < next_end else next_end
        if previous is not None and previous < instant and live:
            yield key + (previous, instant) + tuple(counts)
        s0, e0 = start_index, end_index
        while start_index < total and rows[start_index][T1] == instant:
            row = rows[start_index]
            for index, position in enumerate(argument_positions):
                if position is None or row[position] is not None:
                    counts[index] += 1
            start_index += 1
        while end_index < total and by_end[end_index][T2] == instant:
            row = by_end[end_index]
            for index, position in enumerate(argument_positions):
                if position is None or row[position] is not None:
                    counts[index] -= 1
            end_index += 1
        live += (start_index - s0) - (end_index - e0)
        meter.charge_cpu((start_index - s0) + (end_index - e0))
        previous = instant


# -- the wall ---------------------------------------------------------------------------


def relation(durations):
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=1),
            st.one_of(st.none(), st.integers(min_value=-20, max_value=20)),
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=40),
            durations,
        ).map(lambda t: t[:5] + (t[4] + t[5],)),
        max_size=60,
    )


CASES = dict(
    grouping=st.sampled_from(GROUPINGS),
    aggregates=st.lists(st.sampled_from(SPECS), min_size=1, max_size=3, unique=True),
    batch_size=st.sampled_from([1, 2, 7, 256]),
)


def sorted_on(rows, group_by):
    positions = [SCHEMA.index_of(name) for name in group_by] + [T1]
    return sorted(rows, key=lambda row: tuple(row[p] for p in positions))


def taggr(rows, group_by, aggregates, batch_size, meter, source=RelationCursor):
    feed = source(SCHEMA, rows)
    feed.batch_size = batch_size
    cursor = TemporalAggregateCursor(feed, group_by, aggregates, meter=meter)
    cursor.batch_size = batch_size
    return cursor


def outcome(run):
    meter = CostMeter()
    try:
        return run(meter), meter.cpu
    except ExecutionError as error:
        return type(error), None


@settings(max_examples=300, deadline=None)
@given(rows=relation(st.integers(min_value=0, max_value=15)), **CASES)
def test_walk_matches_the_replaced_sweeps(rows, grouping, aggregates, batch_size):
    rows = sorted_on(rows, grouping)
    meter = CostMeter()
    got = materialize(taggr(rows, grouping, aggregates, batch_size, meter))
    expected_meter = CostMeter()
    assert got == reference(rows, grouping, aggregates, expected_meter)
    assert meter.cpu == expected_meter.cpu


@settings(max_examples=150, deadline=None)
@given(rows=relation(st.integers(min_value=-8, max_value=15)), **CASES)
def test_periods_that_end_before_they_begin(rows, grouping, aggregates, batch_size):
    # Starts after a group's last end were never consumed, so never billed;
    # a MIN/MAX removal before its addition raises on both sides.
    rows = sorted_on(rows, grouping)
    assert outcome(
        lambda meter: materialize(taggr(rows, grouping, aggregates, batch_size, meter))
    ) == outcome(lambda meter: reference(rows, grouping, aggregates, meter))


class Recorded(RelationCursor):
    """A source that remembers whether it has reported its end."""

    ended = False

    def _next_batch(self):
        batch = super()._next_batch()
        self.ended = self.ended or not batch
        return batch


@settings(max_examples=200, deadline=None)
@given(rows=relation(st.integers(min_value=0, max_value=15)), data=st.data(), **CASES)
def test_an_abandoned_walk_bills_the_groups_swept_so_far(
    rows, data, grouping, aggregates, batch_size
):
    """Closed after the batch that reaches *k* rows, the cursor has charged
    every group the input pulled so far completed — a group followed by a
    pulled row of the next one, the last group once the input reported its
    end — in full, and
    nothing for any other group (the row-at-a-time sweep charged a group's
    instants one by one as its rows were handed out)."""
    rows = sorted_on(rows, grouping)
    expected = reference(rows, grouping, aggregates, CostMeter())
    k = data.draw(st.integers(min_value=1, max_value=len(expected) + 1))
    meter = CostMeter()
    cursor = taggr(rows, grouping, aggregates, batch_size, meter, source=Recorded).init()
    got: list[tuple] = []
    try:
        while len(got) < k and (batch := cursor.next_batch()):
            got.extend(batch)
        assert got == expected[: len(got)]
        assert len(got) >= min(k, len(expected))
    finally:
        cursor.close()

    source = cursor.inputs[0]
    positions = [SCHEMA.index_of(name) for name in grouping]
    bill, consumed = CostMeter(), 0
    for _, group in groupby(rows, lambda row: [row[p] for p in positions]):
        group = list(group)
        consumed += len(group)
        if consumed < source.rows_produced or (
            consumed == source.rows_produced and source.ended
        ):
            reference(group, grouping, aggregates, bill)
    assert meter.cpu == bill.cpu
