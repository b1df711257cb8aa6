"""``TAGGR^M`` — the paper's two-sorted-copies temporal aggregation.

Section 3.4: the argument must arrive sorted on the grouping attributes and
``T1``; the algorithm internally keeps a second copy of each group sorted on
``T2`` and traverses both "similarly to sort-merge join", computing the
aggregate values group by group.  Between two consecutive instants the set
of valid tuples is constant, so one result tuple is emitted per constant
interval in which at least one tuple is valid (Figure 3(c)).

Here the two copies are one list per group: an ``(instant, ±1, row)`` event
per ``T1`` and per ``T2``, all starts listed before all ends, put in order
by a stable sort on the instant alone.  That is the merge of the T1-sorted
copy with the T2-sorted one, starts before ends at one instant, and it
never compares rows (they may hold NULLs).  A row with a NULL ``T1`` or
``T2`` is valid at no instant; the sort trips on it, and only then is the
group's event list rebuilt without such rows.  One walk over the events serves
every aggregate: COUNT slides an integer (``COUNT(A)`` skips NULL
arguments, ``COUNT(*)`` is the number of valid tuples), SUM/AVG/MIN/MAX
slide a :class:`~repro.dbms.sql.functions.SlidingAggregate` and are NULL
while every valid value is.  The MIN/MAX lazy-deletion heap is exactly why
the algorithm wants the T2-sorted copy rather than the in-memory
aggregation trees of Kline & Snodgrass [13].  The walk's source is rendered
once per aggregate list, so an event costs straight-line code rather than a
loop over the aggregates.

The cursor works a batch of groups at a time: it splits each input batch
into groups, sweeps every complete group into the output list and keeps the
trailing group until the next batch (or the end) shows it complete.  Per
group of *n* rows the meter is charged what a row-at-a-time sweep charges:
``n·max(1, n.bit_length())`` for the T2-sorted copy, plus one per start and
end consumed — ``2n`` when every period is valid.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from operator import itemgetter
from typing import Callable, Sequence

from repro.algebra.operators import AggregateSpec
from repro.algebra.schema import Attribute, AttrType, Schema
from repro.dbms.costmodel import CostMeter
from repro.dbms.sql.functions import SlidingAggregate
from repro.errors import ExecutionError
from repro.xxl.cursor import Cursor

_INSTANT = itemgetter(0)

#: One group's walk over its sorted events.  ``live`` counts the valid
#: tuples; the rendered parts hold a ``cI`` integer per ``COUNT(A)`` and an
#: ``aI`` :class:`SlidingAggregate` per other aggregate.
_WALK = """\
def walk(key, events, append, sliding):
    {unpack}live = {counters}0
    previous = events[0][0]
    for instant, sign, row in events:
        if instant != previous:
            if live:
                append(key + (previous, instant, {values}))
            previous = instant
        live += sign
{steps}"""


@lru_cache(maxsize=256)
def _compile_walk(arguments: tuple[tuple[str, int | None], ...]) -> Callable:
    """The walk for aggregates given as (function, argument position), the
    position ``None`` for ``COUNT(*)``; *sliding* holds the non-COUNT
    aggregates' fresh states, in order."""
    unpack, counters, values, steps = [], [], [], []
    for index, (func, position) in enumerate(arguments):
        if position is None:
            values.append("live")
        elif func == "COUNT":
            counters.append(f"c{index} = ")
            values.append(f"c{index}")
            steps.append(f"if row[{position}] is not None: c{index} += sign")
        else:
            unpack.append(f"a{index}, ")
            values.append(f"a{index}.result()")
            steps.append(f"(a{index}.add if sign > 0 else a{index}.remove)(row[{position}])")
    source = _WALK.format(
        unpack="".join(unpack) + "= sliding\n    " if unpack else "",
        counters="".join(counters),
        values=", ".join(values),
        steps="".join(f"        {step}\n" for step in steps),
    )
    namespace: dict = {}
    exec(compile(source, "<TAGGR^M walk>", "exec"), namespace)
    return namespace["walk"]


def _no_key(row: tuple) -> tuple:
    return ()


def _events(rows: list[tuple], t1: int, t2: int) -> list[tuple]:
    """A start per row, then an end per row, each ``(instant, ±1, row)``."""
    events = [(row[t1], 1, row) for row in rows]
    events += [(row[t2], -1, row) for row in rows]
    return events


class TemporalAggregateCursor(Cursor):
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
        attributes.append(Attribute(source[t1].name, AttrType.DATE))
        attributes.append(Attribute(source[t2].name, AttrType.DATE))
        for spec in self.aggregates:
            attributes.append(Attribute(spec.output_name, spec.output_type(source)))
        self.schema = Schema(attributes)

        positions = [source.index_of(name) for name in self.group_by]
        self._key_of = itemgetter(*positions) if positions else _no_key
        self._single = len(positions) == 1
        self._t1 = source.index_of(t1)
        self._t2 = source.index_of(t2)
        self._walk = _compile_walk(
            tuple(
                (spec.func, None if spec.attribute is None else source.index_of(spec.attribute))
                for spec in self.aggregates
            )
        )
        self._sliding = [spec.func for spec in self.aggregates if spec.func != "COUNT"]
        #: The last group read: swept once a later key (or the end) arrives.
        self._key: object = None
        self._group: list[tuple] = []
        self._drained = False
        #: An ordering error, raised once the groups before it are handed out.
        self._failure: ExecutionError | None = None

    def _next_batch(self, n: int) -> list[tuple]:
        out: list[tuple] = []
        while len(out) < n and not self._drained and self._failure is None:
            self._sweep(self._complete_groups(self._input.next_batch(self.batch_size)), out)
        if not out and self._failure is not None:
            raise self._failure
        return self._park_surplus(out, n)

    def _complete_groups(self, batch: list[tuple]) -> list[tuple[object, list[tuple]]]:
        """The groups *batch* completes, in order, as (key, rows)."""
        if not batch:
            self._drained = True
            return [(self._key, self._group)] if self._group else []
        complete = []
        for key, rows in groupby(batch, self._key_of):
            if self._group:
                if key == self._key:
                    self._group.extend(rows)
                    continue
                try:
                    out_of_order = key < self._key  # type: ignore[operator]
                except TypeError:
                    out_of_order = False
                if out_of_order:
                    self._failure = ExecutionError(
                        "TAGGR^M input is not sorted on the grouping attributes"
                    )
                    break
                complete.append((self._key, self._group))
            self._key = key
            self._group = list(rows)
        return complete

    def _sweep(self, groups: list[tuple[object, list[tuple]]], out: list[tuple]) -> None:
        """One walk per group over its events, appended to *out*."""
        t1, t2 = self._t1, self._t2
        walk, single, sliding, append = self._walk, self._single, self._sliding, out.append
        ticks = 0
        for key, rows in groups:
            events = _events(rows, t1, t2)
            try:
                events.sort(key=_INSTANT)
            except TypeError:
                # A NULL T1 or T2 leaves its row valid at no instant (SQL's
                # ``T1 <= t AND t < T2`` is unknown): the group loses it.
                rows = [row for row in rows if row[t1] is not None and row[t2] is not None]
                if not rows:
                    continue
                events = _events(rows, t1, t2)
                events.sort(key=_INSTANT)
            # A start after the group's last end (a period ending before it
            # begins) opens nothing the sweep would ever close: never consumed.
            while events[-1][1] > 0:
                events.pop()
            count = len(rows)
            ticks += count * max(1, count.bit_length()) + len(events)
            states = [SlidingAggregate(func) for func in sliding] if sliding else ()
            walk((key,) if single else key, events, append, states)
        if self._meter is not None:
            self._meter.charge_cpu(ticks)

    def _close(self) -> None:
        self._group = []
        self._input.close()
