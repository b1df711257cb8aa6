"""``TAGGR^M`` — the paper's two-sorted-copies temporal aggregation.

Section 3.4: the argument must arrive sorted on the grouping attributes and
``T1``; the algorithm internally keeps a second copy of each group sorted on
``T2`` and traverses both "similarly to sort-merge join", computing the
aggregate values group by group.  Between two consecutive instants the set
of valid tuples is constant, so one result tuple is emitted per constant
interval in which at least one tuple is valid (Figure 3(c)).

Here that is literal: per group, the rows stably sorted on ``T1`` (their
input order) are the start copy, ``sorted(rows, key=itemgetter(T2))`` the
end copy, and one walk merges them, starts before ends at one instant,
until the ends run out.  Both sorts key on the instant alone, so rows are
never compared (they may hold NULLs).  A row with a NULL ``T1`` or ``T2`` is valid at no instant;
a sort, or the walk's first comparison in a one-row group, trips on it, and
only then is the group swept again without such rows (a ``TypeError`` in a
group with no NULL endpoint propagates).  The walk serves every aggregate:
COUNT slides an integer (``COUNT(A)`` skips NULL arguments, ``COUNT(*)`` is
the number of valid tuples), SUM/AVG/MIN/MAX slide a
:class:`~repro.dbms.sql.functions.SlidingAggregate` and are NULL while every
valid value is.  The MIN/MAX lazy-deletion heap is exactly why the
algorithm wants the T2-sorted copy rather than the in-memory aggregation
trees of Kline & Snodgrass [13].

The cursor works a batch of groups at a time: it splits each input batch
into groups and keeps the trailing group until the next batch (or the end)
shows it complete.  One function, rendered once per grouping arity, period
and aggregate list, sweeps every complete group of a batch into one output
list, an event costing straight-line code and an output row one tuple
display.  The cursor hands those lists out ``batch_size`` rows at a time,
as every generator cursor does.  Per group of *n* rows the meter is charged
what a row-at-a-time sweep charges: ``n·max(1, n.bit_length())`` for the
T2-sorted copy, plus one per start and end consumed — ``2n`` when every
period is valid.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, groupby
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from repro.algebra.operators import AggregateSpec
from repro.algebra.schema import Attribute, AttrType, Schema
from repro.dbms.costmodel import CostMeter
from repro.dbms.sql.functions import SlidingAggregate
from repro.errors import ExecutionError
from repro.xxl.cursor import Cursor, GeneratorCursor

#: One batch's sweep over its complete groups; returns the ticks.  ``live``
#: counts the valid tuples, ``j`` the starts consumed; the rendered parts
#: hold a ``cI`` integer per ``COUNT(A)`` and an ``aI``
#: :class:`SlidingAggregate` per other aggregate.
_SWEEP = """\
def sweep(groups, out):
    append = out.append
    ticks = 0
    for {key}, rows in groups:
        mark = len(out)
        while True:
            try:
                starts = sorted(rows, key=BEGIN)
                starts.append(STOP)
                start = starts[0]
                begin = start[{t1}]
                j = live = {counters}0
                previous = None
{states}                for row in sorted(rows, key=END):
                    end = row[{t2}]
                    while begin <= end:
                        if begin != previous:
                            if live:
                                append(({row}previous, begin, {values}))
                            previous = begin
                        live += 1
{add}                        j += 1
                        start = starts[j]
                        begin = start[{t1}]
                    if end != previous:
                        if live:
                            append(({row}previous, end, {values}))
                        previous = end
                    live -= 1
{remove}                break
            except TypeError:
                # A NULL T1 or T2 leaves its row valid at no instant (SQL's
                # ``T1 <= t AND t < T2`` is unknown): the group loses it.
                del out[mark:]
                valid = [row for row in rows if row[{t1}] is not None and row[{t2}] is not None]
                if len(valid) == len(rows):
                    raise
                rows = valid
        n = len(rows)
        ticks += n * (n.bit_length() or 1) + n + j
    return ticks
"""


class _Never:
    """After every instant: the start copy's sentinel, never consumed."""

    def __le__(self, other: object) -> bool:
        return False


@lru_cache(maxsize=256)
def _compile_sweep(arity: int, t1: int, t2: int, arguments: tuple) -> Callable:
    """The sweep for *arity* grouping attributes, the period at positions
    *t1*/*t2* and aggregates given as (function, argument position), the
    position ``None`` for ``COUNT(*)``."""
    counters, states, values, add, remove = [], [], [], [], []
    for index, (func, position) in enumerate(arguments):
        if position is None:
            values.append("live")
        elif func == "COUNT":
            counters.append(f"c{index} = ")
            values.append(f"c{index}")
            add.append(f"if start[{position}] is not None: c{index} += 1")
            remove.append(f"if row[{position}] is not None: c{index} -= 1")
        else:
            states.append(f"a{index} = SlidingAggregate({func!r})")
            values.append(f"a{index}.result()")
            add.append(f"a{index}.add(start[{position}])")
            remove.append(f"a{index}.remove(row[{position}])")
    keys = [f"k{i}" for i in range(arity)]
    source = _SWEEP.format(
        key=f"({', '.join(keys)})" if arity > 1 else "k0",
        row="".join(f"{k}, " for k in keys),
        t1=t1,
        t2=t2,
        counters="".join(counters),
        values=", ".join(values),
        states="".join(f"{' ' * 16}{line}\n" for line in states),
        add="".join(f"{' ' * 24}{line}\n" for line in add),
        remove="".join(f"{' ' * 20}{line}\n" for line in remove),
    )
    namespace = {
        "BEGIN": itemgetter(t1),
        "END": itemgetter(t2),
        "STOP": (_Never(),) * (t1 + 1),
        "SlidingAggregate": SlidingAggregate,
    }
    exec(compile(source, "<TAGGR^M sweep>", "exec"), namespace)
    return namespace["sweep"]


def _no_key(row: tuple) -> tuple:
    return ()


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
        attributes.append(Attribute(source[t1].name, AttrType.DATE))
        attributes.append(Attribute(source[t2].name, AttrType.DATE))
        for spec in self.aggregates:
            attributes.append(Attribute(spec.output_name, spec.output_type(source)))
        self.schema = Schema(attributes)

        positions = [source.index_of(name) for name in self.group_by]
        self._key_of = itemgetter(*positions) if positions else _no_key
        arguments = tuple(
            (spec.func, None if spec.attribute is None else source.index_of(spec.attribute))
            for spec in self.aggregates
        )
        period = source.index_of(t1), source.index_of(t2)
        self._sweep = _compile_sweep(len(positions), *period, arguments)
        #: The last group read: swept once a later key (or the end) arrives.
        self._key: object = None
        self._group: list[tuple] = []
        #: An ordering error, raised by the pull after the groups before it are swept.
        self._failure: ExecutionError | None = None
        super()._open()

    def _generate(self) -> Iterator[tuple]:
        return chain.from_iterable(self._sweeps())

    def _sweeps(self) -> Iterator[list[tuple]]:
        """One output list per input batch: its complete groups, swept."""
        while True:
            batch = self._input.next_batch()
            out: list[tuple] = []
            ticks = self._sweep(self._complete_groups(batch), out)
            if self._meter is not None:
                self._meter.charge_cpu(ticks)
            yield out
            if self._failure is not None:
                raise self._failure
            if not batch:
                return

    def _complete_groups(self, batch: list[tuple]) -> list[tuple[object, list[tuple]]]:
        """The groups *batch* completes, in order, as (key, rows)."""
        if not batch:
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

    def _close(self) -> None:
        super()._close()
        self._group = []
        self._input.close()
