"""Physical stages of the MiniDB executor and the result set that meters them.

A SELECT block runs as a short chain of *stages* (DESIGN.md §21).  Each
stage computes its whole output list at once, on first demand — the per-row
work of filters, joins and the select list is one generated comprehension
the planner builds — and knows what the row-at-a-time pipeline it replaced
had charged the :class:`~repro.dbms.costmodel.CostMeter` by any point of
consumption: :meth:`Stage.bill` answers "*taken* rows pulled, and had a pull
found the end?".  The counts are the classic ones, so simulated costs still
track the algorithmic effort:

* scans charge one I/O per block and one CPU step per row when planned;
* a filter charges one step per row offered, a projection one per row made;
* sorts charge ``n·log2(n)`` comparisons plus spill I/O for inputs larger
  than the sort area;
* a merge join charges one step per walk step plus one per pair, counted
  before the residual;
* nested-loop joins charge one step per considered pair — the quadratic bill
  that makes SQL temporal aggregation expensive.

:class:`ResultSet` charges the meter the difference at every fetch, so an
abandoned cursor has paid for what it took and the work that produced it.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain, filterfalse, repeat
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from repro.algebra.schema import Schema
from repro.dbms.costmodel import CostMeter
from repro.dbms.sql.functions import Accumulator
from repro.errors import ExecutionError

RowFunc = Callable[[tuple], object]
PairFunc = Callable[[tuple, tuple], object]
#: ``(io, cpu)``, cumulative.
Charge = tuple[int, int]

#: Rows that fit in the simulated sort area before a sort "spills" to disk.
SORT_AREA_ROWS = 100_000

_NOTHING: Charge = (0, 0)


class Stage:
    """Rows computed in bulk on first demand, billed as they are taken."""

    _rows: list[tuple] | None = None

    def rows(self) -> list[tuple]:
        if self._rows is None:
            self._rows = self._compute()
        return self._rows

    def _compute(self) -> list[tuple]:
        raise NotImplementedError

    def bill(self, taken: int, ended: bool) -> Charge:
        """What the row-at-a-time pipeline had charged once *taken* rows
        were pulled from it — with *ended*, also the pull that found none
        left (``taken`` is then every row)."""
        raise NotImplementedError

    def drain(self, meter: CostMeter) -> list[tuple]:
        """Every row, charging *meter* for all of them: a consumer that
        materializes its input when planned (a sort, a nested loop's inner)."""
        rows = self.rows()
        io, cpu = self.bill(len(rows), True)
        meter.charge_io(io)
        meter.charge_cpu(cpu)
        return rows


class Listed(Stage):
    """Rows already produced and paid for (a scanned table, a sorted list)."""

    def __init__(self, rows: list[tuple]):
        self._rows = rows

    def bill(self, taken: int, ended: bool) -> Charge:
        return _NOTHING


class Probed(Stage):
    """The rows an index equality probe finds; the probe is paid at the
    first pull."""

    def __init__(self, index, key: object):
        self.index = index
        self.key = key

    def _compute(self) -> list[tuple]:
        return self.index.matches(self.key)

    def bill(self, taken: int, ended: bool) -> Charge:
        if not (taken or ended):
            return _NOTHING
        return self.index.probe_charge(len(self.rows()))


class Filtered(Stage):
    """A kernel over one input: filter levels, then an optional projection.

    *kernel* maps the input rows to the output list in one comprehension.
    Each entry of *levels* is a predicate charging 1 per row offered to it
    (the conjuncts pushed to a scan, those left over, a ``HAVING``); a
    *projects* kernel charges 1 per row it makes.  To bill a partial pull
    the levels are replayed once to place each output row in the input.
    """

    def __init__(
        self,
        upstream: Stage,
        kernel: Callable[[list[tuple]], list[tuple]],
        levels: Sequence[Callable[[], RowFunc]],
        projects: bool,
    ):
        self.upstream = upstream
        self.kernel = kernel
        self.levels = levels
        self.projects = projects
        self._passed: list[list[int]] | None = None

    def _compute(self) -> list[tuple]:
        return self.kernel(self.upstream.rows())

    def _survivors(self) -> list[list[int]]:
        """Per level, the input positions of the rows that passed it."""
        if self._passed is None:
            rows = self.upstream.rows()
            passed: Sequence[int] = range(len(rows))
            self._passed = []
            for level in self.levels:
                test = level()
                passed = [i for i in passed if test(rows[i])]
                self._passed.append(passed)
        return self._passed

    def bill(self, taken: int, ended: bool) -> Charge:
        made = len(self.rows()) if ended else taken
        cpu = made if self.projects else 0
        if ended:
            offered = len(self.upstream.rows())
            if self.levels:
                cpu += offered
            if len(self.levels) > 1:
                cpu += sum(map(len, self._survivors()[:-1]))
            io, up = self.upstream.bill(offered, True)
            return io, up + cpu
        if not taken:
            return _NOTHING
        if not self.levels:
            io, up = self.upstream.bill(taken, False)
            return io, up + cpu
        survivors = self._survivors()
        last = survivors[-1][taken - 1]
        cpu += last + 1
        for passed in survivors[:-1]:
            cpu += bisect_right(passed, last)
        io, up = self.upstream.bill(last + 1, False)
        return io, up + cpu


def _group(rows: list[tuple], position: int) -> dict[object, Sequence[tuple]]:
    """Rows by the value at *position*, each group in input order.

    Unique keys (a primary key) group without a Python loop, each row in a
    1-tuple — which, unlike a list, the garbage collector stops tracking.
    """
    keys = list(map(itemgetter(position), rows))
    if len(set(keys)) == len(keys):
        return dict(zip(keys, zip(rows)))
    groups: dict[object, list[tuple]] = {}
    get = groups.get
    for key, row in zip(keys, rows):
        bucket = get(key)
        if bucket is None:
            groups[key] = [row]
        else:
            bucket.append(row)
    return groups


def _sorted_on(rows: list[tuple], position: int) -> list[tuple]:
    """*rows* stably sorted on the value at *position*, leaving out the rows
    where it is NULL: NULL compares with nothing, and joins nothing."""
    key = itemgetter(position)
    try:
        ordered = sorted(rows, key=key)
    except TypeError:
        ordered = sorted((row for row in rows if row[position] is not None), key=key)
    if len(ordered) == 1 and ordered[0][position] is None:
        return []  # one row sorts without a comparison
    return ordered


def _locate(totals: list[int], taken: int) -> tuple[int, int]:
    """``(i, k)``: the *taken*-th output is the *k*-th (from 1) of item *i*,
    given the running total of outputs over the items."""
    item = bisect_left(totals, taken)
    return item, taken - (totals[item - 1] if item else 0)


def _nth_true(flags: Iterable[object], nth: int) -> int:
    """Position (from 1) of the *nth* true flag."""
    for position, flag in enumerate(flags, 1):
        if flag:
            nth -= 1
            if not nth:
                return position
    raise AssertionError("a replayed test disagrees with the kernel")


class MergeJoined(Stage):
    """Sort-merge equi-join of two inputs drained when planned.

    The left input is sorted stably on its key and the generated kernel
    walks it, pairing each row with the right rows of its key (grouped in
    input order) and testing the residual on the pair before it builds the
    output row: the order of a merge over both inputs sorted on their keys.
    The bill is that merge walk's: 1 per step — an unmatched row below the
    other side's largest key, or a matched key — plus 1 per pair, plus 1 per
    emitted row if the kernel projects.  NULL keys join nothing and are never
    stepped.  The sorts are charged by the planner.
    """

    def __init__(
        self,
        left: list[tuple],
        right: list[tuple],
        left_key: int,
        right_key: int,
        kernel: Callable[..., list[tuple]],
        residual: Callable[[], PairFunc] | None,
        projects: bool,
    ):
        self._inputs = left, right, right_key
        self.left_key = left_key
        self.kernel = kernel
        self.residual = residual
        self.projects = projects
        self._walked: tuple | None = None
        self._pairs_made: list[int] | None = None
        self._outputs: list[int] | None = None

    def _compute(self) -> list[tuple]:
        left, right, right_key = self._inputs
        self._left = _sorted_on(left, self.left_key)
        self._keys = list(map(itemgetter(self.left_key), self._left))
        self._right = _group(right, right_key)
        self._right.pop(None, None)
        #: Per sorted left row, the right rows of its key.
        self._matches = list(map(self._right.get, self._keys, repeat(())))
        return self.kernel(zip(self._left, self._matches))

    def _walk(self) -> tuple:
        """What the merge walk's bill is read from, worked out once: the
        distinct left keys, and per side the unmatched keys below the other
        side's largest key with the running count of their rows."""
        if self._walked is None:
            keys, right = self._keys, self._right
            distinct = dict.fromkeys(keys)
            lone = list(filterfalse(right.__contains__, distinct))
            matched = len(distinct) - len(lone)
            if lone:
                del lone[bisect_left(lone, max(right)) if right else 0 :]
            absent = sorted(filterfalse(distinct.__contains__, right))
            del absent[bisect_left(absent, keys[-1]) if keys else 0 :]
            below = (
                (lone, [bisect_right(keys, k) - bisect_left(keys, k) for k in lone]),
                (absent, list(map(len, map(right.__getitem__, absent)))),
            )
            below = [(keys, list(accumulate(rows))) for keys, rows in below]
            self._walked = list(distinct), matched, below
        return self._walked

    def _steps(self, key: object = None) -> int:
        """Walk steps up to the match of *key* (``None``: the whole walk): the
        unmatched rows below it, then one per matched key up to it."""
        distinct, matched, below = self._walk()
        steps = 0
        for unmatched, rows in below:
            under = len(unmatched) if key is None else bisect_left(unmatched, key)
            steps += rows[under - 1] if under else 0
        if key is None:
            return steps + matched
        return steps + bisect_right(distinct, key) - bisect_right(below[0][0], key)

    def _pairs(self) -> list[int]:
        """Running total of the pairs over the sorted left rows."""
        if self._pairs_made is None:
            self._pairs_made = list(accumulate(map(len, self._matches)))
        return self._pairs_made

    def bill(self, taken: int, ended: bool) -> Charge:
        made = len(self.rows())
        if ended:
            if self.residual is None:
                pairs = made
            else:
                running = self._pairs()
                pairs = running[-1] if running else 0
            return 0, self._steps() + pairs + (made if self.projects else 0)
        if not taken:
            return _NOTHING
        pairs = self._pairs()
        if self.residual is None:
            row, pair = _locate(pairs, taken)
        else:
            test = self.residual()
            if self._outputs is None:
                self._outputs = list(
                    accumulate(
                        sum(1 for r in matches if test(l, r))
                        for l, matches in zip(self._left, self._matches)
                    )
                )
            row, nth = _locate(self._outputs, taken)
            l = self._left[row]
            pair = _nth_true((test(l, r) for r in self._matches[row]), nth)
        cpu = self._steps(self._keys[row]) + (pairs[row - 1] if row else 0) + pair
        return 0, cpu + (taken if self.projects else 0)


class NestedLooped(Stage):
    """Tuple-at-a-time nested loop over a lazily pulled outer input: every
    (outer, inner) pair is considered and charged 1; *condition* is the
    kernel's test, replayed to place a partial pull."""

    def __init__(
        self,
        outer: Stage,
        inner: list[tuple],
        kernel: Callable[..., list[tuple]],
        condition: Callable[[], PairFunc] | None,
        projects: bool,
    ):
        self.outer = outer
        self.inner = inner
        self.kernel = kernel
        self.condition = condition
        self.projects = projects
        self._outputs: list[int] | None = None

    def _compute(self) -> list[tuple]:
        return self.kernel(self.outer.rows(), self.inner)

    def bill(self, taken: int, ended: bool) -> Charge:
        outer, width = self.outer.rows(), len(self.inner)
        if ended:
            io, cpu = self.outer.bill(len(outer), True)
            made = len(self.rows())
            return io, cpu + len(outer) * width + (made if self.projects else 0)
        if not taken:
            return _NOTHING
        if self.condition is None:
            row, pair = divmod(taken - 1, width)
            pair += 1
        else:
            test = self.condition()
            if self._outputs is None:
                self._outputs = list(
                    accumulate(sum(1 for r in self.inner if test(l, r)) for l in outer)
                )
            row, nth = _locate(self._outputs, taken)
            pair = _nth_true((test(outer[row], r) for r in self.inner), nth)
        io, cpu = self.outer.bill(row + 1, False)
        return io, cpu + row * width + pair + (taken if self.projects else 0)


class IndexJoined(Stage):
    """Index nested loop: each outer row probes the inner table's index and
    pays the probe's charge (a NULL key probes nothing); *residual* is the
    kernel's test, replayed to place a partial pull."""

    def __init__(
        self,
        outer: Stage,
        index,
        outer_key: int,
        kernel: Callable[..., list[tuple]],
        residual: Callable[[], PairFunc] | None,
        projects: bool,
    ):
        self.outer = outer
        self.index = index
        self.outer_key = outer_key
        self.kernel = kernel
        self.residual = residual
        self.projects = projects
        self._per_outer: tuple[list[int], list[int], list[int]] | None = None

    def _probe(self, outer_row: tuple) -> list[tuple]:
        key = outer_row[self.outer_key]
        return [] if key is None else self.index.matches(key)

    def _compute(self) -> list[tuple]:
        return self.kernel(self.outer.rows(), self._probe)

    def _running(self) -> tuple[list[int], list[int], list[int]]:
        """Running totals over the outer rows: outputs, probe io, probe cpu."""
        if self._per_outer is None:
            test = self.residual() if self.residual is not None else None
            outputs, io, cpu = [], [], []
            for outer_row in self.outer.rows():
                matches = self._probe(outer_row)
                if test is None:
                    outputs.append(len(matches))
                else:
                    outputs.append(sum(1 for r in matches if test(outer_row, r)))
                probe_io, probe_cpu = (
                    _NOTHING
                    if outer_row[self.outer_key] is None
                    else self.index.probe_charge(len(matches))
                )
                io.append(probe_io)
                cpu.append(probe_cpu)
            self._per_outer = (
                list(accumulate(outputs)), list(accumulate(io)), list(accumulate(cpu))
            )
        return self._per_outer

    def bill(self, taken: int, ended: bool) -> Charge:
        outputs, probe_io, probe_cpu = self._running()
        if ended:
            pulled, made = len(outputs), len(self.rows())
        elif not taken:
            return _NOTHING
        else:
            pulled, made = _locate(outputs, taken)[0] + 1, taken
        io, cpu = self.outer.bill(pulled, ended)
        if pulled:
            io += probe_io[pulled - 1]
            cpu += probe_cpu[pulled - 1]
        return io, cpu + (made if self.projects else 0)


def hash_group(
    rows: Iterable[tuple],
    key_func: RowFunc | None,
    aggregate_specs: Sequence[tuple[str, RowFunc | None, bool]],
) -> list[tuple]:
    """Hash aggregation.

    *key_func* maps a row to its tuple of group-key values.
    *aggregate_specs* entries are ``(func, argument_func, distinct)`` with
    ``argument_func`` ``None`` for ``COUNT(*)``.  Output rows are
    ``key values + aggregate results``.  With no keys (*key_func* ``None``),
    exactly one row is produced (scalar aggregation), even over an empty
    input.
    """
    groups: dict[tuple, list[Accumulator]] = {}
    for row in rows:
        key = () if key_func is None else key_func(row)
        accumulators = groups.get(key)
        if accumulators is None:
            accumulators = [
                Accumulator(func, distinct) for func, _, distinct in aggregate_specs
            ]
            groups[key] = accumulators
        for accumulator, (func, argument, _) in zip(accumulators, aggregate_specs):
            accumulator.add(1 if argument is None else argument(row))
    if not groups and key_func is None:
        empty = [Accumulator(func, distinct) for func, _, distinct in aggregate_specs]
        groups[()] = empty
    return [
        key + tuple(accumulator.result() for accumulator in accumulators)
        for key, accumulators in groups.items()
    ]


class Grouped(Stage):
    """:func:`hash_group` over a stage: the first pull takes the whole input
    and charges 1 + one per aggregate per input row; then 1 per group."""

    def __init__(
        self,
        upstream: Stage,
        key_func: RowFunc | None,
        aggregate_specs: Sequence[tuple[str, RowFunc | None, bool]],
    ):
        self.upstream = upstream
        self.key_func = key_func
        self.aggregate_specs = aggregate_specs

    def _compute(self) -> list[tuple]:
        return hash_group(self.upstream.rows(), self.key_func, self.aggregate_specs)

    def bill(self, taken: int, ended: bool) -> Charge:
        if not (taken or ended):
            return _NOTHING
        offered = len(self.upstream.rows())
        io, cpu = self.upstream.bill(offered, True)
        per_row = 1 + len(self.aggregate_specs)
        return io, cpu + per_row * offered + (len(self.rows()) if ended else taken)


class Distinct(Stage):
    """Duplicate elimination keeping first occurrences; 1 per row offered."""

    def __init__(self, upstream: Stage):
        self.upstream = upstream

    def _compute(self) -> list[tuple]:
        rows = self.upstream.rows()
        seen: set[tuple] = set()
        add = seen.add
        self._firsts = [
            i for i, row in enumerate(rows) if not (row in seen or add(row))
        ]
        return [rows[i] for i in self._firsts]

    def bill(self, taken: int, ended: bool) -> Charge:
        if ended:
            offered = len(self.upstream.rows())
        elif not taken:
            return _NOTHING
        else:
            self.rows()
            offered = self._firsts[taken - 1] + 1
        io, cpu = self.upstream.bill(offered, ended)
        return io, cpu + offered


class Limited(Stage):
    """The first *limit* rows.  Asked for one more, it pulls one more row
    from its input before it stops — as a generator loop does."""

    def __init__(self, upstream: Stage, limit: int):
        self.upstream = upstream
        self.limit = max(0, limit)

    def _compute(self) -> list[tuple]:
        return self.upstream.rows()[: self.limit]

    def bill(self, taken: int, ended: bool) -> Charge:
        if not ended:
            return self.upstream.bill(taken, False)
        available = len(self.upstream.rows())
        if available > self.limit:
            return self.upstream.bill(self.limit + 1, False)
        return self.upstream.bill(available, True)


class Concatenated(Stage):
    """``UNION ALL``: each part is pulled to its end before the next starts."""

    def __init__(self, parts: Sequence[Stage]):
        self.parts = parts

    def _compute(self) -> list[tuple]:
        return list(chain.from_iterable(part.rows() for part in self.parts))

    def bill(self, taken: int, ended: bool) -> Charge:
        io = cpu = 0
        for part in self.parts:
            size = len(part.rows())
            if not ended and taken <= size:
                part_io, part_cpu = part.bill(taken, False)
                return io + part_io, cpu + part_cpu
            taken -= size
            part_io, part_cpu = part.bill(size, True)
            io += part_io
            cpu += part_cpu
        return io, cpu


def sort_charge(count: int, row_width: int = 64, block_size: int = 8192) -> Charge:
    """``n·log2(n)`` comparisons, and for inputs beyond the sort area two
    passes of spill I/O (write runs + merge read)."""
    io = 2 * max(1, count * row_width // block_size) if count > SORT_AREA_ROWS else 0
    return io, int(count * math.log2(count)) if count > 1 else 0


def sort_rows(
    rows: Iterable[tuple],
    key: RowFunc,
    meter: CostMeter,
    reverse: bool = False,
    row_width: int = 64,
) -> list[tuple]:
    """Materializing stable sort, charged :func:`sort_charge`."""
    materialized = list(rows)
    io, cpu = sort_charge(len(materialized), row_width)
    meter.charge_io(io)
    meter.charge_cpu(cpu)
    materialized.sort(key=key, reverse=reverse)
    return materialized


class ResultSet:
    """A schema plus a forward-only cursor over a :class:`Stage`.

    Mirrors a JDBC result set: :meth:`fetchmany` / :meth:`fetchall`, or
    iterate once.  The rows are computed in bulk at the first fetch, and
    every fetch charges *meter* what the row-at-a-time pipeline would have
    charged by then — the rows taken, the work that produced them, and the
    rest only once a fetch finds the end.  Any iterable stands for rows
    already paid for.
    """

    def __init__(
        self,
        schema: Schema,
        rows: Stage | Iterable[tuple],
        meter: CostMeter | None = None,
    ):
        self.schema = schema
        self._stage = rows if isinstance(rows, Stage) else Listed(list(rows))
        self._meter = meter
        self._taken = 0
        self._ended = False
        self._billed = _NOTHING

    def fetchmany(self, count: int) -> list[tuple]:
        """Up to *count* more rows; fewer means the result set is exhausted."""
        rows = self._stage.rows()
        batch = rows[self._taken : self._taken + count]
        self._taken += len(batch)
        if len(batch) < count:
            self._ended = True
        if self._meter is not None:
            io, cpu = self._stage.bill(self._taken, self._ended)
            self._meter.charge_io(io - self._billed[0])
            self._meter.charge_cpu(cpu - self._billed[1])
            self._billed = (io, cpu)
        return batch

    def fetchall(self) -> list[tuple]:
        return self.fetchmany(sys.maxsize)

    def __iter__(self) -> Iterator[tuple]:
        if self._taken or self._ended:
            raise ExecutionError("result set was already consumed")
        return self._one_by_one()

    def _one_by_one(self) -> Iterator[tuple]:
        while batch := self.fetchmany(1):
            yield batch[0]

    @property
    def column_names(self) -> tuple[str, ...]:
        return self.schema.names
