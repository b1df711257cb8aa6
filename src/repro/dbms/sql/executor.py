"""Physical stages of the MiniDB executor and the result set that meters them.

A SELECT block runs as a short chain of *stages* (DESIGN.md §21).  Each
stage computes its whole output list at once, on first demand — the per-row
work of filters, joins and the select list is one generated comprehension
the planner builds — and :meth:`Stage.charge` says what computing every row
cost the :class:`~repro.dbms.costmodel.CostMeter`, inputs included.  The
counts are the classic ones, so simulated costs still track the algorithmic
effort:

* scans charge one I/O per block and one CPU step per row when planned;
* a filter charges one step per row offered, a projection one per row made;
* sorts charge ``n·log2(n)`` comparisons plus spill I/O for inputs larger
  than the sort area;
* a merge join charges one step per walk step plus one per pair, counted
  before the residual;
* nested-loop joins charge one step per considered pair — the quadratic bill
  that makes SQL temporal aggregation expensive.

:class:`ResultSet` charges the meter once, at the first fetch, when the rows
are computed: a result set pays for the stage it computed, however much of
it is then taken.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from itertools import chain, repeat
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from repro.algebra.schema import Schema
from repro.dbms.costmodel import CostMeter
from repro.dbms.sql.functions import Accumulator, nulls_last
from repro.errors import ExecutionError

RowFunc = Callable[[tuple], object]
#: ``(io, cpu)``.
Charge = tuple[int, int]

#: Rows that fit in the simulated sort area before a sort "spills" to disk.
SORT_AREA_ROWS = 100_000


def pay(meter: CostMeter, charge: Charge) -> None:
    """Charge *meter* an ``(io, cpu)`` pair."""
    meter.charge_io(charge[0])
    meter.charge_cpu(charge[1])


class Stage:
    """Rows computed in bulk on first demand, and what computing them cost."""

    _rows: list[tuple] | None = None

    def rows(self) -> list[tuple]:
        if self._rows is None:
            self._rows = self._compute()
        return self._rows

    def _compute(self) -> list[tuple]:
        raise NotImplementedError

    def charge(self) -> Charge:
        """What computing every row cost, inputs included, beyond what
        planning already charged."""
        raise NotImplementedError

    def drain(self, meter: CostMeter) -> list[tuple]:
        """Every row, charging *meter* for them: a consumer that
        materializes its input when planned (a sort, a nested loop's inner)."""
        rows = self.rows()
        pay(meter, self.charge())
        return rows


class Listed(Stage):
    """Rows already produced and paid for (a scanned table, a sorted list)."""

    def __init__(self, rows: list[tuple]):
        self._rows = rows

    def charge(self) -> Charge:
        return 0, 0


class Probed(Stage):
    """The rows an index equality probe finds, and the probe's charge."""

    def __init__(self, index, key: object):
        self.index = index
        self.key = key

    def _compute(self) -> list[tuple]:
        return self.index.matches(self.key)

    def charge(self) -> Charge:
        return self.index.probe_charge(len(self.rows()))


class Filtered(Stage):
    """A kernel over one input: filter levels, then an optional projection.

    *kernel* maps the input rows to the output list in one comprehension.
    Each entry of *levels* is a predicate charging 1 per row offered to it
    (the conjuncts pushed to a scan, those left over, a ``HAVING``); a
    *projects* kernel charges 1 per row it makes.  The rows offered to a
    level after the first are counted by replaying the levels before it.
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

    def _compute(self) -> list[tuple]:
        return self.kernel(self.upstream.rows())

    def charge(self) -> Charge:
        io, cpu = self.upstream.charge()
        offered = self.upstream.rows()
        if self.levels:
            cpu += len(offered)
        for level in self.levels[:-1]:
            offered = list(filter(level(), offered))
            cpu += len(offered)
        return io, cpu + (len(self.rows()) if self.projects else 0)


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


class MergeJoined(Stage):
    """Sort-merge equi-join of two inputs drained when planned.

    The left input is sorted stably on its key and the generated kernel
    walks it, pairing each row with the right rows of its key (grouped in
    input order) and testing the residual on the pair before it builds the
    output row: the order of a merge over both inputs sorted on their keys.
    The charge is that merge walk's: 1 per step — an unmatched row below the
    other side's largest key, or a matched key — plus 1 per pair, counted
    before the residual, plus 1 per emitted row if the kernel projects.
    NULL keys join nothing and are never stepped.  The sorts are charged by
    the planner.
    """

    def __init__(
        self,
        left: list[tuple],
        right: list[tuple],
        left_key: int,
        right_key: int,
        kernel: Callable[..., list[tuple]],
        projects: bool,
    ):
        self._inputs = left, right, right_key
        self.left_key = left_key
        self.kernel = kernel
        self.projects = projects

    def _compute(self) -> list[tuple]:
        left, right, right_key = self._inputs
        left = _sorted_on(left, self.left_key)
        self._keys = list(map(itemgetter(self.left_key), left))
        self._right = _group(right, right_key)
        self._right.pop(None, None)
        #: Per sorted left row, the right rows of its key.
        self._matches = list(map(self._right.get, self._keys, repeat(())))
        return self.kernel(zip(left, self._matches))

    def charge(self) -> Charge:
        made = len(self.rows())
        keys, right = self._keys, self._right
        steps = 0
        if keys and right:
            distinct = dict.fromkeys(keys)
            steps = len(distinct.keys() & right.keys())
            below = keys[: bisect_left(keys, max(right))]
            steps += len(below) - sum(map(right.__contains__, below))
            last = keys[-1]
            steps += sum(
                len(rows)
                for key, rows in right.items()
                if key < last and key not in distinct
            )
        pairs = sum(map(len, self._matches))
        return 0, steps + pairs + (made if self.projects else 0)


class NestedLooped(Stage):
    """Tuple-at-a-time nested loop over a computed outer input: every
    (outer, inner) pair is considered and charged 1."""

    def __init__(
        self,
        outer: Stage,
        inner: list[tuple],
        kernel: Callable[..., list[tuple]],
        projects: bool,
    ):
        self.outer = outer
        self.inner = inner
        self.kernel = kernel
        self.projects = projects

    def _compute(self) -> list[tuple]:
        return self.kernel(self.outer.rows(), self.inner)

    def charge(self) -> Charge:
        io, cpu = self.outer.charge()
        cpu += len(self.outer.rows()) * len(self.inner)
        return io, cpu + (len(self.rows()) if self.projects else 0)


class IndexJoined(Stage):
    """Index nested loop: each outer row probes the inner table's index and
    pays the probe's charge (a NULL key probes nothing)."""

    def __init__(
        self,
        outer: Stage,
        index,
        outer_key: int,
        kernel: Callable[..., list[tuple]],
        projects: bool,
    ):
        self.outer = outer
        self.index = index
        self.outer_key = outer_key
        self.kernel = kernel
        self.projects = projects

    def _probe(self, outer_row: tuple) -> list[tuple]:
        key = outer_row[self.outer_key]
        if key is None:
            return []
        matches = self.index.matches(key)
        self._found.append(len(matches))
        return matches

    def _compute(self) -> list[tuple]:
        #: Per probe made, the rows it found.
        self._found: list[int] = []
        return self.kernel(self.outer.rows(), self._probe)

    def charge(self) -> Charge:
        made = len(self.rows())
        io, cpu = self.outer.charge()
        for probe_io, probe_cpu in map(self.index.probe_charge, self._found):
            io += probe_io
            cpu += probe_cpu
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
    """:func:`hash_group` over a stage: 1 + one per aggregate per input row,
    then 1 per group."""

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

    def charge(self) -> Charge:
        io, cpu = self.upstream.charge()
        per_row = 1 + len(self.aggregate_specs)
        return io, cpu + per_row * len(self.upstream.rows()) + len(self.rows())


class Distinct(Stage):
    """Duplicate elimination keeping first occurrences; 1 per row offered."""

    def __init__(self, upstream: Stage):
        self.upstream = upstream

    def _compute(self) -> list[tuple]:
        return list(dict.fromkeys(self.upstream.rows()))

    def charge(self) -> Charge:
        io, cpu = self.upstream.charge()
        return io, cpu + len(self.upstream.rows())


class Limited(Stage):
    """The first *limit* rows, charged the whole input they are cut from."""

    def __init__(self, upstream: Stage, limit: int):
        self.upstream = upstream
        self.limit = max(0, limit)

    def _compute(self) -> list[tuple]:
        return self.upstream.rows()[: self.limit]

    def charge(self) -> Charge:
        return self.upstream.charge()


class Concatenated(Stage):
    """``UNION ALL``: the parts one after another."""

    def __init__(self, parts: Sequence[Stage]):
        self.parts = parts

    def _compute(self) -> list[tuple]:
        return list(chain.from_iterable(part.rows() for part in self.parts))

    def charge(self) -> Charge:
        charges = [part.charge() for part in self.parts]
        return sum(io for io, _ in charges), sum(cpu for _, cpu in charges)


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
    """Materializing stable sort, charged :func:`sort_charge`.

    A NULL key sorts last ascending and first descending (Oracle's
    default).  Only a sort that meets one pays for the wrapped key: it is
    redone from the input order, which a failed sort would have lost.
    """
    materialized = rows if isinstance(rows, list) else list(rows)
    pay(meter, sort_charge(len(materialized), row_width))
    try:
        return sorted(materialized, key=key, reverse=reverse)
    except TypeError:
        return sorted(materialized, key=lambda row: nulls_last(key(row)), reverse=reverse)


class ResultSet:
    """A schema plus a forward-only cursor over a :class:`Stage`.

    Mirrors a JDBC result set: :meth:`fetchmany` / :meth:`fetchall`, or
    iterate once.  The rows are computed in bulk at the first fetch, and
    that fetch charges *meter* what computing them cost — once, however
    many rows are then taken.  Any iterable stands for rows already paid
    for.
    """

    #: Whether the plan came from the database's prepared plans.
    prepared = False

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

    def fetchmany(self, count: int) -> list[tuple]:
        """Up to *count* more rows; fewer means the result set is exhausted."""
        rows = self._stage.rows()
        if self._meter is not None:
            pay(self._meter, self._stage.charge())
            self._meter = None  # paid: no later fetch charges again
        batch = rows[self._taken : self._taken + count]
        self._taken += len(batch)
        if len(batch) < count:
            self._ended = True
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
