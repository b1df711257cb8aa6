"""The delta algebra behind incremental view maintenance.

An update batch against a base table is a *signed multiset*: rows
inserted and rows deleted.  :func:`compute_delta` propagates such deltas
through an operator tree, producing the signed multiset of output rows
that changed — without re-running the full plan, and at a cost that
follows the delta, not the base:

* ``Select``/``Project`` distribute over deltas (filter or map both
  signs independently);
* ``Sort``/``T^M``/``T^D`` are content-preserving — the delta passes
  through unchanged (view contents are kept canonically ordered, so
  delivered order is not part of view identity);
* ``TemporalJoin`` uses the bilinear rule
  ``Δ(L ⋈ S) = ΔL ⋈ S_new  +  L_old ⋈ ΔS``
  (signs multiply through: deleted left rows join positively against the
  new right state but land on the delete side of the output delta); the
  undelta'd side is cut down to the join keys the delta carries before it
  is sorted, once for both signs;
* ``TemporalAggregate`` is *time-local* (Section 3.4: "between two
  consecutive instants the set of valid tuples is constant", so a result
  row depends only on the rows valid during it).  Per group with changed
  rows — one group, the empty key, when there is no ``GROUP BY`` — take
  the hull ``[lo, hi)`` of the changed rows' periods and widen each end to
  the nearest start or end instant of an *unchanged* row of the group.
  ``TAGGR^M`` then sees, once for the old and once for the new state, only
  the group's rows that overlap that window, clipped to it.  This is exact:
  the edges are instants of unchanged rows, hence breakpoints of both
  states that no result row straddles; outside the window both states hold
  the same rows, hence the same result rows, which are neither computed
  nor netted; inside it clipping changes no row's validity at any instant
  and adds no instant but the edges.  What clipping does change is the
  period columns themselves: an aggregate that reads one as a value
  (``MAX(T1)``) has no rule and raises :class:`DeltaUnsupported`.  (Float
  ``SUM``/``AVG`` slide in a different order than a recompute would, and
  stay equal to it after the :data:`~repro.algebra.rows.FLOAT_DIGITS`
  rounding of the stored form — the contract between any two plans.)
  At the root of a view the old side is not computed at all:
  :func:`refresh_window` reads each old window's result from the stored
  rows and runs ``TAGGR^M`` once, over the new windows — for exact
  aggregates only, since nothing there would catch a float residue.
* ``Coalesce`` recomputes its *affected groups* whole, on the old and the
  new state.  Its output boundaries depend on periods that *meet* — a row
  clipped at a window edge would stop meeting its neighbour outside — so
  no window is exact; and its groups are value-equivalence classes, a few
  rows each, so there is little to cut.

Shapes with no delta rule (``Join``, ``Product``, ``Dedup``,
``Difference``) raise :class:`DeltaUnsupported`; the refresh machinery
falls back to a full recompute — incremental maintenance is an
optimization, never a semantics change.

Sub-plan evaluation opens the *actual* middleware algorithms — ``TAGGR^M``,
``TJOIN^M``, ``COAL^M``, through their rows in
:data:`~repro.optimizer.algorithms.ALGORITHMS` — over in-memory relations,
so the delta path computes with exactly the semantics the engine would —
the equivalence wall in ``tests/property/test_prop_views.py`` holds by
construction, not by re-implementation.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress, count
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from repro.algebra.expressions import compile_row
from repro.algebra.operators import (
    Coalesce,
    Location,
    Operator,
    Project,
    Scan,
    Select,
    Sort,
    TemporalAggregate,
    TemporalJoin,
    TransferD,
    TransferM,
)
from repro.algebra.properties import needed_orders
from repro.algebra.rows import canonical_sort_key, normalize_rows
from repro.algebra.schema import AttrType, Schema
from repro.dbms.sql.functions import nulls_last
from repro.errors import ViewError
from repro.optimizer.algorithms import algorithm_for
from repro.xxl.cursor import materialize
from repro.xxl.sources import RelationCursor


class DeltaUnsupported(ViewError):
    """The operator shape has no delta rule; refresh must recompute."""


class DeltaMismatch(ViewError):
    """A computed delta does not reconcile with the stored view contents.

    The safety net of the incremental path: a delete that is absent from
    the stored multiset, or a stored row that straddles a window edge,
    means the delta and the materialization drifted apart, and the only
    correct answer is a full recompute.
    """


@dataclass
class Delta:
    """A signed multiset of rows: what an update adds and removes."""

    inserts: list[tuple] = field(default_factory=list)
    deletes: list[tuple] = field(default_factory=list)

    @property
    def rows(self) -> int:
        """Total touched rows, both signs (the ``view_delta_rows`` unit)."""
        return len(self.inserts) + len(self.deletes)

    def empty(self) -> bool:
        return not self.inserts and not self.deletes


def net_delta(
    inserts: Iterable[tuple], deletes: Iterable[tuple]
) -> tuple[list[tuple], list[tuple]]:
    """Cancel rows that appear on both sides (delete-then-reinsert is a
    no-op on multiset content); returns the netted (inserts, deletes)."""
    ins = Counter(map(tuple, inserts))
    dels = Counter(map(tuple, deletes))
    common = ins & dels
    if common:
        ins -= common
        dels -= common
    return list(ins.elements()), list(dels.elements())


def _subtract(rows: Iterable[tuple], removed: Sequence[tuple], what: str) -> list[tuple]:
    """*rows* minus *removed* as multisets, in the order of *rows*.

    The rows nothing removes — nearly all of them — cost one C-level
    membership test each.  A removed row *rows* does not hold (often
    enough) means the *what* and the delta drifted apart:
    :class:`DeltaMismatch`.
    """
    if not removed:
        return list(rows)
    rows = rows if isinstance(rows, list) else list(rows)
    remaining = Counter(map(tuple, removed))
    kept: list[tuple] = []
    previous = 0
    for index in compress(count(), map(remaining.__contains__, rows)):
        row = rows[index]
        if remaining[row]:
            remaining[row] -= 1
            kept.extend(rows[previous:index])
            previous = index + 1
    kept.extend(rows[previous:])
    for row, missing in remaining.items():
        if missing:
            raise DeltaMismatch(
                f"the delta removes {missing} more of {row!r} than the {what} "
                "holds; the two have drifted apart"
            )
    return kept


class DeltaState:
    """Base-table state for one refresh: the current contents (what the
    DBMS holds now) plus the pending signed deltas, from which the delta
    rules reconstruct whatever they need of the pre-update state."""

    def __init__(self, db, deltas: dict[str, tuple[list[tuple], list[tuple]]]):
        self._db = db
        self._deltas = {name.lower(): delta for name, delta in deltas.items()}

    def delta(self, table: str) -> tuple[Sequence[tuple], Sequence[tuple]]:
        return self._deltas.get(table.lower(), ((), ()))

    def new_rows(self, table: str) -> list[tuple]:
        return list(self._db.table(table).rows)


# -- sub-plan evaluation (the real cursors over in-memory relations) -------------------


def evaluate(node: Operator, rows_of: Callable[[str], list[tuple]]) -> list[tuple]:
    """Evaluate the delta-ruled fragment *node* over in-memory base rows.

    *rows_of* maps a base-table name to its rows for the state being
    evaluated (old or new).  Operators outside the delta-ruled set raise
    :class:`DeltaUnsupported` — by construction :func:`compute_delta` has
    already vetted every subtree it evaluates, so this is a backstop.
    """
    if isinstance(node, Scan):
        return rows_of(node.table)
    if isinstance(node, (Sort, TransferM, TransferD)):
        # Content-preserving: view contents are canonically ordered, so
        # only the multiset matters here.
        return evaluate(node.input, rows_of)
    if isinstance(node, Select):
        predicate = node.predicate.compile(node.input.schema)
        return list(filter(predicate, evaluate(node.input, rows_of)))
    if isinstance(node, Project):
        return list(map(_output_func(node), evaluate(node.input, rows_of)))
    if isinstance(node, (TemporalAggregate, Coalesce, TemporalJoin)):
        return _run_sorted(node, *(evaluate(child, rows_of) for child in node.inputs))
    raise DeltaUnsupported(f"no delta evaluation for {node.name}")


def _output_func(node: Project):
    """The fused ``row -> output row`` function of a projection."""
    return compile_row([e for _, e in node.outputs], node.input.schema)


def _sorted_input(node: Operator, index: int, rows: list[tuple]) -> list[tuple]:
    """*rows* in the order the middleware algorithm of *node* needs on its
    input number *index*; NULLs last, per column, as MiniDB's ``ORDER BY``
    and ``SORT^M`` put them — the NULL-safe key only after a ``TypeError``."""
    schema = node.inputs[index].schema
    needed = needed_orders(node.located(Location.MIDDLEWARE))[index]
    positions = [schema.index_of(name) for name in needed]
    if not positions:
        return rows
    try:
        return sorted(rows, key=itemgetter(*positions))
    except TypeError:
        return sorted(rows, key=lambda row: tuple(nulls_last(row[p]) for p in positions))


def _run(node: Operator, *inputs: list[tuple]) -> list[tuple]:
    """*node*'s middleware algorithm over in-memory *inputs*, each already
    in the order the algorithm needs of it."""
    node = node.located(Location.MIDDLEWARE)
    cursors = [
        RelationCursor(child.schema, rows) for child, rows in zip(node.inputs, inputs)
    ]
    return materialize(algorithm_for(node).open(node, cursors))


def _run_sorted(node: Operator, *inputs: list[tuple]) -> list[tuple]:
    """:func:`_run` over *inputs* in any order: each is sorted first."""
    return _run(
        node, *(_sorted_input(node, index, rows) for index, rows in enumerate(inputs))
    )


# -- the delta rules -------------------------------------------------------------------


def compute_delta(node: Operator, state: DeltaState) -> Delta:
    """The signed output delta of *node* under *state*'s pending updates.

    Raises :class:`DeltaUnsupported` for shapes without a rule; the
    caller falls back to a full recompute.
    """
    if isinstance(node, Scan):
        inserts, deletes = state.delta(node.table)
        return Delta(list(inserts), list(deletes))
    if isinstance(node, (Sort, TransferM, TransferD)):
        return compute_delta(node.input, state)
    if isinstance(node, Select):
        delta = compute_delta(node.input, state)
        if delta.empty():
            return delta
        predicate = node.predicate.compile(node.input.schema)
        return Delta(
            list(filter(predicate, delta.inserts)),
            list(filter(predicate, delta.deletes)),
        )
    if isinstance(node, Project):
        delta = compute_delta(node.input, state)
        if delta.empty():
            return delta
        output = _output_func(node)
        return Delta(list(map(output, delta.inserts)), list(map(output, delta.deletes)))
    if isinstance(node, TemporalJoin):
        return _temporal_join_delta(node, state)
    if isinstance(node, (TemporalAggregate, Coalesce)):
        return _group_recompute_delta(node, state)
    raise DeltaUnsupported(f"no delta rule for {node.name}")


def _rewind(new_rows: Iterable[tuple], delta: Delta) -> list[tuple]:
    """The pre-update multiset of an operator's output: its current rows
    minus the delta's inserts plus its deletes (delta rules are exact, so
    this reconstruction is too)."""
    return _subtract(new_rows, delta.inserts, "current state") + list(delta.deletes)


def _having(rows: list[tuple], key_of: Callable, keys) -> list[tuple]:
    """The *rows* whose key is among *keys*, in one C-level pass."""
    return list(compress(rows, map(keys.__contains__, map(key_of, rows))))


def _temporal_join_delta(node: TemporalJoin, state: DeltaState) -> Delta:
    """The bilinear rule: ``Δ(L ⋈ S) = ΔL ⋈ S_new + L_old ⋈ ΔS``.

    Either term joins a delta against a whole input of which only the rows
    sharing a join key with the delta can match: the rest is dropped before
    the sort, and what is left is sorted once for both signs.
    """
    left_delta = compute_delta(node.left, state)
    right_delta = compute_delta(node.right, state)
    left_key = itemgetter(node.left.schema.index_of(node.left_attr))
    right_key = itemgetter(node.right.schema.index_of(node.right_attr))
    inserts: list[tuple] = []
    deletes: list[tuple] = []
    if not left_delta.empty():
        keys = set(map(left_key, left_delta.inserts + left_delta.deletes))
        right_new = _having(evaluate(node.right, state.new_rows), right_key, keys)
        right_new = _sorted_input(node, 1, right_new)
        inserts += _run(node, _sorted_input(node, 0, left_delta.inserts), right_new)
        deletes += _run(node, _sorted_input(node, 0, left_delta.deletes), right_new)
    if not right_delta.empty():
        keys = set(map(right_key, right_delta.inserts + right_delta.deletes))
        # Rewound whole, cut down after: every pending insert is checked
        # against the current state, not only those the delta can join.
        left_old = _rewind(evaluate(node.left, state.new_rows), left_delta)
        left_old = _sorted_input(node, 0, _having(left_old, left_key, keys))
        inserts += _run(node, left_old, _sorted_input(node, 1, right_delta.inserts))
        deletes += _run(node, left_old, _sorted_input(node, 1, right_delta.deletes))
    return Delta(*net_delta(inserts, deletes))


def _group_recompute_delta(
    node: TemporalAggregate | Coalesce, state: DeltaState
) -> Delta:
    """Old results out, new results in, for the groups the input delta
    touches: of a ``TemporalAggregate`` only what lies in each group's
    window (:func:`_windows`), of a ``Coalesce`` the whole groups (the
    module docstring says why).  Either way the old input is the new one
    rewound."""
    if isinstance(node, TemporalAggregate):
        windows = _aggregate_windows(node, state)
        if windows is None:
            return Delta()
        input_delta, _, new = windows
    else:
        input_delta = compute_delta(node.input, state)
        if input_delta.empty():
            return Delta()
        key_of = _group_key(node)
        keys = set(map(key_of, chain(input_delta.inserts, input_delta.deletes)))
        new = _having(evaluate(node.input, state.new_rows), key_of, keys)
    old = _rewind(new, input_delta)
    return Delta(*net_delta(_run_sorted(node, new), _run_sorted(node, old)))


def _group_key(node: TemporalAggregate | Coalesce) -> Callable:
    """``input row -> its group``.  A group is what the algorithm's needed
    order makes contiguous: all of it (grouping or value attributes) but the
    trailing T1; of a one-column key the bare value, no tuple per row."""
    schema = node.input.schema
    (needed,) = needed_orders(node.located(Location.MIDDLEWARE))
    positions = [schema.index_of(name) for name in needed[:-1]]
    return itemgetter(*positions) if positions else (lambda row: ())


def _aggregate_windows(
    node: TemporalAggregate, state: DeltaState
) -> tuple[Delta, dict[object, tuple], list[tuple]] | None:
    """What both ``TAGGR`` rules start from: the input delta, each changed
    group's window (group → ``(start, end)``) and the new state's input cut
    down to the windows (:func:`_windows`); ``None`` when the input did not
    change."""
    schema = node.input.schema
    # Clipping a row to the window keeps when it is valid, not what its T1
    # and T2 say: no aggregate may read them as values.  (A group key cannot
    # be one of them: the output schema would name it twice.)
    period = set(map(schema.index_of, node.period))
    for spec in node.aggregates:
        if spec.attribute and schema.index_of(spec.attribute) in period:
            raise DeltaUnsupported(
                f"{spec.to_sql()} reads a period column as a value; the "
                "window rule clips periods"
            )
    input_delta = compute_delta(node.input, state)
    if input_delta.empty():
        return None
    key_of = _group_key(node)
    changed: dict[object, Delta] = {}
    for row in input_delta.inserts:
        changed.setdefault(key_of(row), Delta()).inserts.append(row)
    for row in input_delta.deletes:
        changed.setdefault(key_of(row), Delta()).deletes.append(row)
    current = _having(evaluate(node.input, state.new_rows), key_of, changed)
    t1, t2 = (schema.index_of(name) for name in node.period)
    return (input_delta, *_windows(current, changed, key_of, t1, t2))


def _windows(
    current: list[tuple], changed: dict[object, Delta], key_of: Callable, t1: int, t2: int
) -> tuple[dict[object, tuple], list[tuple]]:
    """Each changed group's window, and the new ``TAGGR^M`` input cut down
    to the windows.

    *current* holds the new state's rows of the groups in *changed*.  Per
    group the window ``(start, end)`` is the hull of the changed rows'
    periods, each end widened to the nearest instant (a ``T1`` or a ``T2``)
    of an unchanged row at or beyond it — where there is none, no unchanged
    row is valid beyond that end.  The new input is the unchanged rows that
    overlap a window, clipped to it, and each group's inserts; the old one
    is the same with the deletes in place of the inserts, which only the
    netted rule builds.
    """
    groups: dict[object, list[tuple]] = {key: [] for key in changed}
    for row in current:
        groups[key_of(row)].append(row)
    edges: dict[object, tuple] = {}
    new: list[tuple] = []
    for key, delta in changed.items():
        unchanged = _subtract(groups[key], delta.inserts, "current state")
        moved = delta.inserts + delta.deletes
        try:
            for row in chain(moved, unchanged):
                if row[t1] > row[t2]:
                    # What follows takes a period to end no earlier than it starts.
                    raise DeltaUnsupported(f"the period of {row!r} ends before it starts")
        except TypeError:
            raise DeltaUnsupported(f"the period of {row!r} has a NULL instant") from None
        lo = min(row[t1] for row in moved)
        hi = max(row[t2] for row in moved)
        instants = [row[t1] for row in unchanged] + [row[t2] for row in unchanged]
        start = max((instant for instant in instants if instant <= lo), default=lo)
        end = min((instant for instant in instants if instant >= hi), default=hi)
        edges[key] = (start, end)
        for row in unchanged:
            begins, ends = row[t1], row[t2]
            if begins < end and ends > start:
                if begins < start or ends > end:
                    clipped = list(row)
                    clipped[t1], clipped[t2] = max(begins, start), min(ends, end)
                    row = tuple(clipped)
                new.append(row)
        new += delta.inserts
    return edges, new


# -- the window rule at the root: the old side is the stored view -----------------------

#: The group-key values the window rule bisects the stored rows by: those
#: the stored form keeps as they are.  A float key may round onto another
#: group's, and a NULL is left to the netted rule.
_EXACT_KEYS = frozenset({int, str})


def window_root(plan: Operator, schema: Schema) -> TemporalAggregate | None:
    """The ``TemporalAggregate`` whose stored rows :func:`refresh_window`
    may rewrite window by window, or ``None``.

    That is *plan* below any ``Sort``/``T^M``/``T^D``, with no other
    ``TemporalAggregate`` beneath it and only exact aggregates — ``COUNT``,
    ``MIN``, ``MAX``, and ``SUM``/``AVG`` over an ``INT`` column — when the
    stored *schema* leads with its grouping columns, then ``T1``, ``T2``.
    """
    while isinstance(plan, (Sort, TransferM, TransferD)):
        plan = plan.input
    if not isinstance(plan, TemporalAggregate):
        return None
    if any(isinstance(node, TemporalAggregate) for node in plan.input.walk()):
        return None
    source = plan.input.schema
    for spec in plan.aggregates:
        if spec.func in ("SUM", "AVG") and source[spec.attribute].type is not AttrType.INT:
            return None
    leading = [name.lower() for name in (*plan.group_by, *plan.period)]
    if [name.lower() for name in schema.names[: len(leading)]] != leading:
        return None
    return plan


def refresh_window(
    node: TemporalAggregate, state: DeltaState, stored: list[tuple]
) -> tuple[list[tuple], int] | None:
    """The stored rows of a :func:`window_root` view brought up to date, and
    how many rows changed (``|old ⊖ new|``, what the netted rule records);
    ``None`` hands the refresh to the netted rule, as :func:`_splice` hands
    a splice to :func:`_keyed_splice`: a group key outside
    :data:`_EXACT_KEYS`, or a comparison that raised ``TypeError``.

    The window rule with the old side read from the view: per changed
    group, the stored rows from ``(key, start)`` up to ``(key, end)`` are
    the old window's result, so ``TAGGR^M`` runs once, over the new
    windows, and the stored list is rebuilt in one forward pass.  No stored
    row straddles an edge: each is an instant of an unchanged row, or lies
    beyond every instant of the old state.  A row that does is drift,
    :class:`DeltaMismatch`; so is what :func:`_windows` raises.
    """
    try:
        return _window_splice(node, state, stored)
    except TypeError:
        return None


def _window_splice(
    node: TemporalAggregate, state: DeltaState, stored: list[tuple]
) -> tuple[list[tuple], int] | None:
    windows = _aggregate_windows(node, state)
    if windows is None:
        return stored, 0
    _, edges, new = windows
    width = len(node.group_by)
    keys = list(edges) if width != 1 else [(key,) for key in edges]
    if not set(map(type, chain.from_iterable(keys))) <= _EXACT_KEYS:
        return None
    fresh = sorted(normalize_rows(_run_sorted(node, new)))
    ends = itemgetter(width + 1)
    merged: list[tuple] = []
    position = taken = changed = 0
    for key, (start, end) in sorted(zip(keys, edges.values())):
        low = bisect_left(stored, (*key, start), position)
        high = bisect_left(stored, (*key, end), low)
        old = stored[low:high]
        if (old and max(map(ends, old)) > end) or (
            low and ends(stored[low - 1]) > start and stored[low - 1][:width] == key
        ):
            raise DeltaMismatch(
                f"a stored row of group {key!r} straddles its window "
                f"[{start}, {end}); the view and the delta have drifted apart"
            )
        stop = bisect_left(fresh, (*key, end), taken)
        rows = fresh[taken:stop]
        merged += stored[position:low]
        merged += rows
        # A group's rows have distinct (key, T1): sets are its multisets.
        changed += len(old) + len(rows) - 2 * len(set(old).intersection(rows))
        position, taken = high, stop
    merged += stored[position:]
    return merged, changed


# -- applying a delta to the stored (canonical) view contents --------------------------


def apply_delta_rows(
    stored: Sequence[tuple], delta: Delta
) -> list[tuple]:
    """Merge *delta* into the canonically stored view rows.

    The stored rows are trusted to already be in
    :func:`~repro.algebra.rows.canonical_rows` form (the storage
    invariant every write path maintains), so only the delta — which
    comes fresh from the cursors and may say ``2.0`` where the store
    says ``2`` — is normalized and sorted.  Canonical order is tuple
    order wherever the values compare (:mod:`repro.algebra.rows`), so
    each delete and each insert is placed by a C-level bisection over
    the stored rows as plain tuples, on from where the previous one
    went.  Only a ``TypeError`` — a NULL, or a string beside a number,
    met by a comparison — sends the splice to :func:`_keyed_splice`.
    Raises :class:`DeltaMismatch` when a delete has no matching stored
    row — the signal to fall back to a full recompute.
    """
    inserts, deletes = net_delta(
        normalize_rows(delta.inserts), normalize_rows(delta.deletes)
    )
    try:
        return _splice(stored, inserts, deletes)
    except TypeError:
        return _keyed_splice(stored, inserts, deletes)


def _splice(
    stored: Sequence[tuple], inserts: list[tuple], deletes: list[tuple]
) -> list[tuple]:
    """*stored* minus *deletes* plus *inserts*, found and placed by bisection
    on the plain tuples; raises ``TypeError`` where two do not compare."""
    deletes.sort()
    inserts.sort()
    size = len(stored)
    kept: list[tuple] = []
    position = 0
    for row in deletes:
        index = bisect_left(stored, row, position)
        if index == size or stored[index] != row:
            raise DeltaMismatch(
                f"the delta removes more of {row!r} than the view holds; the "
                "two have drifted apart"
            )
        kept += stored[position:index]
        position = index + 1
    kept += stored[position:]
    merged: list[tuple] = []
    position = 0
    for row in inserts:
        index = bisect_left(kept, row, position)
        merged += kept[position:index]
        merged.append(row)
        position = index
    merged += kept[position:]
    return merged


def _keyed_splice(
    stored: Sequence[tuple], inserts: list[tuple], deletes: list[tuple]
) -> list[tuple]:
    """The splice for rows tuple order cannot compare: the deletes leave in
    one hashed pass over the stored rows; each insert, sorted by
    :func:`~repro.algebra.rows.canonical_sort_key`, is then placed by
    galloping on from where the previous one went, so the key is computed
    for a few stored rows per insert and never for the bulk of the view."""
    kept = _subtract(stored, deletes, "view")
    if not inserts:
        return kept
    size = len(kept)
    merged: list[tuple] = []
    position = 0
    for row_key, row in sorted(zip(map(canonical_sort_key, inserts), inserts)):
        # Everything before `low` sorts before the row; `high` doubles its
        # distance until it reaches a row that does not.
        low = high = position
        step = 1
        while high < size and canonical_sort_key(kept[high]) < row_key:
            low = high + 1
            high += step
            step *= 2
        target = bisect_left(
            kept, row_key, low, min(high, size), key=canonical_sort_key
        )
        merged += kept[position:target]
        merged.append(row)
        position = target
    merged += kept[position:]
    return merged
