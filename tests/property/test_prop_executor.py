"""Differential wall for MiniDB's block kernels.

A SELECT block runs as generated comprehensions that compute their rows in
bulk at the first fetch and bill the meter for all of them then (DESIGN.md
§21).  The truth they are held to is the row-at-a-time pipeline they
replaced, which lives here and not in ``src/``: the generators below are the
deleted ``filter_rows`` / ``project_rows`` / ``merge_join`` and their
companions, assembled per query shape the way the old planner assembled
them.  For random tables, every shape must produce the same rows in the same
order as the pipeline after any number of rows taken, and leave the
``(meter.io, meter.cpu)`` the *drained* pipeline leaves — at every fetch,
the first included.
"""

import math
import pytest
from hypothesis import given, settings, strategies as st

from repro.dbms.database import MiniDB
from repro.dbms.sql.functions import Accumulator

# -- the reference: row-at-a-time generators ---------------------------------


def filter_rows(rows, predicate, meter):
    for row in rows:
        meter.charge_cpu(1)
        if predicate(row):
            yield row


def project_rows(rows, func, meter):
    for row in rows:
        meter.charge_cpu(1)
        yield func(row)


def limit_rows(rows, limit):
    """The first *limit* rows of an input computed in full, as MiniDB's
    ``LIMIT`` computes it."""
    yield from list(rows)[:limit]


def distinct_rows(rows, meter):
    seen = set()
    for row in rows:
        meter.charge_cpu(1)
        if row not in seen:
            seen.add(row)
            yield row


def sort_rows(rows, key, meter, reverse=False):
    materialized = list(rows)
    count = len(materialized)
    if count > 1:
        meter.charge_cpu(int(count * math.log2(count)))
    materialized.sort(key=key, reverse=reverse)
    return materialized


def sort_join_input(rows, position, meter):
    """A merge join's input: the sort is billed over every row; the rows
    with a NULL key are left out of the walk (they join nothing)."""
    materialized = list(rows)
    count = len(materialized)
    if count > 1:
        meter.charge_cpu(int(count * math.log2(count)))
    kept = [row for row in materialized if row[position] is not None]
    return sorted(kept, key=lambda row: row[position])


def merge_join(left, right, left_key, right_key, residual, meter):
    left_index = 0
    right_index = 0
    left_count = len(left)
    right_count = len(right)
    while left_index < left_count and right_index < right_count:
        meter.charge_cpu(1)
        left_value = left_key(left[left_index])
        right_value = right_key(right[right_index])
        if left_value < right_value:
            left_index += 1
        elif left_value > right_value:
            right_index += 1
        else:
            left_end = left_index
            while left_end < left_count and left_key(left[left_end]) == left_value:
                left_end += 1
            right_end = right_index
            while right_end < right_count and right_key(right[right_end]) == left_value:
                right_end += 1
            for i in range(left_index, left_end):
                for j in range(right_index, right_end):
                    meter.charge_cpu(1)
                    combined = left[i] + right[j]
                    if residual is None or residual(combined):
                        yield combined
            left_index = left_end
            right_index = right_end


def hash_group(rows, key_func, aggregate_specs, meter):
    groups = {}
    for row in rows:
        meter.charge_cpu(1 + len(aggregate_specs))
        key = key_func(row)
        accumulators = groups.get(key)
        if accumulators is None:
            accumulators = [Accumulator(func, distinct) for func, _, distinct in aggregate_specs]
            groups[key] = accumulators
        for accumulator, (func, argument, _) in zip(accumulators, aggregate_specs):
            accumulator.add(1 if argument is None else argument(row))
    for key, accumulators in groups.items():
        meter.charge_cpu(1)
        yield key + tuple(accumulator.result() for accumulator in accumulators)


def scan(db, name):
    table = db.table(name)
    db.meter.charge_io(table.blocks)
    db.meter.charge_cpu(table.cardinality)
    return iter(table.rows)


# -- the shapes: SQL text beside its reference pipeline ----------------------
# A(K, V), B(K, W, J), C(J, X), D(K, Y) indexed on K; K and J may be NULL,
# except in D.


def single_filter(db, m, c):
    rows = filter_rows(scan(db, "A"), lambda r: r[1] > c, m)
    return project_rows(rows, lambda r: (r[0], r[1] + 1), m)


def two_way(db, m, c):
    left = filter_rows(scan(db, "A"), lambda r: r[1] > c, m)
    right = scan(db, "B")
    left = sort_join_input(left, 0, m)
    right = sort_join_input(right, 0, m)
    pairs = merge_join(left, right, lambda r: r[0], lambda r: r[0], lambda r: r[1] <= r[3], m)
    return project_rows(pairs, lambda r: (r[1], r[3]), m)


def three_way(db, m, c):
    first = sort_join_input(scan(db, "A"), 0, m)
    second = sort_join_input(filter_rows(scan(db, "B"), lambda r: r[1] > c, m), 0, m)
    ab = merge_join(first, second, lambda r: r[0], lambda r: r[0], None, m)
    third = scan(db, "C")
    ab = sort_join_input(ab, 4, m)
    third = sort_join_input(third, 0, m)
    abc = merge_join(ab, third, lambda r: r[4], lambda r: r[0], lambda r: r[1] < r[6], m)
    return project_rows(abc, lambda r: (r[1], r[6], r[0]), m)


def nested_loop(db, m, c):
    outer = filter_rows(scan(db, "A"), lambda r: r[1] > c, m)
    inner = list(scan(db, "B"))

    def pairs():
        for left in outer:
            for right in inner:
                m.charge_cpu(1)
                row = left + right
                if row[0] is not None and row[0] == row[2] and row[1] <= row[3]:
                    yield row

    return project_rows(pairs(), lambda r: (r[1], r[3]), m)


def probe_index(index, key, m):
    """The rows with ``column == key``, the probe charged to *m*."""
    rows = index.matches(key)
    io, cpu = index.probe_charge(len(rows))
    m.charge_io(io)
    m.charge_cpu(cpu)
    return rows


def index_nested_loop(db, m, c):
    outer = filter_rows(scan(db, "A"), lambda r: r[1] > c, m)
    index = db.find_index("D", "K")

    def pairs():
        for left in outer:
            if left[0] is None:
                continue
            for right in probe_index(index, left[0], m):
                row = left + right
                if row[1] < row[3]:
                    yield row

    return project_rows(pairs(), lambda r: (r[1], r[3]), m)


def probe(db, m, c):
    rows = filter_rows(probe_index(db.find_index("D", "K"), 2, m), lambda r: r[1] > c, m)
    return project_rows(rows, lambda r: (r[1],), m)


def ordered(db, m, c):
    rows = filter_rows(scan(db, "A"), lambda r: r[1] > c, m)
    rows = project_rows(rows, lambda r: (r[1] * r[1], r[1]), m)
    rows = sort_rows(rows, lambda r: r[1], m, reverse=True)
    return iter(sort_rows(rows, lambda r: r[0], m))


def ordered_join(db, m, c):
    left = sort_join_input(scan(db, "A"), 0, m)
    right = sort_join_input(scan(db, "B"), 0, m)
    pairs = merge_join(left, right, lambda r: r[0], lambda r: r[0], None, m)
    rows = list(project_rows(pairs, lambda r: (r[1], r[3]), m))
    rows = sort_rows(rows, lambda r: r[1], m)
    return iter(sort_rows(rows, lambda r: r[0], m))


def distinct(db, m, c):
    rows = project_rows(filter_rows(scan(db, "A"), lambda r: r[1] > c, m), lambda r: (r[0],), m)
    return distinct_rows(rows, m)


def grouped(db, m, c):
    rows = filter_rows(scan(db, "A"), lambda r: r[1] > c, m)
    specs = [("COUNT", None, False), ("SUM", lambda r: r[1], False)]
    groups = hash_group(rows, lambda r: (r[0],), specs, m)
    groups = filter_rows(groups, lambda r: r[1] > 1, m)
    return project_rows(groups, lambda r: (r[0], r[1], r[2]), m)


def limited(db, m, c):
    rows = project_rows(filter_rows(scan(db, "A"), lambda r: r[1] > c, m), lambda r: (r[0], r[1]), m)
    return limit_rows(rows, 3)


SHAPES = {
    "filter": ("SELECT K, V + 1 FROM A WHERE V > {c}", single_filter),
    "two-way merge, residual": (
        "SELECT A.V, B.W FROM A, B WHERE A.K = B.K AND A.V > {c} AND A.V <= B.W",
        two_way,
    ),
    "three-way merge": (
        "SELECT A.V, C.X, A.K FROM A, B, C "
        "WHERE A.K = B.K AND B.W > {c} AND B.J = C.J AND A.V < C.X",
        three_way,
    ),
    "nested loop": (
        "SELECT /*+ USE_NL */ A.V, B.W FROM A, B "
        "WHERE A.K = B.K AND A.V > {c} AND A.V <= B.W",
        nested_loop,
    ),
    "index nested loop": (
        "SELECT /*+ USE_NL */ A.V, D.Y FROM A, D "
        "WHERE A.K = D.K AND A.V > {c} AND A.V < D.Y",
        index_nested_loop,
    ),
    "index probe": ("SELECT Y FROM D WHERE K = 2 AND Y > {c}", probe),
    "order by asc, desc": (
        "SELECT V * V AS S, V FROM A WHERE V > {c} ORDER BY S, V DESC",
        ordered,
    ),
    "ordered join": (
        "SELECT A.V, B.W FROM A, B WHERE A.K = B.K ORDER BY V, W",
        ordered_join,
    ),
    "distinct": ("SELECT DISTINCT K FROM A WHERE V > {c}", distinct),
    "group by, having": (
        "SELECT K, COUNT(*), SUM(V) FROM A WHERE V > {c} GROUP BY K HAVING COUNT(*) > 1",
        grouped,
    ),
    "limit": ("SELECT K, V FROM A WHERE V > {c} LIMIT 3", limited),
}

keys = st.sampled_from([None, 0, 1, 1, 2, 2, 3, 4])
values = st.integers(min_value=-5, max_value=5)
tables = st.fixed_dictionaries(
    {
        "A": st.lists(st.tuples(keys, values), max_size=25),
        "B": st.lists(st.tuples(keys, values, keys), max_size=25),
        "C": st.lists(st.tuples(keys, values), max_size=25),
        "D": st.lists(st.tuples(st.integers(min_value=0, max_value=4), values), max_size=25),
    }
)


def load(data):
    db = MiniDB()
    db.execute("CREATE TABLE A (K INT, V INT)")
    db.execute("CREATE TABLE B (K INT, W INT, J INT)")
    db.execute("CREATE TABLE C (J INT, X INT)")
    db.execute("CREATE TABLE D (K INT, Y INT)")
    for name, rows in data.items():
        db.table(name).bulk_load(rows)
    db.execute("CREATE INDEX D_K ON D (K)")
    return db


def meter_of(db):
    return db.meter.io, db.meter.cpu


def kernel_run(db, sql, take):
    db.meter.reset()
    result = db.execute(sql)
    rows = result.fetchall() if take is None else result.fetchmany(take)
    return rows, meter_of(db)


def reference_run(db, build, c, take):
    """The pipeline's first *take* rows, and the meter once it is drained."""
    db.meter.reset()
    rows = list(build(db, db.meter, c))
    return rows[:take], meter_of(db)


@pytest.mark.parametrize("shape", sorted(SHAPES))
@settings(max_examples=30, deadline=None)
@given(
    tables,
    st.integers(min_value=-4, max_value=4),
    st.one_of(st.none(), st.integers(min_value=0, max_value=30)),
)
def test_kernels_reproduce_the_row_pipeline(shape, data, c, take):
    sql, build = SHAPES[shape]
    db = load(data)
    assert kernel_run(db, sql.format(c=c), take) == reference_run(db, build, c, take)


@pytest.mark.parametrize("shape", sorted(SHAPES))
@settings(max_examples=40, deadline=None)
@given(tables, st.integers(min_value=-4, max_value=4))
def test_every_prefix_is_billed_as_the_pipeline_bills_it(shape, data, c):
    """Fetched one row at a time, the rows are the pipeline's, and the
    meter reads the drained pipeline's bill from the first fetch on: the
    first ``fetchmany(1)`` leaves it where the last fetch leaves it."""
    sql, build = SHAPES[shape]
    db = load(data)
    db.meter.reset()
    result = db.execute(sql.format(c=c))
    kernel = []
    while True:
        batch = result.fetchmany(1)
        kernel.append((batch, meter_of(db)))
        if not batch:
            break
    db.meter.reset()
    rows = list(build(db, db.meter, c))
    drained = meter_of(db)
    assert kernel == [([row], drained) for row in rows] + [([], drained)]
