"""The equivalence wall around ANALYZE from the delta (DESIGN.md §20).

One MiniDB table is written through every public write path, in any
order — the two that log their rows (``insert_rows`` / ``delete_rows``,
SQL ``INSERT … VALUES`` among them) and the ones that only advance
``Table.changes`` (``bulk_load``, ``truncate``, SQL ``DELETE``, an insert
that fails half-way) — and ANALYZEd in between with every histogram
selection and bucket count.  Whatever mix of folds and rebuilds that
produced, the catalog's statistics must equal those of a database built
from scratch over the same rows and analyzed once with the same arguments,
index flags included.

The columns cover what a sorted column can hold: duplicates, NULLs, an
all-NULL column, strings, and ``2`` beside ``2.0`` in a FLOAT column; a walk
starts from the empty table or from some ninety rows, and passes through
single-row states after a truncate.  The walks are seeded (a state machine
left to hypothesis almost never strings ANALYZE, logged DML, ANALYZE
together on a table large enough to fold), so tier-1 sees the same ones
every time, and each one that starts large must take both paths.
"""

from __future__ import annotations

import random

import pytest

from repro.dbms.database import MiniDB
from repro.dbms.statistics import scan_charge
from repro.errors import DatabaseError
from tests.conftest import pending_delta

DDL = "CREATE TABLE T (K INT, F FLOAT, S VARCHAR(4), N INT, T1 DATE)"
INDEX = "CREATE INDEX T_T1 ON T (T1)"  # T1 is never NULL: indexes need that
STEPS = 80

HISTOGRAM_COLUMNS = ["auto", "none", ("F",), ("k", "T1"), ("S", "N")]
PREDICATES = ["K = 1", "F = 2", "S = 'a'", "T1 < 2"]


def random_rows(rng: random.Random, most: int, least: int = 0) -> list[tuple]:
    return [
        (
            rng.choice([None, -2, -1, 0, 1, 2, 3, 4]),
            rng.choice([None, 2, 2.0, 0.5, -1, 3.25, 7]),
            rng.choice([None, "", "a", "b", "zz"]),
            None,
            rng.randrange(13),
        )
        for _ in range(rng.randint(least, most))
    ]


def sql_literal(value) -> str:
    if value is None:
        return "NULL"
    return f"'{value}'" if isinstance(value, str) else repr(value)


class Walk:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.db = MiniDB()
        self.db.execute(DDL)
        self.db.execute(INDEX)
        self.table = self.db.table("T")
        self.starts_large = bool(seed % 2)
        if self.starts_large:
            self.table.bulk_load(random_rows(self.rng, 6, least=4) * 15)
        self.folds = self.scans = 0

    # -- the writers that log -------------------------------------------------

    def insert_rows(self):
        self.db.insert_rows("T", random_rows(self.rng, 4))

    def delete_rows(self):
        # Picked by position, so a row stored twice is deleted once or twice.
        count = min(self.rng.randint(0, 3), self.table.cardinality)
        self.db.delete_rows("T", self.rng.sample(self.table.rows, count))

    def sql_insert(self):
        values = ", ".join(
            "(" + ", ".join(sql_literal(value) for value in row) + ")"
            for row in random_rows(self.rng, 2, least=1)
        )
        self.db.execute(f"INSERT INTO T VALUES {values}")

    # -- the writers that only count ------------------------------------------

    def sql_delete(self):
        self.db.execute(f"DELETE FROM T WHERE {self.rng.choice(PREDICATES)}")

    def bulk_load(self):
        self.table.bulk_load(random_rows(self.rng, 6) * self.rng.choice([1, 15]))

    def truncate(self):
        self.table.truncate()

    def failing_insert(self):
        rows = random_rows(self.rng, 3)
        with pytest.raises(DatabaseError):
            self.db.insert_rows("T", rows + [(1, 2)] + rows)

    # -- the check ------------------------------------------------------------

    def analyze(self):
        histogram_columns = self.rng.choice(HISTOGRAM_COLUMNS)
        buckets = self.rng.choice([1, 3, 10])
        scratch = MiniDB()
        scratch.execute(DDL)
        scratch.execute(INDEX)
        scratch.table("T").bulk_load(list(self.table.rows))
        expected = scratch.analyze("T", histogram_columns, buckets)
        changed = pending_delta(self.db, "T")
        before = self.db.meter.snapshot()
        assert self.db.analyze("T", histogram_columns, buckets) == expected
        charged = self.db.meter.snapshot() - before
        assert self.db.statistics_of("T") == expected
        assert not pending_delta(self.db, "T")
        if charged == scan_charge(self.table):
            self.scans += 1
        elif changed:
            self.folds += 1

    def run(self):
        steps = [
            (self.insert_rows, 5), (self.delete_rows, 4), (self.sql_insert, 2),
            (self.analyze, 8),
            (self.sql_delete, 1), (self.bulk_load, 1), (self.truncate, 1),
            (self.failing_insert, 1),
        ]
        actions, weights = zip(*steps)
        for action in self.rng.choices(actions, weights, k=STEPS):
            action()
        self.analyze()


@pytest.mark.parametrize("seed", range(24))
def test_statistics_equal_a_scratch_analyze_after_any_walk(seed):
    walk = Walk(seed)
    walk.run()
    # A wall that only ever rebuilt (or only ever folded) proves nothing.
    assert walk.scans
    assert walk.folds or not walk.starts_large
