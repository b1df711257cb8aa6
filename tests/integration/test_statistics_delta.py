"""ANALYZE from the delta on the ``view_churn`` workload's own shape.

``Tango.apply_updates`` re-ANALYZEs the base table after every batch, and
since DESIGN.md §20 it does so from the 200 changed rows.  Everything that
reads those statistics — the catalog, the view refresh chooser's two
estimates, the optimizer's plan for the view's query — must come out the
same as in a twin that rebuilds them from a full scan every time.
"""

from __future__ import annotations

import pytest

from repro.algebra.schema import AttrType
from repro.core.tango import Tango
from repro.dbms.database import MiniDB
from repro.dbms.loader import DirectPathLoader
from repro.workloads.generator import (
    ColumnSpec,
    RandomRelationSpec,
    UpdateStreamSpec,
    generate_relation_rows,
    generate_update_stream,
)

VA_SQL = "VALIDTIME SELECT K0, COUNT(K0) FROM BASE GROUP BY K0 ORDER BY K0"
BATCHES = 60


class ScanEveryTime(MiniDB):
    """The twin's database: its DML tracker forgets the sorted copy before
    every ANALYZE, so it rebuilds from a scan."""

    def analyze(self, name, *args, **kwargs):
        tracker = self._dml.get(name.lower())
        if tracker is not None:
            tracker.columns = None
        return super().analyze(name, *args, **kwargs)


def churned(db: MiniDB, spec: RandomRelationSpec, rows: list[tuple]) -> Tango:
    DirectPathLoader(db).load(spec.name, spec.schema, rows, temporary=False)
    db.analyze(spec.name)
    tango = Tango(db)
    tango.create_view("VA", VA_SQL)
    return tango


@pytest.mark.parametrize("seed", [1, 7])
def test_folded_statistics_drive_the_same_decisions_as_scanned_ones(seed, scans):
    spec = RandomRelationSpec(
        name="BASE",
        columns=(ColumnSpec("K0", AttrType.INT, distinct=1_000),),
        cardinality=10_000,
        window_start=0,
        window_end=365,
        max_duration=30,
        skew=0.5,
        seed=seed,
    )
    rows = list(generate_relation_rows(spec))
    stream = generate_update_stream(
        spec,
        UpdateStreamSpec(batches=BATCHES, churn=0.02, insert_fraction=0.5, seed=seed),
    )
    with churned(MiniDB(), spec, rows) as folding, churned(
        ScanEveryTime(), spec, rows
    ) as scanning:
        base = folding.db.table("BASE")
        for step, batch in enumerate(stream):
            for tango in (folding, scanning):
                tango.apply_updates("BASE", batch.inserts, batch.deletes)
            # The first batch builds the sorted copy; every later one folds.
            assert (base in scans) == (step == 0)
            del scans[:]
            assert folding.db.statistics_of("BASE") == scanning.db.statistics_of("BASE")
            decisions = [t.views.choose("VA") for t in (folding, scanning)]
            assert decisions[0] == decisions[1]
            plans = [t.optimize(VA_SQL) for t in (folding, scanning)]
            assert plans[0].plan.cache_key == plans[1].plan.cache_key
            assert plans[0].cost == plans[1].cost
        # VA was never refreshed: the chooser priced 200 … 12,000 pending rows.
        assert folding.db.meter.ticks < scanning.db.meter.ticks
