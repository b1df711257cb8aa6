"""The equivalence wall around incremental view maintenance.

For random seeded update streams over random UIS-shaped relations, an
incremental refresh must leave the stored view contents *byte-identical*
to a full recompute, for every shape with a delta rule — across the
worker counts the engine can execute under.

Two Tango instances run over two independently-built but identical
MiniDB instances; the same update stream is applied to both; one view is
refreshed forced-incremental, the other forced-full; the stored tables
(both canonical by construction) must compare equal as plain lists.
"""

from __future__ import annotations

import random

import pytest

from repro.algebra import builder
from repro.algebra.expressions import Comparison, col, lit
from repro.algebra.operators import AggregateSpec
from repro.core.tango import Tango, TangoConfig
from repro.dbms.database import MiniDB
from repro.dbms.loader import DirectPathLoader
from repro.workloads.generator import (
    UpdateStreamSpec,
    generate_relation_rows,
    generate_update_stream,
    random_relation_spec,
)

SEEDS = (0, 1, 2, 5)

# Delta-ruled view shapes.  Aggregates stay COUNT/SUM over INT columns and
# every cursor-relevant sort key is INT, so neither float summation order
# nor mixed-type ordering can differ between the two refresh paths.
SHAPES = ("select_project", "taggr", "temporal_join", "coalesce", "taggr_join")


def build_db(rng: random.Random):
    """One fresh MiniDB with two UIS-shaped relations, plus their specs."""
    specs = []
    db = MiniDB()
    for name in ("R0", "R1"):
        spec = random_relation_spec(rng, name, max_rows=30)
        specs.append(spec)
        DirectPathLoader(db).load(
            name, spec.schema, generate_relation_rows(spec), temporary=False
        )
        db.analyze(name)
    return db, specs


def view_plan(db, shape: str):
    if shape == "select_project":
        return (
            builder.scan(db, "R0")
            .select(Comparison("<=", col("K0"), lit(4)))
            .project("K0", "T1", "T2")
            .to_middleware()
            .build()
        )
    if shape == "taggr":
        return (
            builder.scan(db, "R0")
            .taggr(
                group_by=("K0",),
                aggregates=(
                    AggregateSpec("COUNT", "K0"),
                    AggregateSpec("SUM", "K0"),
                ),
            )
            .to_middleware()
            .build()
        )
    if shape == "temporal_join":
        return (
            builder.scan(db, "R0")
            .temporal_join(builder.scan(db, "R1"), "K0", "K0")
            .to_middleware()
            .build()
        )
    if shape == "coalesce":
        return (
            builder.scan(db, "R0")
            .project("K0", "T1", "T2")
            .coalesce()
            .to_middleware()
            .build()
        )
    if shape == "taggr_join":
        return (
            builder.scan(db, "R0")
            .temporal_join(builder.scan(db, "R1"), "K0", "K0")
            .taggr(group_by=("K0",), aggregates=(AggregateSpec("COUNT", "K0"),))
            .to_middleware()
            .build()
        )
    raise AssertionError(shape)


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_incremental_matches_full_recompute(shape, seed, workers):
    config = TangoConfig(workers=workers)
    db_inc, specs = build_db(random.Random(f"prop-views:{seed}"))
    db_full, _ = build_db(random.Random(f"prop-views:{seed}"))

    with Tango(db_inc, config) as t_inc, Tango(db_full, config) as t_full:
        t_inc.create_view("V", view_plan(db_inc, shape))
        t_full.create_view("V", view_plan(db_full, shape))
        for spec in specs:
            stream = generate_update_stream(
                spec, UpdateStreamSpec(batches=3, churn=0.3, seed=seed)
            )
            for batch in stream:
                t_inc.apply_updates(spec.name, batch.inserts, batch.deletes)
                t_full.apply_updates(spec.name, batch.inserts, batch.deletes)

        outcome_inc = t_inc.refresh_view("V", strategy="incremental")
        outcome_full = t_full.refresh_view("V", strategy="full")

        # The incremental path must actually have run incrementally —
        # a silent fallback would make this test vacuous.
        assert outcome_inc.strategy == "incremental"
        assert outcome_full.strategy == "full"
        stored_inc = list(db_inc.table("V").rows)
        stored_full = list(db_full.table("V").rows)
        assert stored_inc == stored_full


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_of_refreshes_stays_equivalent(seed):
    """Interleaved update/refresh cycles never drift: after each batch and
    incremental refresh, the stored view equals a scratch recompute."""
    db, specs = build_db(random.Random(f"prop-views-stream:{seed}"))
    with Tango(db) as tango:
        plan = view_plan(db, "taggr")
        tango.create_view("V", plan)
        stream = generate_update_stream(
            specs[0], UpdateStreamSpec(batches=4, churn=0.25, seed=seed)
        )
        for batch in stream:
            tango.apply_updates(specs[0].name, batch.inserts, batch.deletes)
            outcome = tango.refresh_view("V", strategy="incremental")
            assert outcome.strategy == "incremental"
            from repro.fuzz.compare import canonical_rows

            oracle = tango.execute_plan(tango.optimize(plan).plan)
            assert list(db.table("V").rows) == canonical_rows(oracle.rows)
