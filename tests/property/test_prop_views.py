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
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algebra import builder
from repro.algebra.expressions import Comparison, col, lit
from repro.algebra.operators import AggregateSpec
from repro.core.tango import Tango, TangoConfig
from repro.dbms.database import MiniDB
from repro.dbms.loader import DirectPathLoader
from repro.algebra.rows import canonical_rows, normalize_rows
from repro.algebra.schema import AttrType
from repro.views.delta import Delta, DeltaMismatch, apply_delta_rows
from repro.workloads.generator import (
    ColumnSpec,
    RandomRelationSpec,
    UpdateStreamSpec,
    generate_relation_rows,
    generate_update_stream,
    random_relation_spec,
)

SEEDS = (0, 1, 2, 5)

# Delta-ruled view shapes.  Aggregates stay COUNT/SUM/MIN/MAX over INT
# columns and every cursor-relevant sort key is INT, so neither float
# summation order nor mixed-type ordering can differ between the two
# refresh paths.  The ungrouped shapes have one window over everything,
# ``taggr_hot`` windows that are strict subsets of long-lived groups.
SHAPES = (
    "select_project",
    "taggr",
    "taggr_ungrouped",
    "taggr_minmax",
    "taggr_hot",
    "temporal_join",
    "coalesce",
    "taggr_join",
)


def hot_spec(rng: random.Random) -> RandomRelationSpec:
    """Few long-lived groups of short periods: a 2 % batch changes a few
    rows of a group of ~100, so every window is a strict subset of it."""
    return RandomRelationSpec(
        name="R0",
        columns=(
            ColumnSpec("K0", AttrType.INT, distinct=rng.choice((1, 2, 3))),
            ColumnSpec("V0", AttrType.INT, distinct=10),
        ),
        cardinality=rng.randint(200, 300),
        window_start=0,
        window_end=2000,
        min_duration=1,
        max_duration=40,
        skew=0.0,
        seed=rng.randrange(2**31),
    )


def build_db(rng: random.Random, shape: str = ""):
    """One fresh MiniDB with two UIS-shaped relations, plus their specs."""
    specs = []
    db = MiniDB()
    for name in ("R0", "R1"):
        if shape == "taggr_hot" and name == "R0":
            spec = hot_spec(rng)
        else:
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
    if shape in ("taggr_ungrouped", "taggr_minmax"):
        functions = ("COUNT", "SUM") if shape == "taggr_ungrouped" else ("MIN", "MAX")
        return (
            builder.scan(db, "R0")
            .taggr(
                group_by=(),
                aggregates=tuple(AggregateSpec(func, "K0") for func in functions),
            )
            .to_middleware()
            .build()
        )
    if shape == "taggr_hot":
        return (
            builder.scan(db, "R0")
            .taggr(
                group_by=("K0",),
                aggregates=tuple(
                    AggregateSpec(func, "V0") for func in ("COUNT", "SUM", "MIN", "MAX")
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
    db_inc, specs = build_db(random.Random(f"prop-views:{seed}"), shape)
    db_full, _ = build_db(random.Random(f"prop-views:{seed}"), shape)
    churn = 0.02 if shape == "taggr_hot" else 0.3

    with Tango(db_inc, config) as t_inc, Tango(db_full, config) as t_full:
        t_inc.create_view("V", view_plan(db_inc, shape))
        t_full.create_view("V", view_plan(db_full, shape))

        def refresh_both():
            outcome_inc = t_inc.refresh_view("V", strategy="incremental")
            outcome_full = t_full.refresh_view("V", strategy="full")
            # The incremental path must actually have run incrementally —
            # a silent fallback would make this test vacuous.
            assert outcome_inc.strategy == "incremental"
            assert outcome_full.strategy == "full"
            assert list(db_inc.table("V").rows) == list(db_full.table("V").rows)

        for spec in specs:
            stream = generate_update_stream(
                spec, UpdateStreamSpec(batches=3, churn=churn, seed=seed)
            )
            for batch in stream:
                t_inc.apply_updates(spec.name, batch.inserts, batch.deletes)
                t_full.apply_updates(spec.name, batch.inserts, batch.deletes)
                if shape == "taggr_hot":
                    # Batch by batch: the hull of one batch's few rows, not
                    # of three batches', is what stays well inside a group.
                    refresh_both()
        refresh_both()


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
            oracle = tango.execute_plan(tango.optimize(plan).plan)
            assert list(db.table("V").rows) == canonical_rows(oracle.rows)


# -- the splice against its definition ---------------------------------------------------

# Values that collide after normalization (2.0 and 2, True and 1), that sort
# only under the type-tagged key (None, a string, a float beside ints), and
# few enough of them that duplicates and hits are common.
VALUES = st.sampled_from([0, 1, 2, 3, 2.0, 2.5, True, None, "a"])
ROWS = st.lists(st.tuples(VALUES, VALUES), max_size=12)


def spliced_by_definition(stored, inserts, deletes):
    """``canonical_rows(stored ⊎ inserts ∖ deletes)``, or None where the
    deletes ask for more of a row than there is."""
    counts = Counter(stored)
    counts.update(normalize_rows(inserts))
    counts.subtract(normalize_rows(deletes))
    if any(count < 0 for count in counts.values()):
        return None
    return canonical_rows(counts.elements())


@settings(max_examples=300, deadline=None)
@given(stored=ROWS, inserts=ROWS, deletes=ROWS, picked=st.lists(st.integers(0, 40), max_size=8))
@example(stored=[(1, 1)], inserts=[], deletes=[(3, 3)], picked=[])  # delete absent
@example(stored=[(1, 1), (1, 1)], inserts=[], deletes=[(1, 1)], picked=[])  # one of two
@example(stored=[(2, 0)], inserts=[(2.0, 0), (True, 2.5)], deletes=[(2.0, False)], picked=[])
def test_apply_delta_rows_is_the_multiset_sum_in_canonical_order(
    stored, inserts, deletes, picked
):
    stored = canonical_rows(stored)
    # Deletes that hit: drawn from what is there, besides the arbitrary ones.
    present = stored + inserts
    deletes = deletes[:2] + [present[index % len(present)] for index in picked if present]
    expected = spliced_by_definition(stored, inserts, deletes)
    before = list(stored)
    if expected is None:
        with pytest.raises(DeltaMismatch):
            apply_delta_rows(stored, Delta(inserts, deletes))
    else:
        assert apply_delta_rows(stored, Delta(inserts, deletes)) == expected
    assert stored == before
