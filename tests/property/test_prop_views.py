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
from dataclasses import replace
from unittest import mock

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
from repro.views import delta as delta_module
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

# Delta-ruled view shapes.  Aggregates stay over INT columns and every
# cursor-relevant sort key is INT or NULL, so float summation order cannot
# differ between the two refresh paths.  The ungrouped shapes have one window
# over everything, the ``HOT`` shapes windows that are strict subsets of
# long-lived groups.  ``taggr_avg`` stores a column of ints beside floats;
# the ``NULLED`` shapes store NULLs, so their splices take the keyed path.
SHAPES = (
    "select_project",
    "taggr",
    "taggr_ungrouped",
    "taggr_minmax",
    "taggr_hot",
    "taggr_avg",
    "taggr_null_key",
    "taggr_null_arg",
    "temporal_join",
    "temporal_join_null_key",
    "coalesce",
    "taggr_join",
)

#: Shapes over :func:`hot_spec`'s relation, refreshed batch by batch.  Its
#: groups are large enough that the optimizer keeps a full recompute's
#: ``TAGGR`` in the middleware, which a NULL group needs: ``TAGGR^D``'s
#: instant self-join drops one (DESIGN.md section 22).
HOT = ("taggr_hot", "taggr_avg", "taggr_null_key", "taggr_null_arg")

#: Shape → (column, the values of it that are stored as NULL instead).
NULLED = {
    "taggr_null_key": (0, {0}),
    "temporal_join_null_key": (0, {0}),
    "taggr_null_arg": (1, {0, 3, 6, 9}),
}


def nulled(shape: str, rows) -> list[tuple]:
    """*rows* as *shape* stores them: for a ``NULLED`` shape, the values its
    column must not hold replaced by NULL — deterministically per row, so the
    deletes of an update stream still name live rows."""
    if shape not in NULLED:
        return list(rows)
    column, values = NULLED[shape]
    return [
        row[:column] + (None,) + row[column + 1 :] if row[column] in values else row
        for row in rows
    ]


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
        if shape in HOT and name == "R0":
            spec = hot_spec(rng)
        else:
            spec = random_relation_spec(rng, name, max_rows=30)
        if name == "R1":
            # In R0's window, or the join shapes would join nothing.
            spec = replace(
                spec,
                window_start=specs[0].window_start,
                window_end=specs[0].window_end,
                max_duration=specs[0].max_duration,
            )
        specs.append(spec)
        DirectPathLoader(db).load(
            name, spec.schema, nulled(shape, generate_relation_rows(spec)), temporary=False
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
    if shape in HOT:
        functions = ("COUNT", "AVG") if shape == "taggr_avg" else ("COUNT", "SUM", "MIN", "MAX")
        return (
            builder.scan(db, "R0")
            .taggr(
                group_by=("K0",),
                aggregates=tuple(AggregateSpec(func, "V0") for func in functions),
            )
            .to_middleware()
            .build()
        )
    if shape in ("temporal_join", "temporal_join_null_key"):
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
    churn = 0.02 if shape in HOT else 0.3

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
            assert t_inc.metrics.counter("view_refresh_fallbacks").value == 0
            assert list(db_inc.table("V").rows) == list(db_full.table("V").rows)

        for spec in specs:
            stream = generate_update_stream(
                spec, UpdateStreamSpec(batches=3, churn=churn, seed=seed)
            )
            for batch in stream:
                inserts, deletes = nulled(shape, batch.inserts), nulled(shape, batch.deletes)
                t_inc.apply_updates(spec.name, inserts, deletes)
                t_full.apply_updates(spec.name, inserts, deletes)
                if shape in HOT:
                    # Batch by batch: the hull of one batch's few rows, not
                    # of three batches', is what stays well inside a group.
                    refresh_both()
        refresh_both()
        if shape in ("taggr_null_key", "taggr_null_arg"):
            # The NULLs reach the stored rows, and with them the splice.
            assert any(None in row for row in db_inc.table("V").rows)


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
# as plain tuples (a float beside ints) or only under the type-tagged key
# (None, a string beside a number), and few enough of them that duplicates
# and hits are common.
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
@example(stored=[(0, 0), (3, 3)], inserts=[], deletes=[(1, 1)], picked=[])  # absent, inside
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


def test_the_splice_wall_takes_both_regimes():
    """The wall above exercises both orders: a share of its examples splice
    as plain tuples throughout, and a share meet a comparison that raises
    ``TypeError`` and are spliced again under the key."""
    with mock.patch.object(
        delta_module, "_splice", wraps=delta_module._splice
    ) as plain, mock.patch.object(
        delta_module, "_keyed_splice", wraps=delta_module._keyed_splice
    ) as keyed:
        test_apply_delta_rows_is_the_multiset_sum_in_canonical_order()
    assert keyed.call_count >= 0.1 * plain.call_count
    assert plain.call_count - keyed.call_count >= 0.1 * plain.call_count
