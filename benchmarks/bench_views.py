"""Incremental view maintenance vs full recompute, measured.

The scenario: a temporal-join view — a ~4000-row UIS fact relation
joined on its key against a one-row-per-key dimension — maintained under
seeded update streams of varying churn against the fact side.  The
bilinear delta rule makes the incremental path truly delta-sized
(ΔL ⋈ S_new; the dimension never changes, so the L_old ⋈ ΔS term
vanishes), while the full path re-runs the whole join through the
optimizer and engine.  Two twin middleware instances see identical
streams; one refreshes through the cost-based chooser, the other is
forced to recompute from scratch every time.

Asserted here:

* every refresh — whatever strategy the chooser picks — leaves the view
  byte-identical to a from-scratch recompute of its defining query;
* at low churn (2% per batch) the chooser picks the incremental path and
  is at least ``BENCH_VIEWS_MIN_SPEEDUP`` (default 2.0) times faster per
  refresh than always recomputing;
* at high churn (every row replaced per batch) the chooser falls back to
  full and loses at most ``BENCH_VIEWS_MAX_HIGH_CHURN_LOSS`` (default
  1.10, i.e. 10%) against always-full — the decision overhead must stay
  in the noise;
* the churn level where the chooser's decision actually crosses from
  incremental to full is measured and reported, not assumed.

Reported beside it, not asserted: per swept churn and for both view
shapes of the ``view_churn`` workload (the join above as ``VJ``, a
``TAGGR`` view as ``VA``), the chooser's two estimates, the two measured
refresh times and the pick — where an estimate and a measurement disagree
about which side is cheaper, the table shows it.

Numbers land in ``BENCH_VIEWS_JSON`` (default ``BENCH_views.json``) so
CI can gate and archive the run.
"""

import json
import os
import time

from harness import fmt, print_series

from repro.algebra.builder import scan
from repro.algebra.schema import Attribute, AttrType, Schema
from repro.core.tango import Tango
from repro.dbms.database import MiniDB
from repro.dbms.loader import DirectPathLoader
from repro.fuzz.compare import canonical_rows
from repro.workloads.generator import (
    ColumnSpec,
    RandomRelationSpec,
    UpdateStreamSpec,
    generate_relation_rows,
    generate_update_stream,
)

BASE_ROWS = 4000
KEYS = 400
ROUNDS = 5
LOW_CHURN = 0.02
HIGH_CHURN = 1.0
CROSSOVER_SWEEP = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0)
MIN_SPEEDUP = float(os.environ.get("BENCH_VIEWS_MIN_SPEEDUP", "2.0"))
MAX_HIGH_CHURN_LOSS = float(
    os.environ.get("BENCH_VIEWS_MAX_HIGH_CHURN_LOSS", "1.10")
)
RESULTS_PATH = os.environ.get("BENCH_VIEWS_JSON", "BENCH_views.json")


def record(section: str, payload: dict) -> None:
    """Merge one test's numbers into the shared JSON results file."""
    results = {}
    if os.path.exists(RESULTS_PATH):
        with open(RESULTS_PATH) as handle:
            results = json.load(handle)
    results[section] = payload
    with open(RESULTS_PATH, "w") as handle:
        json.dump(results, handle, indent=2)


def base_spec() -> RandomRelationSpec:
    return RandomRelationSpec(
        name="BASE",
        columns=(ColumnSpec("K0", AttrType.INT, distinct=KEYS),),
        cardinality=BASE_ROWS,
        window_start=0,
        window_end=365,
        max_duration=30,
        skew=0.5,
        seed=13,
    )


DIM_SCHEMA = Schema(
    [
        Attribute("K0", AttrType.INT),
        Attribute("T1", AttrType.DATE),
        Attribute("T2", AttrType.DATE),
    ]
)


def make_tango() -> Tango:
    spec = base_spec()
    db = MiniDB()
    loader = DirectPathLoader(db)
    loader.load(
        spec.name, spec.schema, generate_relation_rows(spec), temporary=False
    )
    # One wide-period dimension row per key: every fact row matches once.
    loader.load(
        "DIM",
        DIM_SCHEMA,
        [(key, 0, 365) for key in range(KEYS)],
        temporary=False,
    )
    db.analyze(spec.name)
    db.analyze("DIM")
    return Tango(db)


VA_SQL = "VALIDTIME SELECT K0, COUNT(K0) FROM BASE GROUP BY K0 ORDER BY K0"


def view_plan(db, shape: str = "VJ"):
    if shape == "VA":
        return VA_SQL
    return (
        scan(db, "BASE")
        .temporal_join(scan(db, "DIM").build(), "K0", "K0")
        .to_middleware()
        .build()
    )


def refresh_timed(tango: Tango, strategy):
    begin = time.perf_counter()
    outcome = tango.refresh_view("V", strategy=strategy)
    return time.perf_counter() - begin, outcome


def scratch_rows(tango: Tango, shape: str = "VJ") -> list[tuple]:
    plan = view_plan(tango.db, shape)
    return canonical_rows(tango.execute_plan(tango.optimize(plan).plan).rows)


def run_stream(churn: float, stream_seed: int, shape: str = "VJ", strategy=None):
    """Twin instances, identical batches; the chooser (or a forced
    *strategy*) vs always-full.

    Returns (best seconds of the first twin, best full seconds, strategies
    that ran, total delta rows applied, the chooser's decision for the
    first batch).
    """
    chooser, full = make_tango(), make_tango()
    chooser.create_view("V", view_plan(chooser.db, shape))
    full.create_view("V", view_plan(full.db, shape))
    batches = generate_update_stream(
        base_spec(),
        UpdateStreamSpec(
            batches=ROUNDS, churn=churn, insert_fraction=0.5, seed=stream_seed
        ),
    )
    best_chooser, best_full = float("inf"), float("inf")
    strategies, delta_rows, decision = [], 0, None
    for batch in batches:
        delta_rows += batch.rows
        chooser.apply_updates("BASE", batch.inserts, batch.deletes)
        full.apply_updates("BASE", batch.inserts, batch.deletes)
        decision = decision or chooser.views.choose("V")
        elapsed, outcome = refresh_timed(chooser, strategy)
        best_chooser = min(best_chooser, elapsed)
        strategies.append(outcome.strategy)
        elapsed, _ = refresh_timed(full, "full")
        best_full = min(best_full, elapsed)
        assert list(chooser.db.table("V").rows) == list(full.db.table("V").rows)
    # Whatever path was taken, the view is byte-identical to scratch.
    assert list(chooser.db.table("V").rows) == scratch_rows(chooser, shape)
    chooser.close()
    full.close()
    return best_chooser, best_full, strategies, delta_rows, decision


def measure_sweep(shape: str) -> list[dict]:
    """Per swept churn: what the chooser estimates for each strategy (for
    the first batch), what each takes when forced, and which it picks."""
    sweep = []
    for churn in CROSSOVER_SWEEP:
        incremental, full, strategies, _, decision = run_stream(
            churn, 29, shape, strategy="incremental"
        )
        assert set(strategies) == {"incremental"}, strategies
        sweep.append(
            {
                "churn": churn,
                "estimated_incremental_ms": decision.estimated_incremental_us / 1e3,
                "estimated_full_ms": decision.estimated_full_us / 1e3,
                "incremental_ms": incremental * 1e3,
                "full_ms": full * 1e3,
                "picked": decision.strategy,
                "faster": "incremental" if incremental < full else "full",
            }
        )
    return sweep


def crossover_of(sweep: list[dict]) -> float | None:
    """The lowest swept churn where the chooser's decision is full."""
    return next((row["churn"] for row in sweep if row["picked"] == "full"), None)


def test_incremental_maintenance_beats_full_recompute():
    t_inc, t_full_low, low_strategies, low_delta, _ = run_stream(LOW_CHURN, 17)
    assert all(strategy == "incremental" for strategy in low_strategies), (
        f"the chooser abandoned the incremental path at {LOW_CHURN:.0%} "
        f"churn: {low_strategies}"
    )
    t_high, t_full_high, high_strategies, high_delta, _ = run_stream(
        HIGH_CHURN, 23
    )
    assert all(strategy == "full" for strategy in high_strategies), (
        f"the chooser kept merging deltas at {HIGH_CHURN:.0%} churn: "
        f"{high_strategies}"
    )
    sweeps = {shape: measure_sweep(shape) for shape in ("VJ", "VA")}
    crossover = crossover_of(sweeps["VJ"])

    speedup = t_full_low / t_inc
    high_ratio = t_high / t_full_high
    print_series(
        f"View refresh: cost-based chooser vs always-full "
        f"({BASE_ROWS} fact rows x {KEYS} dimension keys, best of {ROUNDS})",
        ["churn", "chooser", "always-full", "ratio", "picked"],
        [
            [f"{LOW_CHURN:.0%}", fmt(t_inc), fmt(t_full_low),
             f"{speedup:.2f}x faster", "incremental"],
            [f"{HIGH_CHURN:.0%}", fmt(t_high), fmt(t_full_high),
             f"{high_ratio:.2f}x of full", "full"],
            ["crossover",
             f"{crossover:.0%}" if crossover is not None else ">100%",
             "-", "-", "decision flips"],
        ],
    )
    for shape, sweep in sweeps.items():
        print_series(
            f"Refresh chooser on {shape}: estimates vs measurements "
            f"(ms, best of {ROUNDS})",
            ["churn", "est incr", "est full", "incr", "full", "picked", "faster"],
            [
                [f"{row['churn']:.1%}"]
                + [f"{row[key]:.1f}" for key in (
                    "estimated_incremental_ms", "estimated_full_ms",
                    "incremental_ms", "full_ms",
                )]
                + [row["picked"], row["faster"]]
                for row in sweep
            ],
        )
    record(
        "views",
        {
            "base_rows": BASE_ROWS,
            "dimension_keys": KEYS,
            "rounds": ROUNDS,
            "low_churn": LOW_CHURN,
            "high_churn": HIGH_CHURN,
            "low_delta_rows": low_delta,
            "high_delta_rows": high_delta,
            "best_seconds": {
                "chooser_low_churn": t_inc,
                "full_low_churn": t_full_low,
                "chooser_high_churn": t_high,
                "full_high_churn": t_full_high,
            },
            "low_churn_speedup": speedup,
            "high_churn_ratio": high_ratio,
            "crossover_churn": crossover,
            "chooser_sweep": sweeps,
            "min_speedup_required": MIN_SPEEDUP,
            "max_high_churn_loss": MAX_HIGH_CHURN_LOSS,
        },
    )

    assert speedup >= MIN_SPEEDUP, (
        f"incremental refresh is only {speedup:.2f}x always-full at "
        f"{LOW_CHURN:.0%} churn (need >= {MIN_SPEEDUP}x): "
        f"{fmt(t_inc)} vs {fmt(t_full_low)}"
    )
    assert high_ratio <= MAX_HIGH_CHURN_LOSS, (
        f"the chooser costs {high_ratio:.2f}x always-full at "
        f"{HIGH_CHURN:.0%} churn (allowed <= {MAX_HIGH_CHURN_LOSS}x): "
        f"{fmt(t_high)} vs {fmt(t_full_high)}"
    )
