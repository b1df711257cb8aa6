"""Batched execution and the plan cache — the fast paths, measured.

Two checks:

* the middleware aggregation stage (Query 1's ``TAGGR^M`` over its sorted
  argument) must run at least ``BENCH_BATCHING_MIN_SPEEDUP`` (default 2.0)
  times faster at ``BATCH_SIZE`` (256) than with its cursors shrunk to
  batches of 1, the paper's row-at-a-time protocol;
* a repeated query must be answered from the plan cache without invoking
  the optimizer (asserted through the metrics registry, not timing).

All timings are best-of-N and interleaved to cancel machine drift.  Each
test appends its numbers to ``BENCH_BATCHING_JSON`` (default
``bench_batching_results.json``) so CI can archive the run.
"""

import json
import os
import time

from harness import fmt, print_series

from repro.algebra.operators import AggregateSpec
from repro.algebra.schema import Attribute, AttrType, Schema
from repro.core.tango import Tango
from repro.workloads.queries import query1_sql
from repro.xxl.cursor import BATCH_SIZE
from repro.xxl.sources import RelationCursor
from repro.xxl.temporal_aggregate import TemporalAggregateCursor

ROUNDS = 11
MIN_SPEEDUP = float(os.environ.get("BENCH_BATCHING_MIN_SPEEDUP", "2.0"))
RESULTS_PATH = os.environ.get("BENCH_BATCHING_JSON", "bench_batching_results.json")


def record(section: str, payload: dict) -> None:
    """Merge one test's numbers into the shared JSON results file."""
    results = {}
    if os.path.exists(RESULTS_PATH):
        with open(RESULTS_PATH) as handle:
            results = json.load(handle)
    results[section] = payload
    with open(RESULTS_PATH, "w") as handle:
        json.dump(results, handle, indent=2)


def aggregation_input(bench_db) -> tuple[Schema, list[tuple]]:
    """Query 1's middleware-aggregation argument: the sorted projection
    that ``TRANSFER^M`` delivers to ``TAGGR^M`` (Figure 4's plan P1)."""
    rows = bench_db.query("SELECT PosID, T1, T2 FROM POSITION ORDER BY PosID, T1")
    schema = Schema(
        [
            Attribute("PosID"),
            Attribute("T1", AttrType.DATE),
            Attribute("T2", AttrType.DATE),
        ]
    )
    return schema, rows


def drain_aggregation(schema, rows, batch_size: int) -> float:
    source = RelationCursor(schema, rows)
    source.batch_size = batch_size
    taggr = TemporalAggregateCursor(
        source,
        group_by=["PosID"],
        aggregates=[AggregateSpec("COUNT", "PosID")],
    )
    taggr.batch_size = batch_size
    begin = time.perf_counter()
    while taggr.next_batch(batch_size):
        pass
    return time.perf_counter() - begin


def test_middleware_aggregation_speedup(bench_db):
    schema, rows = aggregation_input(bench_db)
    drain_aggregation(schema, rows, BATCH_SIZE)  # warm
    rowwise_times, batched_times = [], []
    for _ in range(ROUNDS):
        rowwise_times.append(drain_aggregation(schema, rows, 1))
        batched_times.append(drain_aggregation(schema, rows, BATCH_SIZE))
    rowwise, batched = min(rowwise_times), min(batched_times)
    speedup = rowwise / batched
    print_series(
        "Middleware aggregation (TAGGR^M), Query 1",
        ["batch size", "best", "tuples/s"],
        [
            ["1 (row-at-a-time)", fmt(rowwise), f"{len(rows) / rowwise:,.0f}"],
            [str(BATCH_SIZE), fmt(batched), f"{len(rows) / batched:,.0f}"],
            ["speedup", f"{speedup:.2f}x", "-"],
        ],
    )
    record(
        "middleware_aggregation",
        {
            "input_tuples": len(rows),
            "rowwise_seconds": rowwise,
            "batched_seconds": batched,
            "batch_size": BATCH_SIZE,
            "speedup": speedup,
        },
    )
    assert speedup >= MIN_SPEEDUP, (
        f"batched aggregation is only {speedup:.2f}x row-at-a-time "
        f"(need >= {MIN_SPEEDUP}x): {fmt(batched)} vs {fmt(rowwise)}"
    )


def test_cached_rerun_skips_optimizer(bench_db):
    tango = Tango(bench_db)
    sql = query1_sql()
    first = tango.query(sql)
    assert tango.metrics.value("optimizer_runs") == 1
    begin = time.perf_counter()
    second = tango.query(sql)
    cached_seconds = time.perf_counter() - begin
    # The repeat is answered without invoking the optimizer at all.
    assert tango.metrics.value("optimizer_runs") == 1
    assert tango.metrics.value("plan_cache_hits") == 1
    assert second.rows == first.rows
    print_series(
        "Plan cache, Query 1 re-run",
        ["metric", "value"],
        [
            ["optimizer runs", tango.metrics.value("optimizer_runs")],
            ["plan cache hits", tango.metrics.value("plan_cache_hits")],
            ["cached re-run", fmt(cached_seconds)],
        ],
    )
    record(
        "plan_cache",
        {
            "optimizer_runs": tango.metrics.value("optimizer_runs"),
            "plan_cache_hits": tango.metrics.value("plan_cache_hits"),
            "cached_rerun_seconds": cached_seconds,
        },
    )
