"""Every metric the benchmark reports: name, unit, direction, bound.

``BENCHMARK.json`` at the repository root repeats these declarations for
the driver; ``python -m bench selftest`` fails when the two disagree.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    #: "lower" or "higher".
    better: str
    #: Share of the parent's median by which the metric may worsen before
    #: ``compare`` reports a regression (end-to-end metrics only).
    bound: float | None = None


#: What a user of the middleware sees.  Times are "at reference speed":
#: divided by the speed factor of the frozen reference kernel timed around
#: each round (see bench/stats.py).  The three timing bounds are set by the
#: noisiest workload, ``service_mix``, whose two worker threads lose 12-17 %
#: for minutes at a time when the box is disturbed (bench/README.md, A/A);
#: every other workload spreads by a third of that or less.
END_TO_END = (
    # Data generation + load + ANALYZE + construction + views + warm-up;
    # the median of 3 set-ups per run.
    Metric("setup_s", "s", "lower", 0.25),
    # Median and p90 time of one operation; p90 needs >= 100 samples.
    Metric("latency_p50_ms", "ms", "lower", 0.25),
    Metric("latency_p90_ms", "ms", "lower", 0.25),
    # Operations / timed seconds; one closed-loop client (service_mix: 4).
    Metric("throughput_ops_s", "1/s", "higher", 0.25),
    # DBMS + middleware meter ticks per operation over the counted pass.
    Metric("ticks_per_op", "ticks", "lower", 0.15),
    # ru_maxrss of the workload's process.
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)

#: ``failed_ops_ratio`` is the seventh end-to-end number.  It is 0 on a valid
#: run, so it cannot carry a relative bound: any failed operation makes the
#: command exit non-zero instead, and the ratio is printed beside the others.
FAILED_OPS_RATIO = Metric("failed_ops_ratio", "ratio", "lower", 0.0)

#: Single layers, from the traced pass.  Times are ms per operation (raw, not
#: normalised: compare them with each other inside one run, and with
#: ``bench.ref_kernel_ms`` across runs).  A metric that does not apply to a
#: workload reads 0.
PER_LAYER = (
    Metric("core.parser.parse_ms", "ms", "lower"),
    Metric("optimizer.optimize_ms", "ms", "lower"),
    Metric("optimizer.memo_classes", "count", "lower"),
    Metric("optimizer.memo_elements", "count", "lower"),
    Metric("optimizer.us_per_element", "us", "lower"),
    Metric("optimizer.regret_ticks_x", "x", "lower"),
    Metric("optimizer.calibrate_s", "s", "lower"),
    Metric("stats.qerror_p50", "x", "lower"),
    Metric("stats.qerror_max", "x", "lower"),
    Metric("stats.refresh_ms", "ms", "lower"),
    Metric("core.plan_cache.hit_ratio", "ratio", "higher"),
    Metric("core.plan_cache.hit_ms", "ms", "lower"),
    Metric("core.engine.execute_ms", "ms", "lower"),
    Metric("core.engine.translate_ms", "ms", "lower"),
    Metric("core.engine.drain_self_ms", "ms", "lower"),
    Metric("core.engine.rows_per_batch", "rows", "higher"),
    Metric("dbms.transfer_m_ms", "ms", "lower"),
    Metric("dbms.transfer_d_ms", "ms", "lower"),
    Metric("dbms.direct_sql_ms", "ms", "lower"),
    Metric("dbms.ticks_per_op", "ticks", "lower"),
    Metric("dbms.round_trips", "count", "lower"),
    Metric("dbms.rows_fetched", "rows", "lower"),
    Metric("dbms.rows_loaded", "rows", "lower"),
    Metric("dbms.bytes_fetched", "bytes", "lower"),
    Metric("dbms.rows_fetched_per_result_row", "ratio", "lower"),
    Metric("xxl.taggr_self_ms", "ms", "lower"),
    Metric("xxl.tjoin_self_ms", "ms", "lower"),
    Metric("xxl.sort_self_ms", "ms", "lower"),
    Metric("xxl.filter_project_self_ms", "ms", "lower"),
    Metric("xxl.merge_join_self_ms", "ms", "lower"),
    Metric("xxl.rows_per_s", "rows/s", "higher"),
    Metric("xxl.mw_ticks_per_op", "ticks", "lower"),
    Metric("views.apply_updates_ms", "ms", "lower"),
    Metric("views.refresh_ms", "ms", "lower"),
    Metric("views.read_ms", "ms", "lower"),
    Metric("views.full_refresh_ms", "ms", "lower"),
    Metric("views.refresh_speedup_x", "x", "higher"),
    Metric("views.incremental_ratio", "ratio", "higher"),
    Metric("views.fallbacks", "count", "lower"),
    Metric("views.delta_rows_per_refresh", "rows", "lower"),
    Metric("service.queue_wait_p50_ms", "ms", "lower"),
    Metric("service.queue_wait_p90_ms", "ms", "lower"),
    Metric("service.overhead_x", "x", "lower"),
    Metric("service.fairness_ratio", "ratio", "higher"),
    Metric("service.shed", "count", "lower"),
    Metric("obs.tracing_overhead_ratio", "ratio", "lower"),
    Metric("obs.explain_overhead_ratio", "ratio", "lower"),
    Metric("core.tango.facade_self_ms", "ms", "lower"),
    Metric("bench.ref_kernel_ms", "ms", "lower"),
    Metric("bench.staged_overhead_ratio", "ratio", "lower"),
    Metric("bench.verify_s", "s", "lower"),
    Metric("bench.samples", "count", "higher"),
)

#: Counts that must repeat exactly on the single-threaded workloads
#: (``python -m bench check``).
EXACT_COUNTS = (
    "ticks_per_op",
    "optimizer.memo_classes",
    "optimizer.memo_elements",
    "dbms.round_trips",
    "dbms.rows_fetched",
    "dbms.rows_loaded",
    "views.incremental_ratio",
)
