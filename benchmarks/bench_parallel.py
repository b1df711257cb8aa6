"""Partition-parallel execution, measured: Query 1 at workers 1/2/4.

The exchange fans out Query 1's one ``TRANSFER^M``, and its speedup comes
from overlapping DBMS wire latency across partitions, so this benchmark
runs in the paper's remote-DBMS regime by default: the caller-supplied
pool's fault injector, with
``FaultPolicy(latency_p=1.0, latency_seconds=BENCH_PARALLEL_LATENCY)``, has
every connection sleep that long per DBMS call (default 10 ms; the sleep
happens outside the injector's lock and releases the GIL, exactly like a
socket read).  There ``workers=4`` answers 3.4x faster than serial on
``load_uis(scale=0.02)`` (107 vs 359 ms best of three; 1.9x at
``workers=2``).  With latency at zero — the in-process default —
partition parallelism buys nothing: under the GIL the partitions' work
serializes, and ``workers=4`` is 1.6-2.3x *slower* than serial (4.4-5.8 vs
2.1-2.3 ms at scale 0.02, 27.2 vs 17.3 ms at scale 0.1), the price of the
threads, queues and extra statements.  The parallel cost term,
``p_par_startup · d + cost / d`` on ``TRANSFER^M`` alone, prices wire time
that overlaps; in-process there is none, and the uncalibrated
``p_par_startup = 500`` does **not** keep the fetch serial (ROADMAP item
8 has the learned latency term this needs) — so ``workers > 1`` is a
setting for remote DBMSs only.  CI runs this file twice: at 10 ms against
a 1.5x gate, and at ``BENCH_PARALLEL_LATENCY=0`` against a 0.2x gate on
the exchange's own overhead (0.03-0.06x when the consumer slept out a
20 ms poll at the end of every partition).

Asserted here:

* workers=4 answers Query 1 at least ``BENCH_PARALLEL_MIN_SPEEDUP``
  (default 1.5) times as fast as workers=1 on the same dataset;
* every worker count returns exactly the serial rows;
* the run records ``parallel_efficiency`` (Σ partition busy time over
  wall time x partitions) for the archive.

Numbers land in ``BENCH_PARALLEL_JSON`` (default
``bench_parallel_results.json``) so CI can gate and archive the run.
"""

import json
import os
import time

from harness import fmt, print_series

from repro.core.tango import Tango, TangoConfig
from repro.dbms.jdbc import DEFAULT_PREFETCH, ConnectionPool
from repro.resilience import FaultInjector, FaultPolicy
from repro.workloads.queries import query1_sql

ROUNDS = 3
WORKER_COUNTS = (1, 2, 4)
LATENCY = float(os.environ.get("BENCH_PARALLEL_LATENCY", "0.01"))
MIN_SPEEDUP = float(os.environ.get("BENCH_PARALLEL_MIN_SPEEDUP", "1.5"))
RESULTS_PATH = os.environ.get("BENCH_PARALLEL_JSON", "bench_parallel_results.json")


def record(section: str, payload: dict) -> None:
    """Merge one test's numbers into the shared JSON results file."""
    results = {}
    if os.path.exists(RESULTS_PATH):
        with open(RESULTS_PATH) as handle:
            results = json.load(handle)
    results[section] = payload
    with open(RESULTS_PATH, "w") as handle:
        json.dump(results, handle, indent=2)


def test_query1_parallel_speedup(bench_db):
    sql = query1_sql()
    # Wire latency is a property of the deployment's connections, so it
    # rides on the pool the caller supplies (one primary connection plus
    # one per partition), as a latency spike on every DBMS call.
    pools = {
        workers: ConnectionPool(
            bench_db,
            size=workers + 1,
            prefetch=DEFAULT_PREFETCH,
            injector=FaultInjector(
                FaultPolicy(latency_p=1.0, latency_seconds=LATENCY)
            ),
        )
        for workers in WORKER_COUNTS
    }
    tangos = {
        workers: Tango(bench_db, config=TangoConfig(workers=workers), pool=pool)
        for workers, pool in pools.items()
    }
    rows = {w: t.query(sql).rows for w, t in tangos.items()}  # warm + verify
    assert rows[2] == rows[1] and rows[4] == rows[1]

    best = {workers: float("inf") for workers in WORKER_COUNTS}
    for _ in range(ROUNDS):  # interleaved to cancel machine drift
        for workers, tango in tangos.items():
            begin = time.perf_counter()
            tango.query(sql)
            best[workers] = min(best[workers], time.perf_counter() - begin)

    efficiency = {
        workers: tango.metrics.histogram("parallel_efficiency").mean
        for workers, tango in tangos.items()
    }
    partitions = {
        workers: tango.metrics.value("exchange_partitions")
        for workers, tango in tangos.items()
    }
    speedup = {workers: best[1] / best[workers] for workers in WORKER_COUNTS}
    print_series(
        f"Parallel Query 1 (wire latency {LATENCY * 1e3:.0f}ms/round trip)",
        ["workers", "best", "speedup", "efficiency"],
        [
            [
                str(workers),
                fmt(best[workers]),
                f"{speedup[workers]:.2f}x",
                f"{efficiency[workers]:.2f}" if workers > 1 else "-",
            ]
            for workers in WORKER_COUNTS
        ],
    )
    record(
        "parallel_query1",
        {
            "latency_seconds": LATENCY,
            "result_rows": len(rows[1]),
            "best_seconds": {str(w): best[w] for w in WORKER_COUNTS},
            "speedup": {str(w): speedup[w] for w in WORKER_COUNTS},
            "parallel_efficiency": {
                str(w): efficiency[w] for w in WORKER_COUNTS if w > 1
            },
            "min_speedup_required": MIN_SPEEDUP,
        },
    )
    for workers, tango in tangos.items():
        tango.close()
        pools[workers].close()

    assert partitions[4] >= 2, "workers=4 never fanned out an exchange"
    assert speedup[4] >= MIN_SPEEDUP, (
        f"workers=4 is only {speedup[4]:.2f}x workers=1 "
        f"(need >= {MIN_SPEEDUP}x): {fmt(best[4])} vs {fmt(best[1])}"
    )
