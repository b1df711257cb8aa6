"""Ablation A3 — JDBC row-prefetch size vs TRANSFER^M time (Section 3.2).

"Experiments with Oracle show that the performance is also affected by the
row-prefetch setting, which specifies the number of tuples fetched at a
time by JDBC to a client-side buffer."  The paper leaves the setting out of
the cost formula because it is DBMS-specific; this ablation shows the
effect the remark refers to, in both wall-clock and simulated ticks.
"""

import time

from harness import print_series

from repro.dbms.jdbc import Connection
from repro.xxl.cursor import materialize
from repro.xxl.sources import SQLCursor

PREFETCH_SIZES = (1, 10, 100, 1000)


def test_prefetch_ablation(benchmark, bench_db):
    def measure():
        rows = []
        ticks = {}
        seconds = {}
        for prefetch in PREFETCH_SIZES:
            connection = Connection(bench_db, prefetch=prefetch)
            bench_db.meter.reset()
            cursor = SQLCursor(connection, "SELECT * FROM POSITION")
            begin = time.perf_counter()
            fetched = len(materialize(cursor))
            elapsed = time.perf_counter() - begin
            seconds[prefetch] = elapsed
            ticks[prefetch] = bench_db.meter.ticks
            rows.append([prefetch, f"{elapsed:.4f}s", ticks[prefetch], fetched])
        return rows, seconds, ticks

    rows, seconds, ticks = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_series(
        "A3: TRANSFER^M of POSITION vs JDBC row prefetch",
        ["prefetch", "wall-clock", "simulated ticks", "rows"],
        rows,
    )
    # More round trips → more simulated transfer work, monotonically.
    assert ticks[1] > ticks[10] > ticks[100] >= ticks[1000]
    # The effect the paper observed: tiny prefetch is measurably slower.
    assert seconds[1] >= seconds[1000] * 0.8
