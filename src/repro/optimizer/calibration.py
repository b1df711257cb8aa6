"""Cost-factor calibration (the Cost Estimator component, Figure 1).

Following Du et al. [4], cost factors are deduced in a calibration phase
that runs a set of sample queries against the actual DBMS and middleware
and fits the per-byte factors of the Figure 6 formulas to the measured
times.  Like the paper, "we assume that we do not know the specific
algorithms used by the DBMS" — each factor is fitted from end-to-end timings
of operations whose cost the corresponding formula describes.

Timings use :func:`time.perf_counter`; sample relations are synthesized in a
scratch table and dropped afterwards.  Middleware probes drain their cursor
with :func:`~repro.xxl.cursor.materialize` — the batch protocol the
execution engine uses — so a factor prices the algorithm as it will run,
not the per-row ``has_next``/``next`` dispatch the engine never pays.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace

from repro.algebra.expressions import Comparison, col, lit
from repro.algebra.operators import AggregateSpec
from repro.algebra.schema import Attribute, AttrType, Schema
from repro.dbms.jdbc import Connection
from repro.errors import CalibrationError
from repro.optimizer.costs import CostFactors
from repro.xxl.cursor import materialize
from repro.xxl.filter import FilterCursor
from repro.xxl.sort import SortCursor
from repro.xxl.sources import RelationCursor, SQLCursor
from repro.xxl.temporal_aggregate import TemporalAggregateCursor
from repro.xxl.transfer import TransferDCursor, unique_temp_name

_SCHEMA = Schema(
    [
        Attribute("K", AttrType.INT),
        Attribute("V", AttrType.INT),
        Attribute("T1", AttrType.DATE),
        Attribute("T2", AttrType.DATE),
    ]
)

#: Wide variant used to separate per-tuple from per-byte transfer costs.
_WIDE_SCHEMA = Schema(
    [
        Attribute("K", AttrType.INT),
        Attribute("V", AttrType.INT),
        Attribute("T1", AttrType.DATE),
        Attribute("T2", AttrType.DATE),
        Attribute("PAD", AttrType.STR, 96),
    ]
)

_PAD = "x" * 96


def _sample_rows(count: int, seed: int = 7) -> list[tuple]:
    """Calibration rows: K has ~8 duplicates per value (aggregation probes),
    V is unique (join probes get output == input, keeping transfer effects
    out of the per-byte join factors)."""
    rng = random.Random(seed)
    rows = []
    for i in range(count):
        start = rng.randrange(0, 3650)
        rows.append(
            (i % max(1, count // 8), i, start, start + rng.randrange(30, 600))
        )
    return rows


def _timed(func) -> float:
    begin = time.perf_counter()
    func()
    return (time.perf_counter() - begin) * 1e6  # microseconds


class Calibrator:
    """Fits :class:`CostFactors` by timing sample operations.

    Each factor is the median of per-byte costs over a few sample sizes —
    robust against one slow run, cheap enough to run at middleware startup.
    """

    def __init__(
        self,
        connection: Connection,
        sizes: tuple[int, ...] = (500, 2000),
        repeats: int = 3,
    ):
        if not sizes:
            raise CalibrationError("calibration needs at least one sample size")
        self._connection = connection
        self._sizes = sizes
        self._repeats = max(1, repeats)

    def calibrate(self, base: CostFactors | None = None) -> CostFactors:
        """Return cost factors fitted on this machine/DBMS pair."""
        factors = base or CostFactors()
        p_tmr, p_tm = self._fit_two_term(
            self._measure_transfer_m, self._measure_transfer_m_wide
        )
        p_tdr, p_td = self._fit_two_term(
            self._measure_transfer_d, self._measure_transfer_d_wide
        )
        p_sem = self._median(self._measure_filter_m)
        p_sortm = self._median(self._measure_sort_m)
        p_taggm = self._median(self._measure_taggr_m)
        p_taggd = self._median(self._measure_taggr_d)
        p_scand = self._median(self._measure_scan_d)
        p_sortd = self._median(self._measure_sort_d)
        self._p_scand = p_scand  # used by the join probe to net out scans
        p_joind = self._median(self._measure_join_d)
        p_joinm = self._median(self._measure_join_m)
        p_tjoinm = self._median(self._measure_temporal_join_m)
        return replace(
            factors,
            p_tm=p_tm,
            p_tmr=p_tmr,
            p_td=p_td,
            p_tdr=p_tdr,
            p_sem=p_sem,
            p_sortm=p_sortm,
            p_taggm1=p_taggm,
            p_taggm2=p_taggm / 2,
            p_taggd1=p_taggd,
            p_taggd2=p_taggd / 10,
            p_scand=p_scand,
            p_sortd=p_sortd,
            p_joind=p_joind,
            p_joinm=p_joinm,
            p_tjoinm=p_tjoinm,
        )

    # -- helpers -----------------------------------------------------------------

    def _median(self, measure) -> float:
        """Median over sizes × repeats — robust against scheduler noise in
        any single probe run."""
        samples = sorted(
            measure(size)
            for size in self._sizes
            for _ in range(self._repeats)
        )
        return samples[len(samples) // 2]

    def _minimum(self, measure) -> float:
        """Minimum over sizes × repeats — the noise floor, used where two
        measurements are subtracted (noise amplifies through differences)."""
        return min(
            measure(size)
            for size in self._sizes
            for _ in range(self._repeats)
        )

    def _fit_two_term(self, narrow_probe, wide_probe) -> tuple[float, float]:
        """Fit ``cost = a·tuples + b·bytes`` from per-tuple timings of a
        narrow-row and a wide-row workload (Section 3.2: transfer cost
        depends on "the number and size of the tuples")."""
        per_tuple_narrow = self._minimum(narrow_probe)
        per_tuple_wide = self._minimum(wide_probe)
        narrow_width = _SCHEMA.row_width
        wide_width = _WIDE_SCHEMA.row_width
        per_byte = (per_tuple_wide - per_tuple_narrow) / (wide_width - narrow_width)
        per_byte = max(per_byte, 0.0)
        per_tuple = max(per_tuple_narrow - per_byte * narrow_width, 0.0)
        if per_tuple == 0.0 and per_byte == 0.0:
            per_byte = per_tuple_narrow / narrow_width
        return per_tuple, per_byte

    def _with_table(self, count: int, func, wide: bool = False) -> float:
        name = unique_temp_name("CALIB")
        schema = _WIDE_SCHEMA if wide else _SCHEMA
        rows = _sample_rows(count)
        if wide:
            rows = [row + (_PAD,) for row in rows]
        # One chunk through the path every TRANSFER^D takes.
        self._connection.executemany(name, schema, rows)
        try:
            return func(name)
        finally:
            self._connection.drop_temp(name)

    # Transfer probes return microseconds per tuple (the two-term fit
    # separates the per-tuple and per-byte components); the remaining
    # probes return microseconds per byte of input.

    def _measure_transfer_m(self, count: int, wide: bool = False) -> float:
        def probe(name: str) -> float:
            cursor = SQLCursor(self._connection, f"SELECT * FROM {name}")
            elapsed = _timed(lambda: materialize(cursor))
            return elapsed / count

        return self._with_table(count, probe, wide)

    def _measure_transfer_m_wide(self, count: int) -> float:
        return self._measure_transfer_m(count, wide=True)

    def _measure_transfer_d(self, count: int, wide: bool = False) -> float:
        rows = _sample_rows(count)
        schema = _SCHEMA
        if wide:
            rows = [row + (_PAD,) for row in rows]
            schema = _WIDE_SCHEMA
        target = unique_temp_name("CALIB_TD")
        source = RelationCursor(schema, rows)
        transfer = TransferDCursor(source, self._connection, target)
        elapsed = _timed(transfer.init)
        transfer.drop()
        return elapsed / count

    def _measure_transfer_d_wide(self, count: int) -> float:
        return self._measure_transfer_d(count, wide=True)

    def _measure_sort_m(self, count: int) -> float:
        rows = _sample_rows(count)
        cursor = SortCursor(RelationCursor(_SCHEMA, rows), ("T1", "K"))
        elapsed = _timed(lambda: materialize(cursor))
        log = max(1, count.bit_length())
        return elapsed / (count * _SCHEMA.row_width * log)

    def _measure_filter_m(self, count: int) -> float:
        """``FILTER^M`` per byte for a one-comparison predicate (Figure 6's
        ``f(P)`` = 1) that every row passes."""
        cursor = FilterCursor(
            RelationCursor(_SCHEMA, _sample_rows(count)),
            Comparison(">=", col("V"), lit(0)),
        )
        elapsed = _timed(lambda: materialize(cursor))
        return elapsed / (count * _SCHEMA.row_width)

    def _measure_taggr_m(self, count: int) -> float:
        rows = sorted(_sample_rows(count), key=lambda row: (row[0], row[2]))
        cursor = TemporalAggregateCursor(
            RelationCursor(_SCHEMA, rows),
            group_by=("K",),
            aggregates=(AggregateSpec("COUNT", "K"),),
        )
        elapsed = _timed(lambda: materialize(cursor))
        return elapsed / (count * _SCHEMA.row_width)

    def _measure_taggr_d(self, count: int) -> float:
        def probe(name: str) -> float:
            sql = _taggr_sql(name)
            elapsed = _timed(lambda: self._connection.execute(sql).fetchall())
            return elapsed / (count * _SCHEMA.row_width)

        return self._with_table(count, probe)

    def _measure_sort_d(self, count: int) -> float:
        """DBMS sort: ORDER BY time minus plain-scan time, per byte·log2(n)."""

        def probe(name: str) -> float:
            cursor = self._connection.cursor(prefetch=10_000)
            plain = _timed(lambda: cursor.execute(f"SELECT * FROM {name}").fetchall())
            ordered = _timed(
                lambda: cursor.execute(
                    f"SELECT * FROM {name} ORDER BY V, K"
                ).fetchall()
            )
            log = max(1, count.bit_length())
            extra = max(ordered - plain, 0.05 * plain)
            return extra / (count * _SCHEMA.row_width * log)

        return self._with_table(count, probe)

    def _measure_join_d(self, count: int) -> float:
        """Generic DBMS join per byte touched.

        The probe self-joins on K (≈8 duplicates per value, so the engine's
        value-pack cross products are exercised) but aggregates the result
        to a single COUNT row, keeping client-side fetch effects out.  A
        COUNT baseline nets out parse/scan/aggregation overheads.
        """

        def probe(name: str) -> float:
            cursor = self._connection.cursor()
            baseline = _timed(
                lambda: cursor.execute(f"SELECT COUNT(*) FROM {name}").fetchall()
            )
            sql = f"SELECT COUNT(*) FROM {name} A, {name} B WHERE A.K = B.K"
            pairs = 0
            def run():
                nonlocal pairs
                pairs = cursor.execute(sql).fetchall()[0][0]
            elapsed = _timed(run)
            touched = (2 * count + max(1, pairs)) * _SCHEMA.row_width
            extra = max(elapsed - 2 * baseline, 0.2 * elapsed)
            return extra / touched

        return self._with_table(count, probe)

    def _measure_join_m(self, count: int) -> float:
        """Middleware sort-merge join per byte touched (sorted inputs,
        duplicate keys — symmetric with the DBMS probe)."""
        from repro.xxl.merge_join import MergeJoinCursor

        rows = sorted(_sample_rows(count), key=lambda row: row[0])
        left = RelationCursor(_SCHEMA, rows)
        right = RelationCursor(_SCHEMA, rows)
        cursor = MergeJoinCursor(left, right, "K", "K")
        output = 0
        def run():
            nonlocal output
            output = len(materialize(cursor))
        elapsed = _timed(run)
        touched = (2 * count + max(1, output)) * _SCHEMA.row_width
        return elapsed / touched

    def _measure_temporal_join_m(self, count: int) -> float:
        """Middleware temporal join per byte touched, on duplicate keys
        with realistically overlapping periods."""
        from repro.xxl.temporal_join import TemporalJoinCursor

        rows = sorted(_sample_rows(count), key=lambda row: row[0])
        left = RelationCursor(_SCHEMA, rows)
        right = RelationCursor(_SCHEMA, rows)
        cursor = TemporalJoinCursor(left, right, "K", "K")
        output = 0
        def run():
            nonlocal output
            output = len(materialize(cursor))
        elapsed = _timed(run)
        touched = (2 * count + max(1, output)) * _SCHEMA.row_width
        return elapsed / touched

    def _measure_scan_d(self, count: int) -> float:
        def probe(name: str) -> float:
            elapsed = _timed(
                lambda: self._connection.execute(
                    f"SELECT COUNT(*) FROM {name} WHERE V >= 0"
                ).fetchall()
            )
            return elapsed / (count * _SCHEMA.row_width)

        return self._with_table(count, probe)


def _taggr_sql(table: str) -> str:
    """The SQL temporal-aggregation rewrite used for calibration probes
    (same shape the Translator-To-SQL emits for ``TAGGR^D``)."""
    return (
        "SELECT P.K AS K, I.TS AS T1, I.TE AS T2, COUNT(*) AS CNT "
        "FROM (SELECT S1.K AS K, S1.TS AS TS, MIN(S2.TS) AS TE "
        "      FROM (SELECT K, T1 AS TS FROM {t} UNION SELECT K, T2 FROM {t}) S1, "
        "           (SELECT K, T1 AS TS FROM {t} UNION SELECT K, T2 FROM {t}) S2 "
        "      WHERE S1.K = S2.K AND S1.TS < S2.TS "
        "      GROUP BY S1.K, S1.TS) I, {t} P "
        "WHERE P.K = I.K AND P.T1 <= I.TS AND I.TE <= P.T2 "
        "GROUP BY P.K, I.TS, I.TE"
    ).format(t=table)
