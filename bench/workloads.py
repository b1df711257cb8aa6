"""The six workloads: what each sets up, what one operation is, its oracle.

Everything here talks to the program through its public surface only —
``Tango``/``TangoConfig`` with default settings (plus ``tracing=True`` for
the traced twin), ``MiniDB``, the loader, the plan builder, the workload
generators, the query service and ``canonical_rows`` — so the package
survives refactors behind that surface.  ``--seed`` reaches only the data,
update and query-cycle generators; the program receives generated inputs.
"""

from __future__ import annotations

import hashlib
import os
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from bench import stats

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.algebra.builder import scan  # noqa: E402
from repro.algebra.schema import Attribute, AttrType, Schema  # noqa: E402
from repro.core.tango import Tango, TangoConfig  # noqa: E402
from repro.dbms.database import MiniDB  # noqa: E402
from repro.dbms.loader import DirectPathLoader  # noqa: E402
from repro.fuzz.compare import canonical_rows  # noqa: E402
from repro.service import QueryService, ServiceConfig, TenantSpec  # noqa: E402
from repro.workloads import queries  # noqa: E402
from repro.workloads.generator import (  # noqa: E402
    ColumnSpec,
    RandomRelationSpec,
    UpdateStreamSpec,
    generate_relation_rows,
    generate_update_stream,
)
from repro.workloads.uis import load_uis  # noqa: E402

#: ``load_uis`` scale: POSITION 8,385 rows, EMPLOYEE 4,997, variants
#: ``POSITION_8000`` … ``POSITION_74000`` = 800 … 7,400 rows.
UIS_SCALE = 0.1
TEMP_PREFIX = "TANGO_TMP"


def tango_config(tracing: bool) -> TangoConfig:
    """Defaults only; the traced twin differs in ``tracing`` alone."""
    return TangoConfig(tracing=True) if tracing else TangoConfig()


def timed(call):
    """``call()`` → (seconds, its return value)."""
    begin = time.perf_counter()
    value = call()
    return time.perf_counter() - begin, value


def leaked_temp_tables(db: MiniDB) -> list[str]:
    return [
        name for name in db.list_tables() if name.upper().startswith(TEMP_PREFIX)
    ]


def sorted_on(result, columns: tuple[str, ...]) -> bool:
    """True when *result*'s rows are non-decreasing on *columns*."""
    names = [name.lower() for name in result.schema.names]
    positions = [names.index(column.lower()) for column in columns]
    previous = None
    for row in result.rows:
        key = tuple(row[position] for position in positions)
        if previous is not None and key < previous:
            return False
        previous = key
    return True


@dataclass(frozen=True)
class Step:
    """One query of an operation.

    ``kind`` is ``"run"`` (``Tango.run`` of temporal SQL or an initial
    plan: the optimizer chooses), ``"forced"`` (``execute_plan`` of a
    hand-built plan) or ``"direct"`` (non-temporal SQL passed through).
    """

    kind: str
    query: object
    label: str
    #: Columns the result must arrive sorted on (the query's ORDER BY).
    order_by: tuple[str, ...] = ()
    #: ``forced``: the all-DBMS initial plan whose rows are the truth.
    #: Or, for any kind: a callable ``db -> rows`` computing them without
    #: the program's query engines.
    oracle: object = None


@dataclass
class Verdict:
    """What the oracle found, outside the timed rounds."""

    checked: int
    problems: list[str]
    #: op key → the row counts a correct operation returns.
    expected: dict


class Workload:
    """One benchmark workload.  Subclasses fill in the blanks."""

    name = ""
    why = ""
    size = ""
    #: Closed-loop client threads.
    clients = 1
    #: Length of one timed round, and reference-kernel samples taken at
    #: each of its ends.
    round_seconds = 0.25
    ref_samples = 1
    #: "warm" (hit ratio >= 0.99), "cold" (hit ratio == 0) or None.
    plan_cache: str | None = "warm"
    #: Operations in the counted pass (a fixed prefix, so counts repeat).
    counted_ops = 3
    warm_up_ops = 2

    def __init__(self, seed: int, tracing: bool = False, seconds: float = 15.0):
        self.seed = seed
        self.tracing = tracing
        #: The requested run length (sizes finite input streams).
        self.seconds = seconds
        #: View refreshes so far by the strategy that ran (view workloads).
        self.strategies: dict[str, int] = {}

    # -- lifecycle ----------------------------------------------------------------
    def setup(self) -> None:
        """Generate and load the data, build the middleware, warm up."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """The last step of set-up.  Negative indices: the operations just
        before index 0 of the cycle, so a cold cycle longer than the plan
        cache stays cold when the measured passes start at 0."""
        for index in range(-self.warm_up_ops, 0):
            self.op(index)

    def close(self) -> list[str]:
        """Release everything; returns leaks found (each is a failed op)."""
        self.tango.close()
        return [f"leaked temp table {name}" for name in leaked_temp_tables(self.db)]

    # -- operations ---------------------------------------------------------------
    def op(self, index: int, client: int = 0):
        """One untraced operation → ``(results, latency or None)``; a None
        latency means "use the caller's wall-clock measurement"."""
        raise NotImplementedError

    def staged_op(self, index: int, recorder, client: int = 0):
        """The same operation through the staged driver, with a span around
        every public call → ``(results, latency or None)`` like :meth:`op`."""
        raise NotImplementedError

    def op_key(self, index: int, client: int = 0):
        """Which expected row-count signature operation *index* must match
        (None: not checked per op)."""
        return 0

    def verify(self) -> Verdict:
        raise NotImplementedError

    # -- readings -----------------------------------------------------------------
    def ticks(self) -> tuple[int, int]:
        """(DBMS meter ticks, middleware meter ticks) so far."""
        return self.db.meter.ticks, self.tango.middleware_meter.ticks

    def registry(self):
        """The metrics registry the workload's queries report into."""
        return self.tango.metrics

    def counters(self) -> dict:
        return dict(self.registry().to_dict().get("counters", {}))

    def histograms(self) -> dict:
        return dict(self.registry().to_dict().get("histograms", {}))

    @property
    def exhausted(self) -> bool:
        """True when the workload has no further operation to offer."""
        return False

    def scratch_tango(self) -> Tango:
        """A second default-config middleware over the same database, for
        calls no workload makes (``calibrate``, ``refresh_statistics``)."""
        return Tango(self.db)

    def plan_digest(self) -> str:
        """Digest of every chosen plan's rendering (``bench check``)."""
        raise NotImplementedError

    def explain_reports(self, index: int) -> list:
        """``(plain seconds, explain seconds, report)`` for each query of
        operation *index* that ``explain_analyze`` can instrument."""
        return []

    def regret(self) -> float:
        """ticks(chosen plans) ÷ min ticks over the paper's enumerated
        plans; 0 where the paper enumerates none."""
        return 0.0

    def layer_extras(self, ops: int, base_ms: float, layer: dict) -> dict:
        """Per-layer metrics only this workload can measure; *layer* holds
        what the traced pass has found so far, *base_ms* the untraced op p50."""
        return {}


def signature(results) -> tuple[int, ...]:
    return tuple(len(result.rows) for result in results)


def digest_of(plans) -> str:
    digest = hashlib.sha256()
    for plan in plans:
        digest.update(str(plan).encode())
        digest.update(b"\x00")
    return digest.hexdigest()


# ------------------------------------------------------------------------------------
# Query-list workloads over the UIS data
# ------------------------------------------------------------------------------------


class QueryListWorkload(Workload):
    """An operation is one pass over a fixed list of steps."""

    #: Distinct operations before the cycle repeats.
    cycle = 1

    def setup(self) -> None:
        self.db = MiniDB()
        load_uis(self.db, scale=UIS_SCALE, seed=self.seed)
        self.tango = Tango(self.db, tango_config(self.tracing))
        self.ops_steps = self.build_ops()
        assert len(self.ops_steps) == self.cycle
        self.warm_up()

    def build_ops(self) -> list[list[Step]]:
        raise NotImplementedError

    def steps(self, index: int) -> list[Step]:
        return self.ops_steps[index % self.cycle]

    def op_key(self, index: int, client: int = 0):
        return index % self.cycle

    def _do(self, step: Step):
        if step.kind == "forced":
            return self.tango.execute_plan(step.query)
        return self.tango.run(step.query)

    def op(self, index: int, client: int = 0):
        return [self._do(step) for step in self.steps(index)], None

    def staged_op(self, index: int, recorder, client: int = 0):
        tango = self.tango
        cold = self.plan_cache == "cold"
        optimize_span = "optimizer.optimize" if cold else "core.plan_cache.hit"
        results = []
        with recorder.span("op", index):
            for step in self.steps(index):
                if step.kind == "forced":
                    with recorder.span("core.engine.execute", index):
                        results.append(tango.execute_plan(step.query))
                elif step.kind == "direct":
                    with recorder.span("dbms.direct_sql", index):
                        results.append(tango.run(step.query))
                else:
                    query = step.query
                    if cold and isinstance(query, str):
                        # A miss parses inside optimize(); parsing first
                        # and optimizing the plan does the same work in
                        # two spans.
                        with recorder.span("core.parser.parse", index):
                            query = tango.parse(query)
                    with recorder.span(optimize_span, index):
                        optimization = tango.optimize(query)
                    with recorder.span("core.engine.execute", index):
                        results.append(tango.execute_plan(optimization.plan))
        return results, None

    def _truth(self, step: Step) -> list[tuple]:
        if callable(step.oracle):
            return step.oracle(self.db)
        if step.kind == "forced":
            initial = step.oracle
        elif isinstance(step.query, str):
            initial = self.tango.parse(step.query)
        else:
            initial = step.query
        return self.tango.execute_plan(initial).rows

    def verify(self) -> Verdict:
        problems: list[str] = []
        expected: dict = {}
        checked = 0
        for key, steps in enumerate(self.ops_steps):
            counts = []
            for step in steps:
                checked += 1
                chosen = self._do(step)
                truth = self._truth(step)
                counts.append(len(truth))
                if canonical_rows(chosen.rows) != canonical_rows(truth):
                    problems.append(
                        f"{step.label}: rows differ from the all-DBMS initial plan "
                        f"({len(chosen.rows)} vs {len(truth)} rows)"
                    )
                elif step.order_by and not sorted_on(chosen, step.order_by):
                    problems.append(f"{step.label}: not sorted on {step.order_by}")
            expected[key] = tuple(counts)
        return Verdict(checked, problems, expected)

    def plan_digest(self) -> str:
        return digest_of(
            self.tango.optimize(step.query).plan if step.kind == "run" else step.query
            for steps in self.ops_steps
            for step in steps
            if step.kind != "direct"
        )

    def explain_reports(self, index: int) -> list:
        reports = []
        for step in self.steps(index):
            if step.kind == "run":
                # Plan it first: both timed calls then hit the plan cache,
                # on the cold workload too.
                self.tango.optimize(step.query)
                plain, _ = timed(lambda: self.tango.run(step.query))
                explained, report = timed(lambda: self.tango.explain_analyze(step.query))
                reports.append((plain, explained, report))
        return reports

    def _ticks_of(self, plan=None, sql=None) -> int:
        """Meter ticks of executing one enumerated plan (or hinted SQL)."""
        before = sum(self.ticks())
        if plan is not None:
            self.tango.execute_plan(plan)
        else:
            self.db.execute(sql).fetchall()
        return sum(self.ticks()) - before

    def _regret_over(self, cases) -> float:
        """*cases*: (query the optimizer is given, the enumerated PlanSpecs)."""
        chosen = best = 0
        for query, specs in cases:
            chosen += self._ticks_of(plan=self.tango.optimize(query).plan)
            best += min(self._ticks_of(spec.plan, spec.sql) for spec in specs)
        return chosen / best if best else 0.0


class TaggrScan(QueryListWorkload):
    name = "taggr_scan"
    why = (
        "Query 1, warm plan cache: TAGGR^M + one TRANSFER^M do all the work, "
        "optimizer ~0; where a cursor-protocol change must show"
    )
    size = "POSITION 8,385 rows -> ~14,300 result rows/op"

    def build_ops(self):
        return [[Step("run", queries.query1_sql(), "Q1", order_by=("PosID",))]]

    def regret(self) -> float:
        return self._regret_over(
            [(queries.query1_sql(), queries.query1_plans(self.db))]
        )


class TjoinRoundtrip(QueryListWorkload):
    name = "tjoin_roundtrip"
    why = (
        "Q2+Q3 chosen plans and forced Q2-P1 (TAGGR^M -> TRANSFER^D -> DBMS "
        "join): TJOIN/SORT/PROJECT/FILTER^M chains, temp-table load and drop"
    )
    size = "POSITION_17000 = 1,700 rows; 3 queries/op"
    TABLE = "POSITION_17000"
    Q2_END = "1996-01-01"
    Q3_BOUND = "1998-01-01"

    def build_ops(self):
        db, table = self.db, self.TABLE
        q2 = queries.query2_initial_plan(db, self.Q2_END, table)
        q3 = queries.query3_initial_plan(db, self.Q3_BOUND, table)
        q2_p1 = queries.query2_plans(db, self.Q2_END, table)[0].plan
        return [
            [
                Step("run", q2, "Q2", order_by=("PosID",)),
                Step("run", q3, "Q3", order_by=("PosID",)),
                Step("forced", q2_p1, "Q2-P1", order_by=("PosID",), oracle=q2),
            ]
        ]

    def regret(self) -> float:
        db, table = self.db, self.TABLE
        steps = self.ops_steps[0]
        return self._regret_over(
            [
                (steps[0].query, queries.query2_plans(db, self.Q2_END, table)),
                (steps[1].query, queries.query3_plans(db, self.Q3_BOUND, table)),
            ]
        )


PASSTHROUGH_SQL = (
    "SELECT PosID, EmpID, T1, T2 FROM POSITION WHERE PayRate > 10 ORDER BY PosID"
)
#: Query 4 as the regular SQL a client would send: passed through untouched.
Q4_SQL = (
    "SELECT P.PosID, E.EmpName, E.Address FROM POSITION P, EMPLOYEE E "
    "WHERE P.EmpID = E.EmpID"
)


def columns_of(db: MiniDB, table: str, *columns: str) -> list[int]:
    names = [name.lower() for name in db.schema_of(table).names]
    return [names.index(column.lower()) for column in columns]


def passthrough_truth(db: MiniDB) -> list[tuple]:
    """The passthrough's rows computed without the SQL engine."""
    pos, emp, pay, t1, t2 = columns_of(db, "POSITION", "PosID", "EmpID", "PayRate", "T1", "T2")
    return [
        (row[pos], row[emp], row[t1], row[t2])
        for row in db.table("POSITION").rows
        if row[pay] > 10
    ]


def query4_truth(db: MiniDB) -> list[tuple]:
    """Query 4's rows by a dictionary join, without either query engine."""
    emp_id, name, address = columns_of(db, "EMPLOYEE", "EmpID", "EmpName", "Address")
    employees: dict = {}
    for row in db.table("EMPLOYEE").rows:
        employees.setdefault(row[emp_id], []).append((row[name], row[address]))
    pos, emp = columns_of(db, "POSITION", "PosID", "EmpID")
    return [
        (row[pos], *employee)
        for row in db.table("POSITION").rows
        for employee in employees.get(row[emp], ())
    ]


class RegularDbms(QueryListWorkload):
    name = "regular_dbms"
    why = (
        "Q4 regular join as its all-DBMS plan (a lone T^M) + one SQL "
        "passthrough: MiniDB SQL, jdbc fetch, engine drain do it all; "
        "bypasses xxl and optimizer"
    )
    size = "POSITION 8,385 x EMPLOYEE 4,997 rows; 2 queries/op"
    #: No operation consults the optimizer: Query 4 runs as its initial plan,
    #: because the optimizer's pick between the two join orders rests on a
    #: 5 us cost tie that flips from one data seed to the next (16 % in ticks).
    plan_cache = None

    def build_ops(self):
        return [
            [
                Step(
                    "forced",
                    queries.query4_initial_plan(self.db),
                    "Q4",
                    oracle=query4_truth,
                ),
                Step(
                    "direct",
                    PASSTHROUGH_SQL,
                    "passthrough",
                    order_by=("PosID",),
                    oracle=passthrough_truth,
                ),
            ]
        ]

    def regret(self) -> float:
        return self._regret_over(
            [(self.ops_steps[0][0].query, queries.query4_plans(self.db))]
        )


class AdhocCold(QueryListWorkload):
    name = "adhoc_cold"
    why = (
        "112 distinct small queries cycled through the 64-entry LRU plan "
        "cache: every query misses, so parse + memo + costing + stats "
        "outweigh execution"
    )
    size = "POSITION_8000 = 800 rows; 16 blocks x 7 queries"
    plan_cache = "cold"
    TABLE = "POSITION_8000"
    BLOCKS = 16
    cycle = BLOCKS
    #: One full cycle, so the counted pass sees every query once.
    counted_ops = BLOCKS

    def build_ops(self):
        table = self.TABLE
        rng = random.Random(f"bench.adhoc_cold:{self.seed}")
        blocks_n = self.BLOCKS

        def stratified(low: int, step: int) -> list[int]:
            """3 literals per block, one from each third of the range, each
            a random point of its own cell: every literal is distinct and
            every block and every seed sees the same spread of selectivities."""
            cells = []
            for third in range(3):
                order = list(range(blocks_n))
                rng.shuffle(order)
                cells.append(order)
            return [
                low + step * (third * blocks_n + cells[third][block]) + rng.randrange(step)
                for block in range(blocks_n)
                for third in range(3)
            ]

        taggr_rates = stratified(800, 16)  # PayRate > 8.00 .. 15.67
        tjoin_rates = stratified(2800, 8)  # PayRate > 28.00 .. 31.83
        # One Query 2 per block, its window ending in its own 3-week cell of 1996.
        order = list(range(blocks_n))
        rng.shuffle(order)
        end_dates = []
        for cell in order:
            day = cell * 21 + rng.randrange(21)  # 0 .. 335
            end_dates.append(f"1996-{day // 28 + 1:02d}-{day % 28 + 1:02d}")
        blocks = []
        for block in range(self.BLOCKS):
            steps = []
            for rate in taggr_rates[3 * block: 3 * block + 3]:
                steps.append(
                    Step(
                        "run",
                        f"VALIDTIME SELECT PosID, COUNT(PosID) FROM {table} "
                        f"WHERE PayRate > {rate / 100:.2f} "
                        "GROUP BY PosID ORDER BY PosID",
                        f"taggr>{rate / 100:.2f}",
                        order_by=("PosID",),
                    )
                )
            for rate in tjoin_rates[3 * block: 3 * block + 3]:
                steps.append(
                    Step(
                        "run",
                        f"VALIDTIME SELECT P.PosID, P.EmpName, Q.EmpName "
                        f"FROM {table} P, {table} Q WHERE P.PosID = Q.PosID "
                        f"AND P.PayRate > {rate / 100:.2f} ORDER BY P.PosID",
                        f"tjoin>{rate / 100:.2f}",
                        order_by=("PosID",),
                    )
                )
            steps.append(
                Step(
                    "run",
                    queries.query2_initial_plan(self.db, end_dates[block], table),
                    f"Q2<{end_dates[block]}",
                    order_by=("PosID",),
                )
            )
            blocks.append(steps)
        return blocks


# ------------------------------------------------------------------------------------
# view_churn: writes beside reads
# ------------------------------------------------------------------------------------

DIM_SCHEMA = Schema(
    [
        Attribute("K0", AttrType.INT),
        Attribute("T1", AttrType.DATE),
        Attribute("T2", AttrType.DATE),
    ]
)


class ViewChurn(Workload):
    name = "view_churn"
    why = (
        "2%-churn update batch, refresh a temporal-join view and a TAGGR "
        "view, read one: writes beside reads, the same xxl/loader/stats code "
        "driven by deltas"
    )
    size = "BASE 10,000 x DIM 1,000 rows; 200 changed rows/op"
    #: Every update moves the statistics epoch, so hits are not asserted.
    plan_cache = None
    BASE_ROWS = 10_000
    KEYS = 1_000
    CHURN = 0.02
    #: Update batches generated per second of requested run time; an op
    #: consumes one, and a pass that runs out simply stops early.
    BATCHES_PER_SECOND = 45
    VA_SQL = "VALIDTIME SELECT K0, COUNT(K0) FROM BASE GROUP BY K0 ORDER BY K0"
    READ_SQL = "SELECT K0, T1, T2 FROM VA WHERE K0 < 50"
    counted_ops = 20

    def _spec(self) -> RandomRelationSpec:
        return RandomRelationSpec(
            name="BASE",
            columns=(ColumnSpec("K0", AttrType.INT, distinct=self.KEYS),),
            cardinality=self.BASE_ROWS,
            window_start=0,
            window_end=365,
            max_duration=30,
            skew=0.5,
            seed=self.seed,
        )

    def _vj_plan(self):
        return (
            scan(self.db, "BASE")
            .temporal_join(scan(self.db, "DIM").build(), "K0", "K0")
            .to_middleware()
            .build()
        )

    def setup(self) -> None:
        spec = self._spec()
        self.db = MiniDB()
        loader = DirectPathLoader(self.db)
        loader.load(spec.name, spec.schema, generate_relation_rows(spec), temporary=False)
        # One wide-period dimension row per key: every fact row matches once.
        loader.load(
            "DIM", DIM_SCHEMA, [(key, 0, 365) for key in range(self.KEYS)], temporary=False
        )
        self.db.analyze("BASE")
        self.db.analyze("DIM")
        self.tango = Tango(self.db, tango_config(self.tracing))
        self.tango.create_view("VJ", self._vj_plan())
        self.tango.create_view("VA", self.VA_SQL)
        self.batches = generate_update_stream(
            spec,
            UpdateStreamSpec(
                batches=max(150, int(self.BATCHES_PER_SECOND * self.seconds)),
                churn=self.CHURN,
                insert_fraction=0.5,
                seed=self.seed,
            ),
        )
        self.next_batch = 0
        self.warm_up()

    @property
    def exhausted(self) -> bool:
        return self.next_batch >= len(self.batches)

    def _take(self):
        batch = self.batches[self.next_batch]
        self.next_batch += 1
        return batch

    def _note(self, outcome) -> None:
        self.strategies[outcome.strategy] = self.strategies.get(outcome.strategy, 0) + 1

    def op(self, index: int, client: int = 0):
        tango = self.tango
        batch = self._take()
        tango.apply_updates("BASE", batch.inserts, batch.deletes)
        self._note(tango.refresh_view("VJ"))
        self._note(tango.refresh_view("VA"))
        return [tango.query(self.READ_SQL)], None

    def staged_op(self, index: int, recorder, client: int = 0):
        tango = self.tango
        batch = self._take()
        with recorder.span("op", index):
            with recorder.span("views.apply_updates", index):
                tango.apply_updates("BASE", batch.inserts, batch.deletes)
            with recorder.span("views.refresh", index):
                self._note(tango.refresh_view("VJ"))
            with recorder.span("views.refresh", index):
                self._note(tango.refresh_view("VA"))
            with recorder.span("views.read", index):
                read = tango.query(self.READ_SQL)
        return [read], None

    def op_key(self, index: int, client: int = 0):
        return None  # the read's size moves with every batch

    def full_refresh(self, explain: bool = False):
        """Apply one batch, then refresh both views by forced recompute;
        returns the two outcomes."""
        batch = self._take()
        self.tango.apply_updates("BASE", batch.inserts, batch.deletes)
        return [
            self.tango.refresh_view(view, strategy="full", explain=explain)
            for view in ("VJ", "VA")
        ]

    def _scratch(self, query) -> list[tuple]:
        plan = self.tango.optimize(query).plan
        return canonical_rows(self.tango.execute_plan(plan).rows)

    def verify(self) -> Verdict:
        problems = []
        stored = {
            view: list(self.db.table(view).rows) for view in ("VJ", "VA")
        }
        if stored["VJ"] != self._scratch(self._vj_plan()):
            problems.append("VJ differs from a scratch recompute")
        if stored["VA"] != self._scratch(self.VA_SQL):
            problems.append("VA differs from a scratch recompute")
        read = self.tango.query(self.READ_SQL).rows
        truth = [row[:3] for row in stored["VA"] if row[0] < 50]
        if canonical_rows(read) != canonical_rows(truth):
            problems.append("the view read differs from the stored VA rows")
        return Verdict(3, problems, {})

    def plan_digest(self) -> str:
        return digest_of(
            self.tango.optimize(query).plan for query in (self._vj_plan(), self.VA_SQL)
        )

    def layer_extras(self, ops: int, base_ms: float, layer: dict) -> dict:
        counters = self.counters()
        refreshes = counters.get("view_refreshes", 0)
        extras = {
            "views.incremental_ratio": (
                counters.get("view_refresh_incremental", 0) / refreshes if refreshes else 0.0
            ),
            "views.fallbacks": float(counters.get("view_refresh_fallbacks", 0)),
            "views.delta_rows_per_refresh": self.histograms()
            .get("view_delta_rows", {})
            .get("mean", 0.0),
        }
        # One forced recompute of both views: what the chooser saves.
        full_ms = sum(outcome.elapsed_seconds for outcome in self.full_refresh()) * 1e3
        extras["views.full_refresh_ms"] = full_ms
        if layer["views.refresh_ms"]:
            extras["views.refresh_speedup_x"] = full_ms / layer["views.refresh_ms"]
        return extras

    def explain_reports(self, index: int) -> list:
        # Incremental refreshes evaluate deltas in memory and publish no
        # operator rows; a forced recompute does.
        if index or self.exhausted:
            return []
        return [
            (0.0, 0.0, outcome.report)
            for outcome in self.full_refresh(explain=True)
            if outcome.report is not None
        ]


# ------------------------------------------------------------------------------------
# service_mix: the only workload with a queue, a pool and GIL contention
# ------------------------------------------------------------------------------------


class ServiceMix(Workload):
    name = "service_mix"
    why = (
        "Q1-Q4 sessions through QueryService: worker pool, fair-share queue, "
        "GIL contention; a faster layer can save more or less than inline"
    )
    size = "Q1 8,385 rows, Q2+Q4 1,700, Q3 800; 2 workers, 4 clients"
    #: Clients pause between rounds, so the reference kernel between rounds
    #: still times an idle machine; rounds are longer than a session.
    round_seconds = 2.0
    ref_samples = 3
    counted_ops = 2

    def __init__(self, seed: int, tracing: bool = False, seconds: float = 15.0):
        super().__init__(seed, tracing, seconds)
        self.workers = min(2, os.cpu_count() or 1)
        #: Twice the workers, so half the submissions wait in the queue.
        self.clients = 2 * self.workers

    def setup(self) -> None:
        self.db = MiniDB()
        load_uis(self.db, scale=UIS_SCALE, seed=self.seed)
        db = self.db
        # The scan-heavy Query 1 takes the full relation and the self-join
        # the smallest variant: the join's result size is quadratic in the
        # hot keys' group sizes, which differ from one data seed to the next,
        # and it must not dominate the session.
        self.mix = [
            queries.query1_sql(),
            queries.query2_initial_plan(db, "1996-01-01", "POSITION_17000"),
            queries.query3_initial_plan(db, "1998-01-01", "POSITION_8000"),
            # As regular SQL: submitted as an initial plan, Query 4's join
            # order flips between data seeds (see RegularDbms).
            Q4_SQL.replace("POSITION", "POSITION_17000"),
        ]
        self.service = QueryService(
            db,
            ServiceConfig(
                max_concurrency=self.workers,
                queue_limit=16,
                tenants=(TenantSpec("a", weight=2), TenantSpec("b", weight=1)),
            ),
            tango_config=tango_config(self.tracing),
        )
        #: Queue waits of the staged pass (list.append is atomic).
        self.staged_waits: list[float] = []
        #: The inline twin: the oracle, and the base of ``service.overhead_x``.
        self.inline = Tango(db, tango_config(False))
        self.warm_up()
        #: Completions before any measured pass (the warm-up's, all tenant a).
        self.warm_counters = self.counters()

    def warm_up(self) -> None:
        # Every worker must have planned every query, and a submission cannot
        # name its worker: queue each query twice per worker at one moment,
        # so that no worker can drain the queue alone, until a whole pass
        # adds no plan-cache miss.
        for _ in range(5):
            misses = self.counters().get("plan_cache_misses", 0)
            for query in self.mix:
                handles = [
                    self.service.submit(query, tenant="a")
                    for _ in range(2 * self.workers)
                ]
                for handle in handles:
                    handle.result(timeout=60.0)
            if self.counters().get("plan_cache_misses", 0) == misses:
                break

    def tenant(self, client: int) -> str:
        return "a" if client % 2 == 0 else "b"

    def session(self, client: int) -> list:
        """The four queries in the order *client* sends them: every session
        holds the same work, and the clients are one query out of step."""
        return [self.mix[(position + client) % len(self.mix)] for position in range(len(self.mix))]

    def op(self, index: int, client: int = 0):
        # One session: a per-query series would have four modes and a median
        # that falls between them.
        results, latency = [], 0.0
        for query in self.session(client):
            handle = self.service.submit(query, tenant=self.tenant(client))
            results.append(handle.result(timeout=60.0))
            latency += handle.total_seconds
        return results, latency

    def staged_op(self, index: int, recorder, client: int = 0):
        results, latency = [], 0.0
        with recorder.span("op", index):
            for query in self.session(client):
                with recorder.span("service.submit", index):
                    handle = self.service.submit(query, tenant=self.tenant(client))
                with recorder.span("service.result", index):
                    results.append(handle.result(timeout=60.0))
                latency += handle.total_seconds
                self.staged_waits.append(handle.queue_seconds)
        return results, latency

    def op_key(self, index: int, client: int = 0):
        return client % len(self.mix)

    def verify(self) -> Verdict:
        # The truth here is the inline middleware: Q1-Q4 against their
        # all-DBMS initial plans are the other workloads' oracles.
        problems = []
        counts = []
        for number, query in enumerate(self.mix, start=1):
            served = self.service.submit(query, tenant="a").result(timeout=60.0)
            inline = self.inline.run(query)
            counts.append(len(inline.rows))
            if canonical_rows(served.rows) != canonical_rows(inline.rows):
                problems.append(f"Q{number}: service rows differ from inline Tango.run")
        expected = {
            client: tuple(counts[(position + client) % len(counts)] for position in range(len(counts)))
            for client in range(len(counts))
        }
        return Verdict(len(self.mix), problems, expected)

    def close(self) -> list[str]:
        self.service.close()
        self.inline.close()
        leaks = [f"leaked temp table {name}" for name in leaked_temp_tables(self.db)]
        if self.service.pool.in_use:
            leaks.append(f"{self.service.pool.in_use} pooled connections still in use")
        return leaks

    def ticks(self) -> tuple[int, int]:
        # Worker middleware meters are private to the service; the DBMS
        # meter is shared and is what this workload reports.
        return self.db.meter.ticks, 0

    def registry(self):
        return self.service.metrics

    def plan_digest(self) -> str:
        return digest_of(self.inline.optimize(query).plan for query in self.mix[:3])

    def explain_reports(self, index: int) -> list:
        reports = []
        for query in self.mix[:3]:  # the fourth is not temporal
            plain, _ = timed(lambda: self.inline.run(query))
            explained, report = timed(lambda: self.inline.explain_analyze(query))
            reports.append((plain, explained, report))
        return reports

    def layer_extras(self, ops: int, base_ms: float, layer: dict) -> dict:
        extras = {}
        if self.staged_waits:
            extras["service.queue_wait_p50_ms"] = stats.percentile(self.staged_waits, 0.5) * 1e3
            extras["service.queue_wait_p90_ms"] = stats.percentile(self.staged_waits, 0.9) * 1e3
        # The same session inline, one query at a time: what the service adds.
        inline = [
            timed(lambda: [self.inline.run(query) for query in self.mix])[0]
            for _ in range(min(ops, 9))
        ]
        if inline and base_ms:
            extras["service.overhead_x"] = base_ms / (stats.percentile(inline, 0.5) * 1e3)
        served = self.counters()

        def completed(tenant: str) -> int:
            name = f"service_completed_total.{tenant}"
            return served.get(name, 0) - self.warm_counters.get(name, 0)

        if completed("b"):
            extras["service.fairness_ratio"] = completed("a") / completed("b")
        extras["service.shed"] = float(served.get("service_shed_total", 0))
        return extras


WORKLOADS = {
    cls.name: cls
    for cls in (TaggrScan, TjoinRoundtrip, RegularDbms, AdhocCold, ViewChurn, ServiceMix)
}


def make(name: str, seed: int, tracing: bool = False, seconds: float = 15.0) -> Workload:
    return WORKLOADS[name](seed, tracing, seconds)
