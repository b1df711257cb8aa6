"""An interactive shell for the temporal middleware.

Usage::

    python -m repro                 # interactive session
    python -m repro script.sql      # execute a ;-separated script
    python -m repro --uis 0.01      # preload the scaled UIS dataset
    python -m repro --trace         # print a span tree after each query
    python -m repro --chaos 0.2     # inject transient DBMS faults (p=0.2)
    python -m repro --chaos-seed 7  # ... deterministically, from seed 7
    python -m repro --deadline 5    # per-query deadline in seconds
    python -m repro --workers 4     # partition-parallel execution (1=serial)

Statements are regular SQL (executed by MiniDB) or temporal SQL
(``VALIDTIME ...``, routed through the TANGO optimizer and execution
engine).  Meta-commands:

    \\tables              list tables with cardinalities
    \\explain <query>     show the chosen plan and its cost breakdown
    \\explain --analyze <query>
                         execute instrumented; estimated vs actual rows/cost
    \\plan <query>        show the execution-ready algorithm sequence
    \\analyze             ANALYZE every table
    \\calibrate           fit cost factors on this machine
    \\timing on|off       toggle per-statement timing
    \\trace on|off        toggle per-statement span trees
    \\metrics             dump the middleware metrics registry, the plan,
                         shape and prepared-plan caches and the kernel
                         code cache
    \\quit                leave
"""

from __future__ import annotations

import sys
import time

from repro.algebra.expressions import kernel_cache_stats
from repro.core.tango import Tango, TangoConfig
from repro.dbms.database import MiniDB
from repro.errors import ReproError

PROMPT = "tango> "
CONTINUATION = "   ..> "


def format_table(names, rows, limit: int = 40) -> str:
    """Align rows under their column names, truncating long results."""
    header = [str(name) for name in names]
    shown = [tuple(str(value) for value in row) for row in rows[:limit]]
    widths = [
        max(len(header[i]), max((len(row[i]) for row in shown), default=0))
        for i in range(len(header))
    ]
    lines = [
        "  ".join(header[i].ljust(widths[i]) for i in range(len(header))),
        "  ".join("-" * widths[i] for i in range(len(header))),
    ]
    for row in shown:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    if len(rows) > limit:
        lines.append(f"... {len(rows) - limit} more rows")
    lines.append(f"({len(rows)} row{'s' if len(rows) != 1 else ''})")
    return "\n".join(lines)


class Shell:
    """Dispatches statements and meta-commands against one Tango instance."""

    def __init__(self, tango: Tango, out=sys.stdout, show_trace: bool = False):
        self.tango = tango
        self.out = out
        self.timing = True
        self.show_trace = show_trace

    def echo(self, text: str = "") -> None:
        print(text, file=self.out)

    # -- dispatch ------------------------------------------------------------------

    def run_line(self, line: str) -> bool:
        """Execute one complete statement or meta-command.

        Returns False when the session should end.
        """
        stripped = line.strip().rstrip(";").strip()
        if not stripped:
            return True
        if stripped.startswith("\\"):
            return self._meta(stripped)
        self._statement(stripped)
        return True

    def _statement(self, sql: str) -> None:
        begin = time.perf_counter()
        try:
            result = self.tango.query(sql)
        except ReproError as error:
            self.echo(f"error: {error}")
            return
        elapsed = time.perf_counter() - begin
        if len(result.schema):
            self.echo(format_table(result.schema.names, result.rows))
        else:
            self.echo("ok")
        if result.degraded:
            self.echo("note: answered via the all-DBMS fallback plan")
        if self.timing:
            note = ""
            if result.estimated_cost is not None:
                note = (
                    f"  [optimizer: {result.class_count} classes, "
                    f"{result.element_count} elements, "
                    f"est {result.estimated_cost:.0f}us]"
                )
            self.echo(f"time: {elapsed:.4f}s{note}")
        if self.show_trace and result.trace is not None:
            self.echo(result.trace.render())

    def _meta(self, command: str) -> bool:
        word, _, argument = command.partition(" ")
        word = word.lower()
        argument = argument.strip()
        if word in ("\\q", "\\quit", "\\exit"):
            return False
        if word == "\\tables":
            for name in self.tango.db.list_tables():
                table = self.tango.db.table(name)
                analyzed = self.tango.db.statistics_of(name) is not None
                self.echo(
                    f"  {name:<24} {table.cardinality:>8} rows"
                    f"{'' if analyzed else '   (not analyzed)'}"
                )
            return True
        if word == "\\explain":
            try:
                if argument.startswith("--analyze"):
                    query = argument[len("--analyze"):].strip()
                    self.echo(str(self.tango.explain_analyze(query)))
                else:
                    self.echo(self.tango.explain(argument))
            except ReproError as error:
                self.echo(f"error: {error}")
            return True
        if word == "\\plan":
            try:
                optimization = self.tango.optimize(argument)
                execution = self.tango.executor.compile(optimization.plan)
                self.echo(execution.describe())
                execution.cleanup()
            except ReproError as error:
                self.echo(f"error: {error}")
            return True
        if word == "\\analyze":
            self.tango.refresh_statistics()
            self.echo(f"analyzed {len(self.tango.db.list_tables())} tables")
            return True
        if word == "\\calibrate":
            factors = self.tango.calibrate()
            self.echo(
                "calibrated: "
                f"p_tmr={factors.p_tmr:.2f}us/row  p_tm={factors.p_tm:.4f}us/B  "
                f"p_taggd1={factors.p_taggd1:.3f}  p_joind={factors.p_joind:.4f}"
            )
            return True
        if word == "\\timing":
            self.timing = argument.lower() != "off"
            self.echo(f"timing {'on' if self.timing else 'off'}")
            return True
        if word == "\\trace":
            self.show_trace = argument.lower() != "off"
            # Tracing needs the tracer recording, whatever the config said.
            self.tango.tracer.enabled = self.show_trace
            self.echo(f"trace {'on' if self.show_trace else 'off'}")
            return True
        if word == "\\metrics":
            self.echo(self.tango.metrics.render())
            for name, stats in (
                ("plan_cache (planner)", self.tango.planner.cache.to_dict()),
                ("shape_cache (planner)", self.tango.planner.shapes.to_dict()),
                ("text_cache (planner)", self.tango.planner.texts.to_dict()),
                ("prepared_plans (database)", self.tango.db.prepared.to_dict()),
                ("kernel_code_cache (process)", kernel_cache_stats()),
            ):
                self.echo(
                    f"  {name:<32} hits={stats['hits']}  "
                    f"misses={stats['misses']}  size={stats['size']}/{stats['max_size']}"
                )
            return True
        if word == "\\help":
            self.echo(__doc__ or "")
            return True
        self.echo(f"unknown command {word!r}; try \\help")
        return True


def split_statements(text: str) -> list[str]:
    """Split script text on ``;`` outside of single-quoted strings."""
    statements: list[str] = []
    current: list[str] = []
    in_string = False
    for char in text:
        if char == "'":
            in_string = not in_string
        if char == ";" and not in_string:
            statements.append("".join(current))
            current = []
        else:
            current.append(char)
    tail = "".join(current).strip()
    if tail:
        statements.append(tail)
    return [statement.strip() for statement in statements if statement.strip()]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    db = MiniDB()
    script_path: str | None = None
    tracing = False
    chaos_p = 0.0
    chaos_seed = 0
    deadline: float | None = None
    workers = 1
    while argv:
        argument = argv.pop(0)
        if argument == "--uis":
            scale = float(argv.pop(0)) if argv and not argv[0].startswith("-") else 0.01
            from repro.workloads.uis import load_uis

            print(f"loading UIS dataset at scale {scale}...")
            load_uis(db, scale=scale)
        elif argument == "--trace":
            tracing = True
        elif argument == "--chaos":
            chaos_p = float(argv.pop(0)) if argv and not argv[0].startswith("-") else 0.2
        elif argument == "--chaos-seed":
            chaos_seed = int(argv.pop(0))
        elif argument == "--deadline":
            deadline = float(argv.pop(0))
        elif argument == "--workers":
            workers = int(argv.pop(0))
        elif argument in ("-h", "--help"):
            print(__doc__)
            return 0
        elif argument.startswith("-"):
            # A mistyped or retired flag is not a script path.
            print(f"unknown option {argument}\n\n{__doc__}", file=sys.stderr)
            return 2
        else:
            script_path = argument

    injector = None
    if chaos_p > 0:
        from repro.resilience import FaultInjector, FaultPolicy

        print(f"chaos mode: transient fault probability {chaos_p} (seed {chaos_seed})")
        injector = FaultInjector(FaultPolicy(transient_p=chaos_p), seed=chaos_seed)
    tango = Tango(
        db,
        config=TangoConfig(
            tracing=tracing,
            deadline_seconds=deadline,
            workers=workers,
        ),
        fault_injector=injector,
    )
    shell = Shell(tango, show_trace=tracing)
    if script_path is not None:
        with open(script_path) as handle:
            for statement in split_statements(handle.read()):
                if not shell.run_line(statement):
                    break
        return 0

    print("TANGO temporal middleware — \\help for commands, \\q to quit.")
    buffer: list[str] = []
    while True:
        try:
            line = input(CONTINUATION if buffer else PROMPT)
        except (EOFError, KeyboardInterrupt):
            print()
            return 0
        if not buffer and line.strip().startswith("\\"):
            if not shell.run_line(line):
                return 0
            continue
        buffer.append(line)
        if line.rstrip().endswith(";"):
            statement = "\n".join(buffer)
            buffer = []
            if not shell.run_line(statement):
                return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
