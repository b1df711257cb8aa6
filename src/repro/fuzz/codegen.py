"""Turning a shrunk failure into a standalone pytest module.

The emitted reproducer depends only on stable public pieces — operator
constructors, ``MiniDB``, and :func:`repro.fuzz.oracle.execute_with_config`
— and embeds everything else literally: schemas, rows, both plan trees,
and the execution configuration.  It deliberately does *not* re-run the
optimizer: a reproducer must keep failing (or start passing) because of
the engine, not because plan extraction drifted.
"""

from __future__ import annotations

from repro.algebra.expressions import (
    And,
    BinOp,
    ColumnRef,
    Comparison,
    Expression,
    FuncCall,
    Literal,
    Not,
    Or,
)
from repro.algebra.operators import (
    Coalesce,
    Dedup,
    Difference,
    Join,
    Operator,
    Product,
    Project,
    Scan,
    Select,
    Sort,
    TemporalAggregate,
    TemporalJoin,
    TransferD,
    TransferM,
)
from repro.algebra.properties import guaranteed_order
from repro.algebra.schema import Schema

_INDENT = "    "


def expr_to_code(expr: Expression) -> str:
    """Python source that reconstructs *expr*."""
    if isinstance(expr, ColumnRef):
        return f"ColumnRef({expr.name!r})"
    if isinstance(expr, Literal):
        return f"Literal({expr.value!r})"
    if isinstance(expr, Comparison):
        return (
            f"Comparison({expr.op!r}, {expr_to_code(expr.left)}, "
            f"{expr_to_code(expr.right)})"
        )
    if isinstance(expr, BinOp):
        return (
            f"BinOp({expr.op!r}, {expr_to_code(expr.left)}, "
            f"{expr_to_code(expr.right)})"
        )
    if isinstance(expr, And):
        inner = ", ".join(expr_to_code(term) for term in expr.terms)
        return f"And(({inner},))"
    if isinstance(expr, Or):
        inner = ", ".join(expr_to_code(term) for term in expr.terms)
        return f"Or(({inner},))"
    if isinstance(expr, Not):
        return f"Not({expr_to_code(expr.term)})"
    if isinstance(expr, FuncCall):
        inner = ", ".join(expr_to_code(arg) for arg in expr.args)
        return f"FuncCall({expr.name!r}, ({inner},))" if expr.args else (
            f"FuncCall({expr.name!r}, ())"
        )
    raise TypeError(f"no code emitter for expression {type(expr).__name__}")


def plan_to_code(plan: Operator, depth: int = 0) -> str:
    """Python source that reconstructs *plan* (nested, indented)."""
    pad = _INDENT * (depth + 1)
    close = _INDENT * depth

    def nest(child: Operator) -> str:
        return plan_to_code(child, depth + 1)

    if isinstance(plan, Scan):
        return f"Scan({plan.table!r}, SCHEMA_{plan.table})"
    loc = f"Location.{plan.location.name}"
    if isinstance(plan, TransferM):
        return f"TransferM(\n{pad}{nest(plan.input)},\n{close})"
    if isinstance(plan, TransferD):
        return f"TransferD(\n{pad}{nest(plan.input)},\n{close})"
    if isinstance(plan, Select):
        return (
            f"Select(\n{pad}{nest(plan.input)},\n{pad}{loc},\n"
            f"{pad}{expr_to_code(plan.predicate)},\n{close})"
        )
    if isinstance(plan, Project):
        pairs = ", ".join(
            f"({name!r}, {expr_to_code(expression)})"
            for name, expression in plan.outputs
        )
        return (
            f"Project(\n{pad}{nest(plan.input)},\n{pad}{loc},\n"
            f"{pad}({pairs},),\n{close})"
        )
    if isinstance(plan, Sort):
        return (
            f"Sort(\n{pad}{nest(plan.input)},\n{pad}{loc},\n"
            f"{pad}{plan.keys!r},\n{close})"
        )
    if isinstance(plan, Dedup):
        return f"Dedup(\n{pad}{nest(plan.input)},\n{pad}{loc},\n{close})"
    if isinstance(plan, Coalesce):
        return (
            f"Coalesce(\n{pad}{nest(plan.input)},\n{pad}{loc},\n"
            f"{pad}{plan.period!r},\n{close})"
        )
    if isinstance(plan, TemporalAggregate):
        aggregates = ", ".join(
            f"AggregateSpec({spec.func!r}, {spec.attribute!r}, {spec.output!r})"
            for spec in plan.aggregates
        )
        return (
            f"TemporalAggregate(\n{pad}{nest(plan.input)},\n{pad}{loc},\n"
            f"{pad}{plan.group_by!r},\n{pad}({aggregates},),\n"
            f"{pad}{plan.period!r},\n{close})"
        )
    if isinstance(plan, Join):
        residual = (
            expr_to_code(plan.residual) if plan.residual is not None else "None"
        )
        return (
            f"Join(\n{pad}{nest(plan.left)},\n{pad}{nest(plan.right)},\n"
            f"{pad}{loc},\n{pad}{plan.left_attr!r},\n{pad}{plan.right_attr!r},\n"
            f"{pad}{residual},\n{close})"
        )
    if isinstance(plan, TemporalJoin):
        return (
            f"TemporalJoin(\n{pad}{nest(plan.left)},\n{pad}{nest(plan.right)},\n"
            f"{pad}{loc},\n{pad}{plan.left_attr!r},\n{pad}{plan.right_attr!r},\n"
            f"{pad}{plan.period!r},\n{close})"
        )
    if isinstance(plan, (Product, Difference)):
        kind = type(plan).__name__
        return (
            f"{kind}(\n{pad}{nest(plan.left)},\n{pad}{nest(plan.right)},\n"
            f"{pad}{loc},\n{close})"
        )
    raise TypeError(f"no code emitter for operator {type(plan).__name__}")


def schema_to_code(schema: Schema) -> str:
    attributes = ", ".join(
        f"Attribute({attribute.name!r}, AttrType.{attribute.type.name})"
        for attribute in schema
    )
    return f"Schema([{attributes}])"


def rows_to_code(rows: list[tuple]) -> str:
    if not rows:
        return "[]"
    body = "\n".join(f"{_INDENT}{tuple(row)!r}," for row in rows)
    return f"[\n{body}\n]"


def config_to_code(config) -> str:
    text = (
        f"ExecConfig(workers={config.workers}, "
        f"chaos={config.chaos}, chaos_p={config.chaos_p}, "
        f"chaos_seed={config.chaos_seed}"
    )
    if getattr(config, "adaptive", False):
        text += ", adaptive=True"
    return text + ")"


def updates_to_code(updates) -> str:
    """Python source for an update stream: ``[(inserts, deletes), ...]``."""
    if not updates:
        return "[]"
    lines = []
    for batch in updates:
        inserts = ", ".join(f"{tuple(row)!r}" for row in batch.inserts)
        deletes = ", ".join(f"{tuple(row)!r}" for row in batch.deletes)
        lines.append(f"{_INDENT}([{inserts}], [{deletes}]),")
    return "[\n" + "\n".join(lines) + "\n]"


def emit_pytest(
    tables: list[tuple[str, Schema, list[tuple]]],
    baseline_plan: Operator,
    failing_plan: Operator,
    config,
    kind: str,
    message: str,
    strategy,
    test_name: str = "test_fuzz_reproducer",
    updates=None,
    update_table: str | None = None,
) -> str:
    """A complete pytest module reproducing one shrunk failure."""
    is_update_case = bool(strategy) and strategy[0] == "updates" and updates
    header = [
        '"""Auto-generated repro.fuzz reproducer.',
        "",
        f"failure kind: {kind}",
        f"derivation strategy: {strategy}",
    ]
    for line in message.splitlines()[:6]:
        header.append(f"  {line}")
    header.append('"""')
    parts = [
        "\n".join(header),
        "",
        "from repro.algebra.expressions import (",
        "    And, BinOp, ColumnRef, Comparison, FuncCall, Literal, Not, Or,",
        ")",
        "from repro.algebra.operators import (",
        "    AggregateSpec, Coalesce, Dedup, Difference, Join, Location, Product,",
        "    Project, Scan, Select, Sort, TemporalAggregate, TemporalJoin,",
        "    TransferD, TransferM,",
        ")",
        "from repro.algebra.schema import Attribute, AttrType, Schema",
        "from repro.dbms.database import MiniDB",
        "from repro.fuzz.compare import canonical_rows, describe_mismatch, is_sorted_on",
        "from repro.fuzz.oracle import DEFAULT_CONFIG, ExecConfig, execute_with_config",
    ]
    if is_update_case:
        parts.append("from repro.core.tango import Tango")
    parts.append("")
    for name, schema, _rows in tables:
        parts.append(f"SCHEMA_{name} = {schema_to_code(schema)}")
    parts.append("")
    for name, _schema, rows in tables:
        parts.append(f"ROWS_{name} = {rows_to_code(rows)}")
    parts.append("")
    parts.append(f"BASELINE_PLAN = {plan_to_code(baseline_plan)}")
    parts.append("")
    parts.append(f"FAILING_PLAN = {plan_to_code(failing_plan)}")
    parts.append("")
    parts.append(f"CONFIG = {config_to_code(config)}")
    parts.append("")
    if is_update_case:
        parts.append(f"UPDATE_BATCHES = {updates_to_code(updates)}")
        parts.append("")
    body = [
        f"def {test_name}():",
        "    db = MiniDB()",
    ]
    for name, _schema, _rows in tables:
        body.extend(
            [
                f"    db.create_table({name!r}, SCHEMA_{name})",
                f"    db.table({name!r}).bulk_load(ROWS_{name})",
                f"    db.analyze({name!r})",
            ]
        )
    if is_update_case:
        body.extend(
            [
                "    tango = Tango(db, config=CONFIG.tango_config())",
                "    try:",
                '        tango.create_view("FUZZVIEW", FAILING_PLAN)',
                "        for inserts, deletes in UPDATE_BATCHES:",
                f"            tango.apply_updates({update_table!r}, inserts, deletes)",
                '        tango.refresh_view("FUZZVIEW", strategy="incremental")',
                '        stored = list(db.table("FUZZVIEW").rows)',
                "        scratch = tango.execute_plan(tango.optimize(FAILING_PLAN).plan)",
                "        expected = canonical_rows(scratch.rows)",
                "    finally:",
                "        tango.close()",
                "    assert stored == expected, (",
                "        describe_mismatch([tuple(row) for row in expected], stored)",
                "    )",
            ]
        )
    else:
        body.extend(
            [
                "    expected = execute_with_config(db, BASELINE_PLAN, DEFAULT_CONFIG).rows",
                "    actual = execute_with_config(db, FAILING_PLAN, CONFIG).rows",
                "    assert canonical_rows(actual) == canonical_rows(expected), (",
                "        describe_mismatch(expected, actual)",
                "    )",
            ]
        )
        order = tuple(guaranteed_order(failing_plan))
        if order:
            body.extend(
                [
                    f"    declared_order = {order!r}",
                    "    assert is_sorted_on(actual, FAILING_PLAN.schema, declared_order), (",
                    '        f"rows violate the declared order {declared_order}"',
                    "    )",
                ]
            )
    parts.append("\n".join(body))
    parts.append("")
    return "\n".join(parts)
