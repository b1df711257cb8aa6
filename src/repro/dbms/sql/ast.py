"""AST node types for the MiniDB SQL dialect.

Scalar expressions reuse :mod:`repro.algebra.expressions`; column references
may be qualified (``A.PosID``) and are resolved to unqualified schema names
by the planner.  The one SQL-only expression form is :class:`AggregateCall`,
which only the grouping executor may evaluate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.expressions import Expression
from repro.algebra.schema import AttrType, Schema
from repro.errors import ExpressionError


@dataclass(frozen=True, eq=False)
class AggregateCall(Expression):
    """``COUNT(*)``, ``SUM(x)``, … inside a select list or HAVING clause."""

    func: str
    argument: Expression | None  # None means COUNT(*)
    distinct: bool = False

    def _render(self, gen):
        raise ExpressionError(
            f"{self.func} is an aggregate and cannot be evaluated per-row"
        )

    def to_sql(self) -> str:
        arg = "*" if self.argument is None else self.argument.to_sql()
        prefix = "DISTINCT " if self.distinct else ""
        return f"{self.func}({prefix}{arg})"

    def attributes(self) -> frozenset[str]:
        if self.argument is None:
            return frozenset()
        return self.argument.attributes()

    def result_type(self, schema: Schema) -> AttrType:
        if self.func == "COUNT":
            return AttrType.INT
        if self.func == "AVG":
            return AttrType.FLOAT
        assert self.argument is not None
        return self.argument.result_type(schema)

    def children(self) -> tuple[Expression, ...]:
        return () if self.argument is None else (self.argument,)

    def _key(self) -> tuple:
        return (self.func, self.argument, self.distinct)


@dataclass(frozen=True)
class SelectItem:
    """One entry of a select list: an expression and its output alias."""

    expression: Expression
    alias: str | None = None
    #: ``alias.*`` or bare ``*`` expansion marker; expression is ignored then.
    star: str | None = None


@dataclass(frozen=True)
class OrderItem:
    """One ``ORDER BY`` entry."""

    expression: Expression
    ascending: bool = True


@dataclass(frozen=True)
class TableRef:
    """A base-table FROM item, optionally aliased."""

    table: str
    alias: str | None = None

    @property
    def binding(self) -> str:
        return (self.alias or self.table).upper()


@dataclass(frozen=True)
class DerivedTable:
    """A parenthesized subquery in FROM; always aliased."""

    select: "SelectStmt"
    alias: str

    @property
    def binding(self) -> str:
        return self.alias.upper()


@dataclass(frozen=True)
class SelectStmt:
    """A (possibly UNION-chained) SELECT statement."""

    items: tuple[SelectItem, ...]
    from_items: tuple[TableRef | DerivedTable, ...]
    where: Expression | None = None
    group_by: tuple[Expression, ...] = ()
    having: Expression | None = None
    order_by: tuple[OrderItem, ...] = ()
    distinct: bool = False
    hints: tuple[str, ...] = ()
    #: ``(all?, stmt)`` pairs appended with UNION / UNION ALL.
    unions: tuple[tuple[bool, "SelectStmt"], ...] = ()
    limit: int | None = None
    #: ``?`` bind markers in the whole statement (set on the outermost).
    parameters: int = 0


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type: AttrType
    width: int | None = None


@dataclass(frozen=True)
class CreateTableStmt:
    table: str
    columns: tuple[ColumnDef, ...]
    temporary: bool = False


@dataclass(frozen=True)
class CreateIndexStmt:
    index: str
    table: str
    column: str
    clustered: bool = False


@dataclass(frozen=True)
class InsertValuesStmt:
    table: str
    rows: tuple[tuple[Expression, ...], ...]


@dataclass(frozen=True)
class InsertSelectStmt:
    table: str
    select: SelectStmt


@dataclass(frozen=True)
class DeleteStmt:
    table: str
    where: Expression | None = None


@dataclass(frozen=True)
class DropTableStmt:
    table: str
    if_exists: bool = False


@dataclass(frozen=True)
class AnalyzeStmt:
    table: str
    #: "auto", "none", or explicit column names.
    histogram_columns: tuple[str, ...] | str = "auto"


Statement = (
    SelectStmt
    | CreateTableStmt
    | CreateIndexStmt
    | InsertValuesStmt
    | InsertSelectStmt
    | DeleteStmt
    | DropTableStmt
    | AnalyzeStmt
)
