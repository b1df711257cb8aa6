"""Temporal SQL: ``VALIDTIME``-prefixed queries to initial plans.

The dialect follows the sequenced valid-time semantics of ATSQL-style
languages: prefixing a query with ``VALIDTIME`` makes every operation
temporal —

* ``GROUP BY`` + aggregates become **temporal aggregation** (ξ^T);
* joins become **temporal joins** (equi-join + period overlap, result
  period = intersection);
* the period attributes ``T1``/``T2`` are carried implicitly through the
  query and appended to the output when not selected explicitly.

The produced *initial plan* follows Figure 4(a): every operation is
assigned to the DBMS; selections are pushed onto the scans (standard
practice — the optimizer can move them later); a single ``T^M`` on top
delivers the result to the middleware.
"""

from __future__ import annotations

import re

from repro.algebra.expressions import ColumnRef, Comparison, Expression, conjoin, conjuncts
from repro.algebra.operators import (
    AggregateSpec,
    Location,
    Operator,
    Project,
    Scan,
    Select,
    Sort,
    TemporalAggregate,
    TemporalJoin,
    TransferM,
)
from repro.algebra.rewrite import collect, transform
from repro.dbms.sql.ast import AggregateCall, SelectStmt, TableRef
from repro.dbms.sql.parser import parse_statement
from repro.errors import PlanError, SQLSyntaxError

_VALIDTIME_RE = re.compile(r"^\s*VALIDTIME\b", re.IGNORECASE)
_COALESCED_RE = re.compile(r"^\s*COALESCED\b", re.IGNORECASE)

#: Default names of the implicit period attributes.
PERIOD = ("T1", "T2")


def is_temporal_query(sql: str) -> bool:
    """True when *sql* carries the ``VALIDTIME`` prefix."""
    return _VALIDTIME_RE.match(sql) is not None


def parse_temporal_query(sql: str, catalog) -> Operator:
    """Parse a ``VALIDTIME SELECT ...`` into its initial plan.

    *catalog* is duck-typed: anything with ``schema_of(table)`` works — a
    :class:`~repro.dbms.database.MiniDB` does.
    """
    rest, coalesced = split_prefix(sql)
    statement = parse_statement(rest)
    if not isinstance(statement, SelectStmt):
        raise SQLSyntaxError("VALIDTIME applies to SELECT statements")
    if statement.unions:
        raise SQLSyntaxError("UNION is not supported in temporal queries")
    if statement.parameters:
        raise SQLSyntaxError("bind markers (?) are not supported in temporal queries")
    return _Builder(statement, catalog, coalesce=coalesced).build()


def split_prefix(sql: str) -> tuple[str, bool]:
    """*sql* past its ``VALIDTIME [COALESCED]`` prefix, and whether it
    says ``COALESCED``."""
    match = _VALIDTIME_RE.match(sql)
    if match is None:
        raise SQLSyntaxError("temporal queries must start with VALIDTIME")
    rest = sql[match.end():]
    coalesced = _COALESCED_RE.match(rest)
    if coalesced is not None:
        rest = rest[coalesced.end():]
    return rest, coalesced is not None


class _Binding:
    """One FROM item: its alias and the current-plan name of each column."""

    def __init__(self, alias: str, mapping: dict[str, str]):
        self.alias = alias
        self.mapping = mapping  # original lower-cased name -> plan schema name


class _Builder:
    def __init__(self, statement: SelectStmt, catalog, coalesce: bool = False):
        self._stmt = statement
        self._catalog = catalog
        self._coalesce = coalesce
        self._bindings: list[_Binding] = []

    def build(self) -> Operator:
        plan = self._build_joins()
        plan = self._apply_aggregation_and_projection(plan)
        if self._coalesce:
            # VALIDTIME COALESCED: merge value-equivalent result tuples with
            # overlapping or adjacent periods.  The initial plan places the
            # coalescing in the DBMS like everything else; rule X1 moves it
            # to the middleware (there is no SQL rewrite for it).
            from repro.algebra.operators import Coalesce

            plan = Coalesce(plan, Location.DBMS)
        plan = self._apply_order(plan)
        return TransferM(plan)

    # -- FROM and WHERE ------------------------------------------------------------

    def _build_joins(self) -> Operator:
        where_terms = list(conjuncts(self._stmt.where))
        sources: list[tuple[_Binding, Operator]] = []
        for item in self._stmt.from_items:
            if not isinstance(item, TableRef):
                raise SQLSyntaxError(
                    "temporal queries support base tables in FROM only"
                )
            plan: Operator = Scan(item.table, self._catalog.schema_of(item.table))
            binding = _Binding(
                item.binding,
                {a.name.lower(): a.name for a in plan.schema},
            )
            sources.append((binding, plan))

        # Push single-table conjuncts onto their scans.
        remaining: list[Expression] = []
        for term in where_terms:
            owners = self._owners(term, [binding for binding, _ in sources])
            if owners is not None and len(owners) == 1:
                index = next(
                    i for i, (binding, _) in enumerate(sources)
                    if binding.alias == next(iter(owners))
                )
                binding, plan = sources[index]
                resolved = self._resolve(term, [binding])
                sources[index] = (binding, Select(plan, Location.DBMS, resolved))
            else:
                remaining.append(term)

        # Left-deep temporal joins in FROM order.
        binding, plan = sources[0]
        self._bindings = [binding]
        for next_binding, next_plan in sources[1:]:
            equi = self._find_equi(remaining, self._bindings, next_binding)
            if equi is None:
                raise PlanError(
                    "temporal queries require an equi-join condition between "
                    f"{[b.alias for b in self._bindings]} and {next_binding.alias}"
                )
            term, left_name, right_name = equi
            remaining.remove(term)
            join = TemporalJoin(
                plan, next_plan, Location.DBMS, left_name, right_name, PERIOD
            )
            self._remap_after_join(join, next_binding)
            plan = join

        leftover = [
            self._resolve(term, self._bindings) for term in remaining
        ]
        predicate = conjoin(leftover)
        if predicate is not None:
            plan = Select(plan, Location.DBMS, predicate)
        return plan

    def _remap_after_join(self, join: TemporalJoin, right_binding: _Binding) -> None:
        """Update column mappings to the join's (disambiguated) output."""
        names = join.schema.names
        skip = {p.lower() for p in PERIOD}
        # Rebuild mappings positionally: left non-temporal names come first,
        # in schema order, then the right side's, then T1/T2.
        left_bindings = self._bindings
        flat: list[tuple[_Binding, str]] = []
        for binding in left_bindings:
            for original, current in binding.mapping.items():
                if original not in skip:
                    flat.append((binding, original))
        for original in right_binding.mapping:
            if original not in skip:
                flat.append((right_binding, original))
        for (binding, original), name in zip(flat, names):
            binding.mapping[original] = name
        for binding in left_bindings + [right_binding]:
            binding.mapping[PERIOD[0].lower()] = PERIOD[0]
            binding.mapping[PERIOD[1].lower()] = PERIOD[1]
        self._bindings = left_bindings + [right_binding]

    def _owners(
        self, term: Expression, bindings: list[_Binding]
    ) -> set[str] | None:
        owners: set[str] = set()
        for reference in collect(term, ColumnRef):
            owner = self._owner_of(reference.name, bindings)
            if owner is None:
                return None
            owners.add(owner)
        return owners

    def _owner_of(self, name: str, bindings: list[_Binding]) -> str | None:
        if "." in name:
            qualifier, column = name.split(".", 1)
            for binding in bindings:
                if binding.alias == qualifier.upper():
                    if column.lower() in binding.mapping:
                        return binding.alias
            return None
        matches = [
            binding for binding in bindings if name.lower() in binding.mapping
        ]
        if len(matches) == 1:
            return matches[0].alias
        if not matches:
            return None
        raise SQLSyntaxError(f"column {name!r} is ambiguous")

    def _resolve(self, expression: Expression, bindings: list[_Binding]) -> Expression:
        def visit(node: Expression) -> Expression | None:
            if isinstance(node, ColumnRef):
                return ColumnRef(self._resolve_name(node.name, bindings))
            return None

        return transform(expression, visit)

    def _resolve_name(self, name: str, bindings: list[_Binding]) -> str:
        if "." in name:
            qualifier, column = name.split(".", 1)
            for binding in bindings:
                if binding.alias == qualifier.upper():
                    try:
                        return binding.mapping[column.lower()]
                    except KeyError:
                        raise SQLSyntaxError(
                            f"{qualifier} has no column {column!r}"
                        ) from None
            raise SQLSyntaxError(f"unknown table alias {qualifier!r}")
        matches = [
            binding.mapping[name.lower()]
            for binding in bindings
            if name.lower() in binding.mapping
        ]
        unique = set(matches)
        if len(unique) == 1:
            return matches[0]
        if not matches:
            raise SQLSyntaxError(f"unknown column {name!r}")
        raise SQLSyntaxError(f"column {name!r} is ambiguous")

    def _find_equi(
        self,
        terms: list[Expression],
        left_bindings: list[_Binding],
        right_binding: _Binding,
    ) -> tuple[Expression, str, str] | None:
        for term in terms:
            if not isinstance(term, Comparison) or term.op != "=":
                continue
            if not (
                isinstance(term.left, ColumnRef)
                and isinstance(term.right, ColumnRef)
            ):
                continue
            left_owner = self._owner_of(term.left.name, left_bindings)
            right_owner = self._owner_of(term.right.name, [right_binding])
            if left_owner is not None and right_owner is not None:
                return (
                    term,
                    self._resolve_name(term.left.name, left_bindings),
                    self._resolve_name(term.right.name, [right_binding]),
                )
            left_owner = self._owner_of(term.right.name, left_bindings)
            right_owner = self._owner_of(term.left.name, [right_binding])
            if left_owner is not None and right_owner is not None:
                return (
                    term,
                    self._resolve_name(term.right.name, left_bindings),
                    self._resolve_name(term.left.name, [right_binding]),
                )
        return None

    # -- aggregation, projection, ordering -----------------------------------------------

    def _apply_aggregation_and_projection(self, plan: Operator) -> Operator:
        stmt = self._stmt
        aggregate_items = [
            item
            for item in stmt.items
            if item.star is None and collect(item.expression, AggregateCall)
        ]
        if stmt.group_by or aggregate_items:
            return self._apply_aggregation(plan)
        # Plain (possibly joined) temporal selection/projection.
        if all(item.star == "*" for item in stmt.items):
            return plan
        outputs: list[tuple[str, Expression]] = []
        for position, item in enumerate(stmt.items, start=1):
            if item.star is not None:
                starred = [
                    binding
                    for binding in self._bindings
                    if item.star.upper() in ("*", binding.alias)
                ]
                if not starred:
                    raise SQLSyntaxError(f"unknown table alias {item.star!r}")
                for binding in starred:
                    for current in binding.mapping.values():
                        outputs.append((current, ColumnRef(current)))
                continue
            expression = self._resolve(item.expression, self._bindings)
            name = item.alias or (
                expression.name.split(".")[-1]
                if isinstance(expression, ColumnRef)
                else f"COL_{position}"
            )
            outputs.append((name, expression))
        for period_attr in PERIOD:
            if not any(name.lower() == period_attr.lower() for name, _ in outputs):
                outputs.append((period_attr, ColumnRef(period_attr)))
        return Project(plan, Location.DBMS, tuple(outputs))

    def _apply_aggregation(self, plan: Operator) -> Operator:
        stmt = self._stmt
        group_names: list[str] = []
        for term in stmt.group_by:
            if not isinstance(term, ColumnRef):
                raise SQLSyntaxError(
                    "temporal GROUP BY supports column references only"
                )
            group_names.append(self._resolve_name(term.name, self._bindings))
        specs: list[AggregateSpec] = []
        for item in stmt.items:
            if item.star is not None:
                raise SQLSyntaxError("* is not allowed with temporal GROUP BY")
            calls = collect(item.expression, AggregateCall)
            if not calls:
                resolved = self._resolve(item.expression, self._bindings)
                if (
                    not isinstance(resolved, ColumnRef)
                    or resolved.name not in group_names
                ):
                    raise SQLSyntaxError(
                        f"select item {item.expression.to_sql()!r} must be a "
                        "grouping column or an aggregate"
                    )
                continue
            if len(calls) != 1 or calls[0] is not item.expression:
                raise SQLSyntaxError(
                    "temporal aggregates cannot be nested in expressions"
                )
            call = calls[0]
            argument = None
            if call.argument is not None:
                resolved = self._resolve(call.argument, self._bindings)
                if not isinstance(resolved, ColumnRef):
                    raise SQLSyntaxError(
                        "temporal aggregate arguments must be columns"
                    )
                argument = resolved.name
            specs.append(AggregateSpec(call.func, argument, item.alias))
        if not specs:
            raise SQLSyntaxError("temporal GROUP BY requires at least one aggregate")
        return TemporalAggregate(
            plan, Location.DBMS, tuple(group_names), tuple(specs), PERIOD
        )

    def _apply_order(self, plan: Operator) -> Operator:
        if not self._stmt.order_by:
            return plan
        keys: list[str] = []
        for item in self._stmt.order_by:
            if not isinstance(item.expression, ColumnRef):
                raise SQLSyntaxError("temporal ORDER BY supports columns only")
            if not item.ascending:
                raise SQLSyntaxError("temporal ORDER BY supports ASC only")
            name = item.expression.name
            if plan.schema.has(name.split(".")[-1]):
                keys.append(plan.schema[name.split(".")[-1]].name)
            else:
                keys.append(self._resolve_name(name, self._bindings))
        return Sort(plan, Location.DBMS, tuple(keys))
