"""Recursive-descent parser for the MiniDB SQL dialect.

A ``?`` is a bind marker: the *n*-th one in the text reads as
``Parameter(n - 1)``, and only a SELECT may carry them.
"""

from __future__ import annotations

from dataclasses import replace

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
    Parameter,
)
from repro.algebra.schema import AttrType
from repro.dbms.sql.ast import (
    AggregateCall,
    AnalyzeStmt,
    ColumnDef,
    CreateIndexStmt,
    CreateTableStmt,
    DeleteStmt,
    DerivedTable,
    DropTableStmt,
    InsertSelectStmt,
    InsertValuesStmt,
    OrderItem,
    SelectItem,
    SelectStmt,
    Statement,
    TableRef,
)
from repro.dbms.sql.lexer import Token, tokenize
from repro.errors import SQLSyntaxError
from repro.temporal.timestamps import day_of

_AGGREGATES = {"COUNT", "SUM", "AVG", "MIN", "MAX"}

_TYPES = {
    "INT": AttrType.INT,
    "INTEGER": AttrType.INT,
    "NUMBER": AttrType.FLOAT,
    "FLOAT": AttrType.FLOAT,
    "REAL": AttrType.FLOAT,
    "VARCHAR": AttrType.STR,
    "VARCHAR2": AttrType.STR,
    "CHAR": AttrType.STR,
    "TEXT": AttrType.STR,
    "DATE": AttrType.DATE,
}


def number_literal(token: Token) -> Literal:
    """A NUMBER token's literal: an int, or a float when it is spelled with
    a fraction or an exponent."""
    if not token.value.isdigit():
        return Literal(float(token.value))
    return Literal(int(token.value))


def date_literal(token: Token) -> Literal:
    """The literal ``DATE`` *token* spells: a day number typed DATE."""
    try:
        day = day_of(token.value)
    except ValueError as error:
        raise SQLSyntaxError(
            f"bad date literal {token.value!r}: {error}", token.position
        ) from None
    return Literal(day, AttrType.DATE)


class _Parser:
    def __init__(self, sql: str):
        self._tokens = tokenize(sql)
        self._pos = 0
        #: Bind markers read so far.
        self.parameters = 0

    # -- token plumbing ---------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind != "EOF":
            self._pos += 1
        return token

    def _accept(self, kind: str, value: str | None = None) -> Token | None:
        token = self._peek()
        if token.kind != kind:
            return None
        if value is not None and token.value != value:
            return None
        return self._advance()

    def _expect(self, kind: str, value: str | None = None) -> Token:
        token = self._accept(kind, value)
        if token is None:
            actual = self._peek()
            wanted = value or kind
            raise SQLSyntaxError(
                f"expected {wanted}, found {actual.text or 'end of input'}",
                actual.position,
            )
        return token

    def _count(self) -> int:
        """A whole-number literal: a width or a LIMIT."""
        token = self._expect("NUMBER")
        if not token.value.isdigit():
            raise SQLSyntaxError(f"expected a whole number, found {token.text}", token.position)
        return int(token.value)

    def _accept_keyword(self, *words: str) -> bool:
        """Consume a fixed keyword sequence if present."""
        for offset, word in enumerate(words):
            token = self._peek(offset)
            if token.kind != "KEYWORD" or token.value != word:
                return False
        for _ in words:
            self._advance()
        return True

    def _identifier(self) -> str:
        token = self._peek()
        if token.kind in ("IDENT", "KEYWORD"):
            self._advance()
            return token.text
        raise SQLSyntaxError(f"expected identifier, found {token.text!r}", token.position)

    def at_end(self) -> bool:
        return self._peek().kind == "EOF"

    # -- statements ----------------------------------------------------------------

    def statement(self) -> Statement:
        token = self._peek()
        if token.kind == "KEYWORD":
            if token.value == "SELECT":
                return self.select()
            if token.value == "CREATE":
                return self._create()
            if token.value == "INSERT":
                return self._insert()
            if token.value == "DELETE":
                return self._delete()
            if token.value == "DROP":
                return self._drop()
            if token.value == "ANALYZE":
                return self._analyze()
        raise SQLSyntaxError(f"cannot parse statement starting with {token.text!r}", token.position)

    def _create(self) -> Statement:
        self._expect("KEYWORD", "CREATE")
        temporary = bool(self._accept("KEYWORD", "TEMPORARY"))
        if self._accept("KEYWORD", "TABLE"):
            table = self._identifier()
            self._expect("OP", "(")
            columns: list[ColumnDef] = []
            while True:
                name = self._identifier()
                type_token = self._peek()
                if type_token.kind not in ("IDENT", "KEYWORD"):
                    raise SQLSyntaxError("expected column type", type_token.position)
                type_name = type_token.value
                if type_name not in _TYPES:
                    raise SQLSyntaxError(
                        f"unknown column type {type_token.text!r}", type_token.position
                    )
                self._advance()
                width = None
                if self._accept("OP", "("):
                    width = self._count()
                    self._expect("OP", ")")
                columns.append(ColumnDef(name, _TYPES[type_name], width))
                if not self._accept("OP", ","):
                    break
            self._expect("OP", ")")
            return CreateTableStmt(table, tuple(columns), temporary)
        unique = bool(self._accept("KEYWORD", "UNIQUE"))
        clustered = bool(self._accept("KEYWORD", "CLUSTER"))
        if self._accept("KEYWORD", "INDEX"):
            index = self._identifier()
            self._expect("KEYWORD", "ON")
            table = self._identifier()
            self._expect("OP", "(")
            column = self._identifier()
            self._expect("OP", ")")
            __ = unique  # uniqueness is accepted but not enforced
            return CreateIndexStmt(index, table, column, clustered)
        token = self._peek()
        raise SQLSyntaxError("expected TABLE or INDEX after CREATE", token.position)

    def _insert(self) -> Statement:
        self._expect("KEYWORD", "INSERT")
        self._expect("KEYWORD", "INTO")
        table = self._identifier()
        if self._peek().kind == "KEYWORD" and self._peek().value == "SELECT":
            return InsertSelectStmt(table, self.select())
        self._expect("KEYWORD", "VALUES")
        rows: list[tuple[Expression, ...]] = []
        while True:
            self._expect("OP", "(")
            values: list[Expression] = []
            while True:
                values.append(self.expression())
                if not self._accept("OP", ","):
                    break
            self._expect("OP", ")")
            rows.append(tuple(values))
            if not self._accept("OP", ","):
                break
        return InsertValuesStmt(table, tuple(rows))

    def _delete(self) -> Statement:
        self._expect("KEYWORD", "DELETE")
        self._expect("KEYWORD", "FROM")
        table = self._identifier()
        where = self.expression() if self._accept("KEYWORD", "WHERE") else None
        return DeleteStmt(table, where)

    def _drop(self) -> Statement:
        self._expect("KEYWORD", "DROP")
        self._expect("KEYWORD", "TABLE")
        if_exists = False
        if self._peek().kind == "IDENT" and self._peek().value == "IF":
            self._advance()
            exists = self._identifier()
            if exists.upper() != "EXISTS":
                raise SQLSyntaxError("expected EXISTS after IF", self._peek().position)
            if_exists = True
        table = self._identifier()
        return DropTableStmt(table, if_exists)

    def _analyze(self) -> Statement:
        self._expect("KEYWORD", "ANALYZE")
        self._expect("KEYWORD", "TABLE")
        table = self._identifier()
        self._expect("KEYWORD", "COMPUTE")
        self._expect("KEYWORD", "STATISTICS")
        histogram_columns: tuple[str, ...] | str = "auto"
        if self._accept("KEYWORD", "FOR"):
            if self._accept("KEYWORD", "ALL"):
                self._expect("KEYWORD", "COLUMNS")
                histogram_columns = "auto"
            elif self._accept("KEYWORD", "COLUMNS"):
                names: list[str] = []
                while True:
                    names.append(self._identifier())
                    if not self._accept("OP", ","):
                        break
                histogram_columns = tuple(names)
            else:
                table_kw = self._expect("KEYWORD", "TABLE")
                __ = table_kw
                histogram_columns = "none"
        return AnalyzeStmt(table, histogram_columns)

    # -- SELECT ----------------------------------------------------------------------

    def select(self) -> SelectStmt:
        base = self._select_core()
        unions: list[tuple[bool, SelectStmt]] = []
        while self._accept("KEYWORD", "UNION"):
            keep_all = bool(self._accept("KEYWORD", "ALL"))
            unions.append((keep_all, self._select_core()))
        order_by: tuple[OrderItem, ...] = base.order_by
        if unions:
            # A trailing ORDER BY binds to the whole UNION, but the last
            # arm's core already consumed it — hoist it out.
            keep_all, last = unions[-1]
            if last.order_by:
                order_by = last.order_by
                unions[-1] = (
                    keep_all,
                    SelectStmt(
                        items=last.items,
                        from_items=last.from_items,
                        where=last.where,
                        group_by=last.group_by,
                        having=last.having,
                        distinct=last.distinct,
                        hints=last.hints,
                        limit=last.limit,
                    ),
                )
        if unions:
            return SelectStmt(
                items=base.items,
                from_items=base.from_items,
                where=base.where,
                group_by=base.group_by,
                having=base.having,
                order_by=order_by,
                distinct=base.distinct,
                hints=base.hints,
                unions=tuple(unions),
                limit=base.limit,
            )
        return base

    def _select_core(self) -> SelectStmt:
        self._expect("KEYWORD", "SELECT")
        hints: list[str] = []
        while self._peek().kind == "HINT":
            hints.append(self._advance().value)
        distinct = bool(self._accept("KEYWORD", "DISTINCT"))
        items = self._select_items()
        self._expect("KEYWORD", "FROM")
        from_items: list[TableRef | DerivedTable] = [self._from_item()]
        while self._accept("OP", ","):
            from_items.append(self._from_item())
        where = self.expression() if self._accept("KEYWORD", "WHERE") else None
        group_by: tuple[Expression, ...] = ()
        if self._accept_keyword("GROUP", "BY"):
            terms: list[Expression] = []
            while True:
                terms.append(self.expression())
                if not self._accept("OP", ","):
                    break
            group_by = tuple(terms)
        having = self.expression() if self._accept("KEYWORD", "HAVING") else None
        order_by: tuple[OrderItem, ...] = ()
        if self._accept_keyword("ORDER", "BY"):
            order_by = self._order_items()
        limit = None
        if self._accept("KEYWORD", "LIMIT"):
            limit = self._count()
        return SelectStmt(
            items=tuple(items),
            from_items=tuple(from_items),
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            distinct=distinct,
            hints=tuple(hints),
            limit=limit,
        )

    def _select_items(self) -> list[SelectItem]:
        items: list[SelectItem] = []
        while True:
            if self._accept("OP", "*"):
                items.append(SelectItem(Literal(1), star="*"))
            elif (
                self._peek().kind == "IDENT"
                and self._peek(1).kind == "OP"
                and self._peek(1).value == "."
                and self._peek(2).kind == "OP"
                and self._peek(2).value == "*"
            ):
                qualifier = self._advance().text
                self._advance()
                self._advance()
                items.append(SelectItem(Literal(1), star=qualifier))
            else:
                expression = self.expression()
                alias = None
                if self._accept("KEYWORD", "AS"):
                    alias = self._identifier()
                elif self._peek().kind == "IDENT":
                    alias = self._identifier()
                items.append(SelectItem(expression, alias))
            if not self._accept("OP", ","):
                return items

    def _from_item(self) -> TableRef | DerivedTable:
        if self._accept("OP", "("):
            select = self.select()
            self._expect("OP", ")")
            alias = None
            if self._accept("KEYWORD", "AS"):
                alias = self._identifier()
            elif self._peek().kind == "IDENT":
                alias = self._identifier()
            if alias is None:
                raise SQLSyntaxError(
                    "derived tables must be aliased", self._peek().position
                )
            return DerivedTable(select, alias)
        table = self._identifier()
        alias = None
        if self._accept("KEYWORD", "AS"):
            alias = self._identifier()
        elif self._peek().kind == "IDENT":
            alias = self._identifier()
        return TableRef(table, alias)

    def _order_items(self) -> tuple[OrderItem, ...]:
        items: list[OrderItem] = []
        while True:
            expression = self.expression()
            ascending = True
            if self._accept("KEYWORD", "DESC"):
                ascending = False
            else:
                self._accept("KEYWORD", "ASC")
            items.append(OrderItem(expression, ascending))
            if not self._accept("OP", ","):
                return tuple(items)

    # -- expressions --------------------------------------------------------------------

    def expression(self) -> Expression:
        return self._or_expr()

    def _or_expr(self) -> Expression:
        terms = [self._and_expr()]
        while self._accept("KEYWORD", "OR"):
            terms.append(self._and_expr())
        return terms[0] if len(terms) == 1 else Or(terms)

    def _and_expr(self) -> Expression:
        terms = [self._not_expr()]
        while self._accept("KEYWORD", "AND"):
            terms.append(self._not_expr())
        return terms[0] if len(terms) == 1 else And(terms)

    def _not_expr(self) -> Expression:
        if self._accept("KEYWORD", "NOT"):
            return Not(self._not_expr())
        return self._predicate()

    def _predicate(self) -> Expression:
        left = self._additive()
        token = self._peek()
        if token.kind == "OP" and token.value in ("=", "<>", "!=", "<", "<=", ">", ">="):
            self._advance()
            right = self._additive()
            return Comparison(token.value, left, right)
        if token.kind == "KEYWORD" and token.value == "BETWEEN":
            self._advance()
            low = self._additive()
            self._expect("KEYWORD", "AND")
            high = self._additive()
            return And((Comparison(">=", left, low), Comparison("<=", left, high)))
        if token.kind == "KEYWORD" and token.value == "IN":
            self._advance()
            self._expect("OP", "(")
            choices: list[Expression] = []
            while True:
                choices.append(self.expression())
                if not self._accept("OP", ","):
                    break
            self._expect("OP", ")")
            return Or(tuple(Comparison("=", left, choice) for choice in choices))
        if token.kind == "KEYWORD" and token.value == "IS":
            self._advance()
            negated = bool(self._accept("KEYWORD", "NOT"))
            self._expect("KEYWORD", "NULL")
            null_test = Comparison("=", left, Literal(None))
            return Not(null_test) if negated else null_test
        return left

    def _additive(self) -> Expression:
        left = self._term()
        while True:
            token = self._peek()
            if token.kind == "OP" and token.value in ("+", "-"):
                self._advance()
                left = BinOp(token.value, left, self._term())
            else:
                return left

    def _term(self) -> Expression:
        left = self._factor()
        while True:
            token = self._peek()
            if token.kind == "OP" and token.value in ("*", "/"):
                self._advance()
                left = BinOp(token.value, left, self._factor())
            else:
                return left

    def _factor(self) -> Expression:
        token = self._peek()
        if token.kind == "NUMBER":
            self._advance()
            return number_literal(token)
        if token.kind == "STRING":
            self._advance()
            return Literal(token.value)
        if token.kind == "KEYWORD" and token.value == "DATE":
            self._advance()
            return date_literal(self._expect("STRING"))
        if token.kind == "KEYWORD" and token.value == "NULL":
            self._advance()
            return Literal(None)
        if token.kind == "OP" and token.value == "?":
            self._advance()
            self.parameters += 1
            return Parameter(self.parameters - 1)
        if token.kind == "OP" and token.value == "(":
            self._advance()
            inner = self.expression()
            self._expect("OP", ")")
            return inner
        if token.kind == "OP" and token.value == "-":
            self._advance()
            return BinOp("-", Literal(0), self._factor())
        if token.kind in ("IDENT", "KEYWORD"):
            return self._identifier_expression()
        raise SQLSyntaxError(f"unexpected token {token.text!r}", token.position)

    def _identifier_expression(self) -> Expression:
        name_token = self._advance()
        name = name_token.text
        upper = name.upper()
        if self._peek().kind == "OP" and self._peek().value == "(":
            self._advance()
            if upper in _AGGREGATES:
                if self._accept("OP", "*"):
                    self._expect("OP", ")")
                    return AggregateCall(upper, None)
                distinct = bool(self._accept("KEYWORD", "DISTINCT"))
                argument = self.expression()
                self._expect("OP", ")")
                return AggregateCall(upper, argument, distinct)
            args: list[Expression] = []
            if not self._accept("OP", ")"):
                while True:
                    args.append(self.expression())
                    if not self._accept("OP", ","):
                        break
                self._expect("OP", ")")
            return FuncCall(upper, args)
        if self._peek().kind == "OP" and self._peek().value == ".":
            self._advance()
            column = self._identifier()
            return ColumnRef(f"{name}.{column}")
        return ColumnRef(name)


def parse_statement(sql: str) -> Statement:
    """Parse one SQL statement; trailing garbage is an error."""
    parser = _Parser(sql)
    statement = parser.statement()
    if not parser.at_end():
        token = parser._peek()
        raise SQLSyntaxError(f"unexpected trailing input {token.text!r}", token.position)
    if parser.parameters:
        if not isinstance(statement, SelectStmt):
            raise SQLSyntaxError("bind markers (?) are allowed in SELECT statements only")
        statement = replace(statement, parameters=parser.parameters)
    return statement


def parse_expression(sql: str) -> Expression:
    """Parse a standalone scalar expression (useful in tests)."""
    parser = _Parser(sql)
    expression = parser.expression()
    if not parser.at_end():
        token = parser._peek()
        raise SQLSyntaxError(f"unexpected trailing input {token.text!r}", token.position)
    return expression
