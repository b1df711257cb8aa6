"""Tokenizer for the MiniDB SQL dialect."""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import SQLSyntaxError

KEYWORDS = {
    "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER",
    "ASC", "DESC", "UNION", "ALL", "AND", "OR", "NOT", "AS", "BETWEEN", "IN",
    "CREATE", "TABLE", "INDEX", "UNIQUE", "ON", "INSERT", "INTO", "VALUES",
    "DELETE", "DROP", "ANALYZE", "COMPUTE", "STATISTICS", "FOR", "COLUMNS",
    "DATE", "NULL", "IS", "TEMPORARY", "CLUSTER", "VALIDTIME", "PERIOD",
    "LIMIT",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<hint>/\*\+.*?\*/)
  | (?P<comment>--[^\n]*)
  | (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<string>'(?:[^']|'')*')
  | (?P<ident>[A-Za-z_][A-Za-z_0-9$#]*)
  | (?P<op><=|>=|<>|!=|=|<|>|\+|-|\*|/|\(|\)|,|\.|\?)
    """,
    re.VERBOSE | re.DOTALL,
)


@dataclass(frozen=True)
class Token:
    """A lexical token.

    ``kind`` is one of ``KEYWORD``, ``IDENT``, ``NUMBER``, ``STRING``,
    ``OP``, ``HINT``, or ``EOF``.  For keywords and identifiers ``value``
    is upper-cased text; the original spelling is kept in ``text``.
    """

    kind: str
    value: str
    text: str
    position: int


def tokenize(sql: str) -> list[Token]:
    """Tokenize *sql*, raising :class:`SQLSyntaxError` on junk."""
    tokens: list[Token] = []
    position = 0
    length = len(sql)
    while position < length:
        match = _TOKEN_RE.match(sql, position)
        if match is None:
            raise SQLSyntaxError(f"unexpected character {sql[position]!r}", position)
        position = match.end()
        kind = match.lastgroup
        text = match.group()
        if kind in ("ws", "comment"):
            continue
        if kind == "hint":
            tokens.append(Token("HINT", text[3:-2].strip().upper(), text, match.start()))
        elif kind == "number":
            tokens.append(Token("NUMBER", text, text, match.start()))
        elif kind == "string":
            tokens.append(Token("STRING", text[1:-1].replace("''", "'"), text, match.start()))
        elif kind == "ident":
            upper = text.upper()
            token_kind = "KEYWORD" if upper in KEYWORDS else "IDENT"
            tokens.append(Token(token_kind, upper, text, match.start()))
        else:
            tokens.append(Token("OP", text, text, match.start()))
    tokens.append(Token("EOF", "", "", length))
    return tokens
