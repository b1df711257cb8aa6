"""Tokenizer for the MiniDB SQL dialect."""

from __future__ import annotations

import re
from typing import NamedTuple

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


class Token(NamedTuple):
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
    for match in _TOKEN_RE.finditer(sql):
        start = match.start()
        if start != position:  # junk the pattern skipped to get here
            break
        position = match.end()
        kind = match.lastgroup
        if kind == "ws" or kind == "comment":
            continue
        text = match.group()
        if kind == "ident":
            upper = text.upper()
            tokens.append(Token("KEYWORD" if upper in KEYWORDS else "IDENT", upper, text, start))
        elif kind == "op":
            tokens.append(Token("OP", text, text, start))
        elif kind == "number":
            tokens.append(Token("NUMBER", text, text, start))
        elif kind == "string":
            tokens.append(Token("STRING", text[1:-1].replace("''", "'"), text, start))
        else:
            tokens.append(Token("HINT", text[3:-2].strip().upper(), text, start))
    if position != len(sql):
        raise SQLSyntaxError(f"unexpected character {sql[position]!r}", position)
    tokens.append(Token("EOF", "", "", position))
    return tokens
