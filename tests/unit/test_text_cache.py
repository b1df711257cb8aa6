"""What the planner's text cache must not keep (DESIGN.md §12).

A temporal text of a kept literal-blind key is lexed and bound, not parsed
(:mod:`repro.core.texts`).  Three things must not be served that way: a
text whose tables changed schema since its key was kept, a text that does
not parse, and a text whose slots and literals do not match one to one.
"""

import sys
import threading

import pytest

import repro.core.planner as planner_module
from repro.core.parser import parse_temporal_query
from repro.core.tango import Tango
from repro.dbms.database import MiniDB
from repro.errors import SQLSyntaxError
from repro.optimizer.shapes import literals


@pytest.fixture
def db():
    db = MiniDB()
    db.execute("CREATE TABLE R (K INT, V INT, T1 DATE, T2 DATE)")
    db.execute("INSERT INTO R VALUES (1, 5, 2, 20), (2, 7, 5, 25), (3, -4, 1, 9)")
    return db


@pytest.fixture
def parses(monkeypatch):
    """Every text the planner parses, in order."""
    seen = []
    real = planner_module.parse_temporal_query

    def counting(sql, catalog):
        seen.append(sql)
        return real(sql, catalog)

    monkeypatch.setattr(planner_module, "parse_temporal_query", counting)
    return seen


def test_a_recurring_key_is_lexed_not_parsed(db, parses):
    sql = "VALIDTIME SELECT K, V FROM R WHERE V > {}"
    with Tango(db) as tango:
        for bound in (0, 6, 8):
            tango.optimize(sql.format(bound))
        assert parses == [sql.format(0)]
        assert tango.planner.parse(sql.format(6)).cache_key == tango.parse(sql.format(6)).cache_key
        assert [row[0] for row in tango.query(sql.format(6)).rows] == [2]
        assert tango.planner.texts.to_dict()["size"] == 1


def test_threads_sharing_one_planner_each_get_their_own_literals(db):
    """Eight threads lex, bind and plan texts of one kept shape at once,
    switching every few microseconds: each gets its own literal back."""
    sql = "VALIDTIME SELECT K, V FROM R WHERE V > {}"
    wrong = []

    def worker(offset: int) -> None:
        for bound in range(offset * 1000, offset * 1000 + 40):
            text = sql.format(bound)
            if tango.parse(text).cache_key != parse_temporal_query(text, db).cache_key:
                wrong.append(("parse", text))
            if bound not in {literal.value for literal in literals(tango.optimize(text).plan)}:
                wrong.append(("plan", text))

    with Tango(db) as tango:
        tango.optimize(sql.format(0))
        threads = [threading.Thread(target=worker, args=(offset,)) for offset in range(1, 9)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert len(tango.planner.texts) == 1


def test_a_table_created_again_with_other_columns_is_parsed_afresh(db, parses):
    sql = "VALIDTIME SELECT * FROM R WHERE K > {}"
    with Tango(db) as tango:
        assert tango.query(sql.format(5)).schema.names == ("K", "V", "T1", "T2")
        db.execute("DROP TABLE R")
        db.execute("CREATE TABLE R (K INT, W VARCHAR(8), T1 DATE, T2 DATE)")
        db.execute("INSERT INTO R VALUES (1, 'x', 2, 20)")
        result = tango.query(sql.format(0))
        assert result.schema.names == ("K", "W", "T1", "T2")
        assert result.rows == [(1, "x", 2, 20)]
        assert parses == [sql.format(5), sql.format(0)]
        assert tango.parse(sql.format(3)).schema.names == ("K", "W", "T1", "T2")
        texts = tango.planner.texts
        assert (texts.hits, texts.misses, len(texts)) == (1, 2, 1)


@pytest.mark.parametrize(
    "wrong",
    [
        "VALIDTIME SELECT K FROM R WHERE T1 < DATE '1996-13-45'",  # lexes, then fails
        "VALIDTIME SELECT K FROM R WHERE V > 5 5",
        "VALIDTIME SELECT K FROM R WHERE V > 'x",
        "VALIDTIME SELECT Z FROM R WHERE V > 5",
        "SELECT K FROM R WHERE V > 5",
        # A clause the temporal front end refuses, beside a minus whose 0
        # it would match.
        "VALIDTIME SELECT K, COUNT(V) FROM R WHERE V > -5 GROUP BY K HAVING COUNT(V) > 0",
    ],
)
def test_a_text_that_does_not_parse_is_never_kept(db, wrong):
    with Tango(db) as tango:
        tango.optimize("VALIDTIME SELECT K FROM R WHERE T1 < DATE '1996-01-01'")
        errors = set()
        for _ in range(3):
            for attempt in (tango.optimize, tango.parse):
                with pytest.raises(SQLSyntaxError) as raised:
                    attempt(wrong)
                errors.add((type(raised.value), str(raised.value)))
        assert len(errors) == 1
        assert tango.planner.texts.to_dict()["misses"] == 1


@pytest.mark.parametrize(
    "sql, literals",
    [
        # A unary minus reads as ``0 - x``: a slot no token fills ...
        ("VALIDTIME SELECT K FROM R WHERE V > -{}", (5, 3, 9)),
        # ... or one it shares with a token that does.
        ("VALIDTIME SELECT K FROM R WHERE V > -{} AND K > 0", (5, 3, 9)),
        # BETWEEN repeats its left operand: one token, two literals.
        ("VALIDTIME SELECT K FROM R WHERE {} BETWEEN V AND K + 9", (1, 2, 4)),
    ],
)
def test_a_text_without_a_one_to_one_slot_map_is_parsed_every_time(db, parses, sql, literals):
    texts = [sql.format(literal) for literal in literals]
    expected = []
    for text in texts:
        with Tango(db) as fresh:
            result = fresh.query(text)
            expected.append((result.rows, result.schema.names, fresh.parse(text).cache_key))
    parses.clear()
    with Tango(db) as tango:
        for text, (rows, names, parsed) in zip(texts, expected):
            result = tango.query(text)
            assert (result.rows, result.schema.names) == (rows, names)
            assert tango.parse(text).cache_key == parsed
        # Each planned once (by ``query``), then parsed again (by ``parse``).
        assert parses == [text for text in texts for _ in range(2)]
        assert len(tango.planner.texts) == 0
