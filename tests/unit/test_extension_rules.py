"""Unit tests for the Section 7 extension rules (X1-X5) and the
``VALIDTIME COALESCED`` syntax — the paper's "to add an operator" recipe
completed for coalescing and duplicate elimination."""

import pytest

from repro.algebra.operators import (
    Coalesce,
    Dedup,
    Location,
    Scan,
    Sort,
    TransferD,
    TransferM,
)
from repro.algebra.schema import Attribute, AttrType, Schema
from repro.core.tango import Tango
from repro.dbms.database import MiniDB
from repro.optimizer.memo import Memo
from repro.optimizer.rules import RULES, default_rules

SCHEMA = Schema(
    [
        Attribute("K", AttrType.INT),
        Attribute("T1", AttrType.DATE),
        Attribute("T2", AttrType.DATE),
    ]
)

DB = Location.DBMS
MW = Location.MIDDLEWARE


def scan() -> Scan:
    return Scan("R", SCHEMA)


def apply_everywhere(rule, memo):
    for eq_class in memo.classes():
        for element in list(eq_class.elements):
            rule.apply(memo, memo.find(eq_class.id), element)


class TestX1MoveCoalesce:
    def test_produces_middleware_alternative(self):
        memo = Memo()
        root = memo.insert_tree(Coalesce(scan(), DB))
        apply_everywhere(RULES["X1"], memo)
        kinds = {
            (type(e.template).__name__, e.template.location.superscript)
            for c in memo.classes()
            for e in c.elements
        }
        assert ("Coalesce", "M") in kinds
        assert ("TransferD", "D") in kinds
        assert ("Sort", "D") in kinds
        __ = root

    def test_sort_keys_are_value_attrs_then_t1(self):
        memo = Memo()
        memo.insert_tree(Coalesce(scan(), DB))
        apply_everywhere(RULES["X1"], memo)
        sorts = [
            e.template
            for c in memo.classes()
            for e in c.elements
            if isinstance(e.template, Sort)
        ]
        assert sorts[0].keys == ("K", "T1")

    def test_skips_middleware_coalesce(self):
        memo = Memo()
        memo.insert_tree(Coalesce(TransferM(scan()), MW))
        before = memo.element_count
        apply_everywhere(RULES["X1"], memo)
        assert memo.element_count == before


class TestMergeRules:
    def test_x2_coalesce_idempotent(self):
        memo = Memo()
        outer = memo.insert_tree(Coalesce(Coalesce(scan(), DB), DB))
        inner = memo.insert_tree(Coalesce(scan(), DB))
        apply_everywhere(RULES["X2"], memo)
        assert memo.find(outer) == memo.find(inner)

    def test_x3_drops_dedup_under_coalesce(self):
        memo = Memo()
        memo.insert_tree(Coalesce(Dedup(scan(), DB), DB))
        memo.insert_tree(scan())
        apply_everywhere(RULES["X3"], memo)
        coalesce_elements = [
            e
            for c in memo.classes()
            for e in c.elements
            if isinstance(e.template, Coalesce)
        ]
        # The original (over dedup) plus the rewritten (over the scan).
        children = {
            type(memo.class_of(e.children[0]).representative).__name__
            for e in coalesce_elements
        }
        assert "Scan" in children and "Dedup" in children

    def test_x4_dedup_over_coalesce_merges(self):
        memo = Memo()
        outer = memo.insert_tree(Dedup(Coalesce(scan(), DB), DB))
        inner = memo.insert_tree(Coalesce(scan(), DB))
        apply_everywhere(RULES["X4"], memo)
        assert memo.find(outer) == memo.find(inner)

    def test_x5_dedup_idempotent(self):
        memo = Memo()
        outer = memo.insert_tree(Dedup(Dedup(scan(), DB), DB))
        inner = memo.insert_tree(Dedup(scan(), DB))
        apply_everywhere(RULES["X5"], memo)
        assert memo.find(outer) == memo.find(inner)

    def test_extension_rules_registered(self):
        names = {rule.name for rule in default_rules()}
        assert {"X1", "X2", "X3", "X4", "X5"} <= names


@pytest.fixture
def tango():
    db = MiniDB()
    db.execute(
        "CREATE TABLE POSITION (PosID INT, EmpName VARCHAR(16), T1 DATE, T2 DATE)"
    )
    db.execute(
        "INSERT INTO POSITION VALUES "
        "(1, 'Tom', 2, 10), (1, 'Tom', 10, 20), (1, 'Jane', 5, 25), "
        "(2, 'Tom', 5, 10), (2, 'Tom', 5, 10)"
    )
    return Tango(db)


class TestValidtimeCoalesced:
    def test_adjacent_periods_merge(self, tango):
        result = tango.query(
            "VALIDTIME COALESCED SELECT PosID, EmpName FROM POSITION "
            "ORDER BY PosID"
        )
        assert (1, "Tom", 2, 20) in result.rows

    def test_duplicates_collapse(self, tango):
        result = tango.query(
            "VALIDTIME COALESCED SELECT PosID, EmpName FROM POSITION "
            "ORDER BY PosID"
        )
        tom_pos2 = [row for row in result.rows if row[0] == 2]
        assert tom_pos2 == [(2, "Tom", 5, 10)]

    def test_coalesce_runs_in_middleware(self, tango):
        result = tango.query(
            "VALIDTIME COALESCED SELECT PosID, EmpName FROM POSITION "
            "ORDER BY PosID"
        )
        coalesce_nodes = [
            node for node in result.plan.walk() if isinstance(node, Coalesce)
        ]
        assert coalesce_nodes[0].location is Location.MIDDLEWARE

    def test_uncoalesced_query_keeps_fragments(self, tango):
        result = tango.query(
            "VALIDTIME SELECT PosID, EmpName FROM POSITION ORDER BY PosID"
        )
        tom_rows = [row for row in result.rows if row[:2] == (1, "Tom")]
        assert len(tom_rows) == 2

    def test_initial_plan_places_coalesce_in_dbms(self, tango):
        plan = tango.parse(
            "VALIDTIME COALESCED SELECT PosID, EmpName FROM POSITION"
        )
        coalesce_nodes = [
            node for node in plan.walk() if isinstance(node, Coalesce)
        ]
        assert coalesce_nodes[0].location is Location.DBMS
