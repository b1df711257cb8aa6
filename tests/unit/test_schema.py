"""Unit tests for schemas and attributes."""

import pytest

from repro.algebra.schema import Attribute, AttrType, Schema
from repro.errors import SchemaError


def sample_schema() -> Schema:
    return Schema(
        [
            Attribute("PosID", AttrType.INT),
            Attribute("EmpName", AttrType.STR, 16),
            Attribute("T1", AttrType.DATE),
            Attribute("T2", AttrType.DATE),
        ]
    )


class TestAttrType:
    def test_numeric_flags(self):
        assert AttrType.INT.is_numeric
        assert AttrType.DATE.is_numeric
        assert AttrType.FLOAT.is_numeric
        assert not AttrType.STR.is_numeric

    def test_attribute_width_override(self):
        assert Attribute("Name", AttrType.STR, 40).byte_width == 40

    def test_attribute_default_width(self):
        assert Attribute("X", AttrType.INT).byte_width == 8


class TestSchemaBasics:
    def test_len(self):
        assert len(sample_schema()) == 4

    def test_index_of_case_insensitive(self):
        assert sample_schema().index_of("posid") == 0
        assert sample_schema().index_of("POSID") == 0

    def test_unknown_attribute_raises(self):
        with pytest.raises(SchemaError):
            sample_schema().index_of("missing")

    def test_contains(self):
        schema = sample_schema()
        assert "T1" in schema
        assert "t1" in schema
        assert "T3" not in schema

    def test_getitem_by_name_and_index(self):
        schema = sample_schema()
        assert schema["EmpName"].name == "EmpName"
        assert schema[0].name == "PosID"

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema([Attribute("A"), Attribute("a")])

    def test_names(self):
        assert sample_schema().names == ("PosID", "EmpName", "T1", "T2")

    def test_row_width(self):
        assert sample_schema().row_width == 8 + 16 + 8 + 8

    def test_equality_and_hash(self):
        assert sample_schema() == sample_schema()
        assert hash(sample_schema()) == hash(sample_schema())

    def test_type_of(self):
        assert sample_schema().type_of("T1") is AttrType.DATE


class TestSchemaDerivation:
    def test_project_order_follows_argument(self):
        projected = sample_schema().project(["T1", "PosID"])
        assert projected.names == ("T1", "PosID")

    def test_concat_disjoint(self):
        left = Schema([Attribute("A"), Attribute("B")])
        right = Schema([Attribute("C")])
        assert left.concat(right).names == ("A", "B", "C")

    def test_concat_disambiguates(self):
        left = Schema([Attribute("PosID"), Attribute("T1")])
        right = Schema([Attribute("PosID"), Attribute("T1")])
        assert left.concat(right).names == ("PosID", "T1", "PosID_2", "T1_2")

    def test_concat_disambiguation_cascades(self):
        left = Schema([Attribute("X"), Attribute("X_2")])
        right = Schema([Attribute("X")])
        assert left.concat(right).names == ("X", "X_2", "X_3")

    def test_concat_strict_raises(self):
        left = Schema([Attribute("A")])
        with pytest.raises(SchemaError):
            left.concat(left, disambiguate=False)

    def test_rename_preserves_types(self):
        # What a disambiguated concat and a qualified column are built with.
        renamed = sample_schema()["T1"].renamed("Start")
        assert (renamed.name, renamed.type) == ("Start", AttrType.DATE)
