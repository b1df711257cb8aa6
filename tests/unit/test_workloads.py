"""Unit tests for workload generation: the generic generator, the UIS
dataset, and the Query 1-4 definitions."""

import pytest

from repro.dbms.database import MiniDB
from repro.temporal.timestamps import day_of, year_start
from repro.workloads import queries
from repro.workloads.generator import TemporalRelationSpec, generate_rows
from repro.workloads.uis import (
    EMPLOYEE_SCHEMA,
    POSITION_SCHEMA,
    POSITION_VARIANTS,
    employee_rows,
    load_uis,
    position_rows,
)


class TestGenerator:
    def test_deterministic_per_seed(self):
        spec = TemporalRelationSpec(cardinality=100, seed=5)
        assert generate_rows(spec) == generate_rows(spec)

    def test_different_seeds_differ(self):
        a = generate_rows(TemporalRelationSpec(cardinality=100, seed=1))
        b = generate_rows(TemporalRelationSpec(cardinality=100, seed=2))
        assert a != b

    def test_durations_respected(self):
        spec = TemporalRelationSpec(cardinality=200, min_duration=3, max_duration=9)
        for row in generate_rows(spec):
            assert 3 <= row[3] - row[2] <= 9

    def test_window_respected(self):
        spec = TemporalRelationSpec(cardinality=200)
        start = day_of(spec.window_start)
        end = day_of(spec.window_end)
        for row in generate_rows(spec):
            assert start <= row[2]
            assert row[3] <= end

    def test_paper_defaults(self):
        spec = TemporalRelationSpec()
        assert spec.cardinality == 100_000
        assert spec.min_duration == spec.max_duration == 7


class TestUISRows:
    def test_position_schema_has_eight_attributes(self):
        assert len(POSITION_SCHEMA) == 8

    def test_position_row_size_near_80_bytes(self):
        assert POSITION_SCHEMA.row_width == pytest.approx(80, rel=0.15)

    def test_employee_schema_has_31_attributes(self):
        assert len(EMPLOYEE_SCHEMA) == 31

    def test_employee_row_size_near_276_bytes(self):
        assert EMPLOYEE_SCHEMA.row_width == pytest.approx(276, rel=0.2)

    def test_position_rows_deterministic(self):
        assert position_rows(50, seed=9) == position_rows(50, seed=9)

    def test_starts_skewed_to_1995_and_later(self):
        rows = position_rows(5000)
        recent = sum(1 for row in rows if row[6] >= year_start(1995))
        assert recent / len(rows) == pytest.approx(0.65, abs=0.03)

    def test_little_data_before_1992(self):
        rows = position_rows(5000)
        old = sum(1 for row in rows if row[6] < year_start(1992))
        assert old / len(rows) == pytest.approx(0.10, abs=0.03)

    def test_periods_well_formed_and_capped(self):
        for row in position_rows(2000):
            assert row[6] < row[7] <= year_start(2000)

    def test_posid_distribution_is_skewed(self):
        from collections import Counter

        counts = Counter(row[0] for row in position_rows(5000))
        frequencies = sorted(counts.values(), reverse=True)
        top_decile = sum(frequencies[: max(1, len(frequencies) // 10)])
        assert top_decile / 5000 > 0.3  # heavy head, defeating uniformity

    def test_employee_ids_dense(self):
        rows = employee_rows(100)
        assert [row[0] for row in rows] == list(range(100))


class TestLoadUIS:
    def test_scaled_cardinalities(self):
        db = MiniDB()
        dataset = load_uis(db, scale=0.01)
        assert db.table("POSITION").cardinality == int(83_857 * 0.01)
        assert db.table("EMPLOYEE").cardinality == int(49_972 * 0.01)
        assert dataset.scale == 0.01

    def test_variants_created_with_nominal_names(self):
        db = MiniDB()
        dataset = load_uis(db, scale=0.01)
        for nominal in POSITION_VARIANTS:
            name = dataset.variant_names[nominal]
            assert name == f"POSITION_{nominal}"
            assert db.table(name).cardinality == max(10, int(nominal * 0.01))

    def test_variants_are_prefixes_of_full_relation(self):
        db = MiniDB()
        load_uis(db, scale=0.01)
        full = db.table("POSITION").rows
        variant = db.table("POSITION_8000").rows
        assert variant == full[: len(variant)]

    def test_analyze_ran(self):
        db = MiniDB()
        load_uis(db, scale=0.01, with_variants=False)
        assert db.statistics_of("POSITION") is not None

    def test_optional_pieces(self):
        db = MiniDB()
        load_uis(db, scale=0.01, with_variants=False, with_employee=False)
        assert db.list_tables() == ["POSITION"]


class TestQueryDefinitions:
    @pytest.fixture(scope="class")
    def db(self):
        instance = MiniDB()
        load_uis(instance, scale=0.005)
        return instance

    def test_query1_three_plans(self, db):
        specs = queries.query1_plans(db)
        assert [spec.name for spec in specs] == ["Q1-P1", "Q1-P2", "Q1-P3"]
        assert all(spec.plan is not None for spec in specs)

    def test_query1_sql_text(self):
        assert queries.query1_sql("POSITION_8000").startswith("VALIDTIME")

    def test_query2_six_plans(self, db):
        specs = queries.query2_plans(db, "1996-01-01")
        assert len(specs) == 6

    def test_query3_two_plans(self, db):
        specs = queries.query3_plans(db, "1995-01-01")
        assert len(specs) == 2

    def test_query4_hint_plans_are_sql(self, db):
        specs = queries.query4_plans(db, "POSITION_8000")
        assert specs[0].plan is not None
        assert "USE_NL" in specs[1].sql
        assert "USE_MERGE" in specs[2].sql

    def test_all_algebra_plans_validate(self, db):
        from repro.optimizer.physical import validate_plan

        for spec in (
            queries.query1_plans(db)
            + queries.query2_plans(db, "1996-01-01")
            + queries.query3_plans(db, "1995-01-01")
            + queries.query4_plans(db)
        ):
            if spec.plan is not None:
                validate_plan(spec.plan)

    def test_initial_plans_validate(self, db):
        from repro.optimizer.physical import validate_plan

        validate_plan(queries.query1_initial_plan(db))
        validate_plan(queries.query2_initial_plan(db, "1996-01-01"))
        validate_plan(queries.query3_initial_plan(db, "1995-01-01"))
        validate_plan(queries.query4_initial_plan(db))
