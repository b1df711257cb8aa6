"""Unit tests for cost-factor calibration."""

import pytest

from repro.dbms.database import MiniDB
from repro.dbms.jdbc import Connection
from repro.errors import CalibrationError
from repro.optimizer.calibration import Calibrator, _sample_rows
from repro.optimizer.costs import CostFactors


@pytest.fixture
def connection():
    return Connection(MiniDB())


class TestSampleRows:
    def test_deterministic(self):
        assert _sample_rows(100, seed=1) == _sample_rows(100, seed=1)

    def test_count(self):
        assert len(_sample_rows(250)) == 250

    def test_periods_are_well_formed(self):
        assert all(row[2] < row[3] for row in _sample_rows(100))


class TestCalibrator:
    def test_requires_sizes(self, connection):
        with pytest.raises(CalibrationError):
            Calibrator(connection, sizes=())

    def test_produces_positive_factors(self, connection):
        factors = Calibrator(connection, sizes=(100,)).calibrate()
        for name in ("p_sem", "p_sortm", "p_taggm1", "p_taggd1", "p_scand", "p_joind"):
            assert getattr(factors, name) > 0, name
        # Transfers fit a two-term model; in-process the per-byte share can
        # legitimately measure zero, but the combined cost never can.
        assert factors.p_tm >= 0 and factors.p_td >= 0
        assert factors.p_tmr + factors.p_tm > 0
        assert factors.p_tdr + factors.p_td > 0

    def test_taggr_d_costs_more_than_taggr_m(self, connection):
        # The headline asymmetry the whole paper rests on: the SQL rewrite
        # of temporal aggregation is far more expensive per byte than the
        # middleware algorithm.
        factors = Calibrator(connection, sizes=(300,)).calibrate()
        assert factors.p_taggd1 > factors.p_taggm1

    def test_base_factors_preserved_for_unfitted_fields(self, connection):
        base = CostFactors(p_prodd=123.0, p_dedupm=9.0)
        factors = Calibrator(connection, sizes=(100,)).calibrate(base)
        assert factors.p_prodd == 123.0
        assert factors.p_dedupm == 9.0

    def test_no_tables_leak(self, connection):
        Calibrator(connection, sizes=(100,)).calibrate()
        assert connection.db.list_tables() == []
