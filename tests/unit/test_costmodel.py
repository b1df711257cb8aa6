"""Unit tests for the simulated cost meter."""

from repro.dbms.costmodel import IO_WEIGHT, CostMeter, CostSnapshot


class TestCostMeter:
    def test_starts_at_zero(self):
        meter = CostMeter()
        assert meter.ticks == 0

    def test_io_weighting(self):
        meter = CostMeter()
        meter.charge_io(2)
        meter.charge_cpu(5)
        assert meter.ticks == 2 * IO_WEIGHT + 5

    def test_reset(self):
        meter = CostMeter()
        meter.charge_cpu(7)
        meter.reset()
        assert meter.ticks == 0

    def test_snapshot_is_immutable_copy(self):
        meter = CostMeter()
        meter.charge_cpu(3)
        snapshot = meter.snapshot()
        meter.charge_cpu(4)
        assert snapshot.cpu == 3
        assert meter.cpu == 7


class TestSnapshotArithmetic:
    def test_subtraction(self):
        delta = CostSnapshot(5, 100) - CostSnapshot(2, 40)
        assert delta.io == 3
        assert delta.cpu == 60

    def test_ticks(self):
        assert CostSnapshot(1, 1).ticks == IO_WEIGHT + 1


class TestMeterWindow:
    """The work charged during a block is the difference of two snapshots."""

    def test_measures_delta_only(self):
        meter = CostMeter()
        meter.charge_cpu(100)
        before = meter.snapshot()
        meter.charge_cpu(5)
        meter.charge_io(1)
        delta = meter.snapshot() - before
        assert delta.cpu == 5
        assert delta.io == 1

    def test_nested_windows(self):
        meter = CostMeter()
        outer = meter.snapshot()
        meter.charge_cpu(1)
        inner = meter.snapshot()
        meter.charge_cpu(2)
        assert (meter.snapshot() - inner).cpu == 2
        assert (meter.snapshot() - outer).cpu == 3
