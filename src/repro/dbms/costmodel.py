"""Deterministic work accounting for MiniDB.

Wall-clock timings of a pure-Python engine are noisy and machine-dependent;
the *shape* results of the paper (which plan wins, where the crossover sits)
should be checkable deterministically.  Every MiniDB iterator therefore
charges a :class:`CostMeter` with the work it performs:

* ``io`` — simulated block reads/writes;
* ``cpu`` — per-tuple processing steps (comparisons, moves, hash probes).

``ticks`` combines the two with a fixed I/O-to-CPU weight, loosely "one block
I/O costs as much as 1000 tuple touches" — the classic textbook ratio.  The
meter is purely observational: it never slows execution down.
"""

from __future__ import annotations

from dataclasses import dataclass

#: One simulated block I/O costs this many CPU-step equivalents.
IO_WEIGHT = 1000


@dataclass
class CostSnapshot:
    """An immutable point-in-time reading of a meter."""

    io: int
    cpu: int

    @property
    def ticks(self) -> int:
        return self.io * IO_WEIGHT + self.cpu

    def __sub__(self, other: "CostSnapshot") -> "CostSnapshot":
        return CostSnapshot(self.io - other.io, self.cpu - other.cpu)


@dataclass
class CostMeter:
    """Accumulates simulated I/O and CPU work."""

    io: int = 0
    cpu: int = 0

    def charge_io(self, blocks: int) -> None:
        self.io += blocks

    def charge_cpu(self, steps: int) -> None:
        self.cpu += steps

    @property
    def ticks(self) -> int:
        """Combined work units (I/O weighted by :data:`IO_WEIGHT`)."""
        return self.io * IO_WEIGHT + self.cpu

    def snapshot(self) -> CostSnapshot:
        return CostSnapshot(self.io, self.cpu)

    def reset(self) -> None:
        self.io = 0
        self.cpu = 0
