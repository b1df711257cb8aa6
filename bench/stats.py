"""Order statistics, the percentile floor, and machine-speed normalisation.

Raw wall time on a small shared box is bimodal: the same loop runs 25 %
slower for a few seconds, then fast again, several times within one run
(CPU time tracks wall time, so it is machine speed, not scheduling).  A
frozen pure-Python reference kernel timed right beside the work moves in
step with it (operation / kernel stayed within 2.21-2.22 across both
speeds), so the timed run is cut into short rounds, each bracketed by kernel
samples it shares with its neighbours, and every round's samples and wall
time are divided by ``median(its kernel samples) / REF_NOMINAL_MS`` — "ms at
reference speed".  The kernel must never change: it is the yardstick.
"""

from __future__ import annotations

import statistics
import time
from typing import Sequence

#: The reference kernel's nominal time; a machine that runs it in exactly
#: this long has speed factor 1.
REF_NOMINAL_MS = 10.0
#: Reference samples per reading when the caller does not say.
REF_SAMPLES_PER_SIDE = 4
#: p90 needs ten samples beyond it.
P90_MIN_SAMPLES = 100


def ref_kernel_ms() -> float:
    """One timing of the frozen reference kernel (list build, sort, dict
    counting), in milliseconds."""
    begin = time.perf_counter()
    xs = [(i * 7919) % 10007 for i in range(60000)]
    xs.sort()
    d: dict[int, int] = {}
    for x in xs:
        d[x] = d.get(x, 0) + 1
    return (time.perf_counter() - begin) * 1e3


def ref_samples(count: int = REF_SAMPLES_PER_SIDE) -> list[float]:
    return [ref_kernel_ms() for _ in range(count)]


def speed_factor(reference_ms: Sequence[float]) -> float:
    """How much slower than nominal the machine ran (1.25 = 25 % slower)."""
    return statistics.median(reference_ms) / REF_NOMINAL_MS


def normalise_round(
    samples: Sequence[float], wall: float, reference_ms: Sequence[float]
) -> tuple[list[float], float]:
    """Divide one round's samples and wall time by its speed factor."""
    factor = speed_factor(reference_ms)
    return [sample / factor for sample in samples], wall / factor


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of *values* (``fraction`` in 0..1)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def p90(values: Sequence[float]) -> float | None:
    """The 90th percentile, or None below the sample floor: a percentile is
    reported only with at least ten samples beyond it."""
    if len(values) < P90_MIN_SAMPLES:
        return None
    return percentile(values, 0.90)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as ``statistics.quantiles``
    gives them; a single value is its own quartiles."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    first, second, third = statistics.quantiles(values, n=4)
    return first, second, third


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    first, middle, third = quartiles(values)
    return (third - first) / middle if middle else 0.0
