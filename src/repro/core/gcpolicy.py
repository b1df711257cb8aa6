"""The cyclic collector while TANGO is open (DESIGN.md §24).

CPython's collector makes a generation-0 pass every 700 net container
allocations, and each pass re-reads every young object still alive: on
TANGO's hot paths that is the row tuples of a batch being drained, and no
pass over them has ever found a cycle (``tests/integration/
test_no_cycles.py``).  While at least one :class:`~repro.core.tango.Tango`
or query service (``QueryService``) is open, generation 0 waits for
:data:`YOUNG_LIMIT` young objects instead.  The collector counts *net*
allocations, and a query's transient rows die well before that many
accumulate, so no pass sees them; a cycle made on an error path
(traceback ↔ frame) is still collected, after at most that many objects.

The setting is process-wide: the first :func:`hold` saves the caller's
thresholds and raises generation 0 (never lowering it, and leaving
generations 1 and 2 alone); the last :func:`release` restores the saved
thresholds.  A caller who disabled automatic collection
(``gc.set_threshold(0)``) keeps it disabled.
"""

from __future__ import annotations

import gc
import threading

#: Generation 0's threshold while a hold is taken.
YOUNG_LIMIT = 100_000

_lock = threading.Lock()
_holds = 0
_saved: tuple[int, ...] = ()


def hold() -> None:
    """Take a hold; the first one raises generation 0's threshold."""
    global _holds, _saved
    with _lock:
        if _holds == 0:
            _saved = gc.get_threshold()
            young, *older = _saved
            if young:
                gc.set_threshold(max(YOUNG_LIMIT, young), *older)
        _holds += 1


def release() -> None:
    """Give a hold back; the last one restores the saved thresholds."""
    global _holds
    with _lock:
        if _holds == 0:
            raise RuntimeError("gcpolicy.release() without a hold")
        _holds -= 1
        if _holds == 0:
            gc.set_threshold(*_saved)
