"""Fault tolerance for the middleware↔DBMS boundary.

TANGO's premise is a middleware that keeps behaving sensibly when the DBMS
behaves differently than expected (Sections 3.2 and 7).  This package makes
that concrete for outright *failures* on the transport the transfer
operators ride:

* :class:`~repro.resilience.faults.FaultInjector` — a deterministic,
  seeded chaos harness wired into the JDBC layer, so any test or benchmark
  can run the paper's queries under transient errors, latency spikes, and
  connection drops;
* :class:`~repro.resilience.retry.RetryPolicy` /
  :class:`~repro.resilience.retry.RetryState` — capped exponential backoff
  with deterministic jitter and a per-query retry budget, applied inside
  ``TRANSFER^M`` fetches and ``TRANSFER^D`` chunk loads;
* query deadlines (``TangoConfig.deadline_seconds``) checked at batch
  boundaries in the execution engine; and
* graceful degradation: when a middleware-partitioned plan fails beyond
  its retry budget, :meth:`Tango.query` tears the plan down and re-executes
  the Section 3.1 initial plan (all processing in the DBMS), so a flaky
  connection costs latency, never a wrong answer;
* backend health classification
  (:class:`~repro.resilience.health.HealthMonitor`): per-query outcomes —
  clean, fallback-rescued, retry-exhausted, dropped, deadline-violated —
  folded into a sliding window and classified ``HEALTHY``/``DEGRADED``/
  ``SICK``, the signal the query service's admission control sheds on.
"""

from repro.resilience.faults import FaultInjector, FaultPolicy
from repro.resilience.retry import RetryPolicy

__all__ = ["FaultInjector", "FaultPolicy", "RetryPolicy"]
