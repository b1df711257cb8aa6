"""The multi-tenant query service: TANGO as a long-lived server.

The paper positions TANGO as *middleware* between many clients and a
DBMS; this package is the serving layer that makes that literal.  A
:class:`QueryService` admits up to N concurrent queries over a shared
:class:`~repro.dbms.jdbc.ConnectionPool`, schedules them fair-share
across weighted tenants (bounded admission queue, per-tenant queue limits),
and sheds load when the resilience layer's health classification
(:class:`~repro.resilience.health.HealthMonitor`) says the backend is
sick.

The public surface is the session/handle API:

    service = QueryService(db, ServiceConfig(max_concurrency=4))
    handle = service.submit(sql, tenant="analytics", priority=1)
    handle.status()          # queued | running | done | failed | cancelled
    result = handle.result(timeout=5.0)   # a QueryResult
    handle.cancel()          # dequeue, or abort at the next batch boundary

:meth:`Tango.submit` exposes the same handle surface on a standalone
instance (executing inline), and routes here when
``TangoConfig.service`` is set — one API for the scheduler, the CLI,
and the tests.
"""

from repro.service.config import ServiceConfig, TenantSpec
from repro.service.handle import HandleState, QueryHandle
from repro.service.scheduler import FairShareScheduler
from repro.service.service import QueryService

__all__ = [
    "FairShareScheduler",
    "HandleState",
    "QueryHandle",
    "QueryService",
    "ServiceConfig",
    "TenantSpec",
]
