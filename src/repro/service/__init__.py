"""The multi-tenant query service: TANGO as a long-lived server.

The paper positions TANGO as *middleware* between many clients and a
DBMS; this package is the serving layer that makes that literal.  A
:class:`QueryService` admits up to N concurrent queries over a shared
:class:`~repro.dbms.jdbc.ConnectionPool`, schedules them fair-share
across weighted tenants over one bounded admission queue, and sheds
load when the resilience layer's health classification
(:class:`~repro.resilience.health.HealthMonitor`) says the backend is
sick.

The public surface is the session/handle API:

    service = QueryService(db, ServiceConfig(max_concurrency=4))
    handle = service.submit(sql, tenant="analytics", priority=1)
    handle.status()          # queued | running | done | failed | cancelled
    result = handle.result(timeout=5.0)   # a QueryResult
    handle.cancel()          # dequeue, or abort at the next batch boundary

This is the middleware's one concurrent path.  A
:class:`~repro.core.tango.Tango` is the paper's single-client middleware
and runs each query on its caller's thread (``Tango.query``); a service
builds its own planner and learner, which its workers share.
"""

from repro.service.config import ServiceConfig, TenantSpec
from repro.service.service import QueryService

__all__ = ["QueryService", "ServiceConfig", "TenantSpec"]
