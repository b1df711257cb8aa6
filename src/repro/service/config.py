"""Frozen configuration for the query service.

Both dataclasses are frozen: :class:`ServiceConfig` rides inside the
frozen :class:`~repro.core.tango.TangoConfig`, so nothing here may be
mutable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.resilience.health import HealthPolicy


@dataclass(frozen=True)
class TenantSpec:
    """Scheduling parameters of one tenant.

    Tenants not declared in :attr:`ServiceConfig.tenants` are created on
    first submit with the config's defaults, so multi-tenant operation
    needs no registration step — specs exist to give *specific* tenants
    more (or less) than the default share.
    """

    name: str
    #: Fair-share weight: relative dispatch rate under contention.  A
    #: weight-8 tenant gets ~8 dispatch slots for every slot a weight-1
    #: tenant gets while both have queued work.
    weight: int = 1
    #: Quota: this tenant's queries running at once.  None = bounded only
    #: by the service's ``max_concurrency``.
    max_in_flight: int | None = None
    #: This tenant's share of the admission queue.  None = bounded only
    #: by the global ``queue_limit``.
    queue_limit: int | None = None

    def __post_init__(self):
        if self.weight < 1:
            raise ValueError(f"tenant {self.name!r}: weight must be >= 1")


@dataclass(frozen=True)
class ServiceConfig:
    """Construction-time configuration of a :class:`QueryService`."""

    #: Queries executing concurrently (worker threads; also the size of
    #: the service's connection pool).
    max_concurrency: int = 4
    #: Total queries waiting in the admission queue before submits are
    #: shed with :class:`~repro.errors.QueueFullError`.
    queue_limit: int = 64
    #: Pre-declared tenants; unknown tenants get the defaults below.
    tenants: tuple[TenantSpec, ...] = ()
    #: Fair-share weight for undeclared tenants.
    default_weight: int = 1
    #: Quota for undeclared tenants (None = up to ``max_concurrency``).
    default_max_in_flight: int | None = None
    #: Per-tenant queue bound for undeclared tenants (None = global only).
    default_queue_limit: int | None = None
    #: How backend health is classified from query outcomes.
    health: HealthPolicy = HealthPolicy()
    #: Shed new submissions with :class:`~repro.errors.BackendSickError`
    #: while the backend classifies SICK (queued work keeps draining at
    #: reduced concurrency either way).
    shed_when_sick: bool = True
    #: Concurrency multiplier applied while the backend classifies
    #: DEGRADED — deferring load instead of piling it onto a struggling
    #: DBMS.  SICK drains one query at a time regardless.
    degraded_concurrency_factor: float = 0.5

    def spec_for(self, tenant: str) -> TenantSpec:
        """The declared spec for *tenant*, or one built from defaults."""
        for spec in self.tenants:
            if spec.name == tenant:
                return spec
        return TenantSpec(
            tenant,
            weight=self.default_weight,
            max_in_flight=self.default_max_in_flight,
            queue_limit=self.default_queue_limit,
        )
