"""Frozen configuration for the query service.

Both dataclasses are frozen, like :class:`~repro.core.config.TangoConfig`
(which a :class:`~repro.service.QueryService` takes beside its
:class:`ServiceConfig`): a service never mutates its configuration
mid-flight.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.resilience.health import HealthPolicy


@dataclass(frozen=True)
class TenantSpec:
    """Scheduling parameters of one tenant.

    Tenants not declared in :attr:`ServiceConfig.tenants` are created on
    first submit as ``TenantSpec(name)``, so multi-tenant operation needs
    no registration step — specs exist to give *specific* tenants more
    (or less) than the default share.
    """

    name: str
    #: Fair-share weight: relative dispatch rate under contention.  A
    #: weight-8 tenant gets ~8 dispatch slots for every slot a weight-1
    #: tenant gets while both have queued work.
    weight: int = 1

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
    #: Pre-declared tenants; unknown tenants get ``TenantSpec(name)``.
    tenants: tuple[TenantSpec, ...] = ()
    #: How backend health is classified from query outcomes.
    health: HealthPolicy = HealthPolicy()

    def spec_for(self, tenant: str) -> TenantSpec:
        """The declared spec for *tenant*, or the default one."""
        for spec in self.tenants:
            if spec.name == tenant:
                return spec
        return TenantSpec(tenant)
