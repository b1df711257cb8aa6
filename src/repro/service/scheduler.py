"""Weighted fair-share scheduling over a bounded admission queue.

Stride scheduling: every tenant carries a *pass* value advanced by
``STRIDE_SCALE / weight`` per dispatch, and the dispatcher always serves
the runnable tenant with the lowest pass.  A weight-8 tenant therefore
gets ~8 dispatch slots for every slot a weight-1 tenant gets while both
have queued work — and a tenant with no backlog costs the others nothing.
When an idle tenant re-joins, its pass is advanced to the current virtual
time, so sitting out does not bank credit it could later use to starve
everyone else (the classic stride join rule).

Within a tenant, queries order by ``priority`` (higher first), then
submission order.  Admission is bounded by one global queue limit, which
rejects with :class:`~repro.errors.QueueFullError` rather than queueing
unboundedly.

The scheduler is the synchronization point of the service: ``enqueue``
is the admission door, ``next_task`` blocks worker threads until work
*and* capacity exist (capacity is a callable so the service can shrink
it while the backend is degraded), and ``task_done`` returns quota.
"""

from __future__ import annotations

import heapq
import itertools
import threading

from repro.errors import QueueFullError
from repro.service.config import ServiceConfig, TenantSpec
from repro.service.handle import HandleState, QueryHandle

#: Numerator of the stride: pass advances by STRIDE_SCALE / weight.
STRIDE_SCALE = 1 << 20

#: How often a blocked worker re-polls capacity (seconds).  Capacity can
#: change without an enqueue/task_done notification (health decay), so
#: waits are bounded.
_POLL_SECONDS = 0.05


class _TenantState:
    """Mutable scheduling state of one tenant (guarded by the scheduler)."""

    __slots__ = (
        "spec", "heap", "queued", "in_flight", "pass_value", "stride",
        "dispatched", "sheds",
    )

    def __init__(self, spec: TenantSpec, pass_value: float):
        self.spec = spec
        #: (-priority, seq, handle) — max-priority first, FIFO within.
        self.heap: list[tuple[int, int, QueryHandle]] = []
        #: Live (non-cancelled) queued entries; the heap may hold more.
        self.queued = 0
        self.in_flight = 0
        self.pass_value = pass_value
        self.stride = STRIDE_SCALE / spec.weight
        self.dispatched = 0
        self.sheds = 0

    def runnable(self) -> bool:
        return self.queued > 0


class FairShareScheduler:
    """The admission queue + dispatch policy of one query service."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self._tenants: dict[str, _TenantState] = {}
        self._queued_total = 0
        self._running_total = 0
        self._seq = itertools.count()
        self._closed = False
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)

    # -- admission ------------------------------------------------------------------

    def enqueue(self, handle: QueryHandle) -> None:
        """Admit *handle*, or reject with :class:`QueueFullError`."""
        with self._lock:
            if self._closed:
                raise QueueFullError("the query service is shutting down")
            tenant = self._tenant(handle.tenant)
            if self._queued_total >= self.config.queue_limit:
                tenant.sheds += 1
                raise QueueFullError(
                    f"admission queue is full ({self._queued_total} queued, "
                    f"limit {self.config.queue_limit})"
                )
            if tenant.queued == 0:
                # Re-joining the virtual timeline: no banked credit.
                tenant.pass_value = max(tenant.pass_value, self._virtual_time())
            heapq.heappush(
                tenant.heap, (-handle.priority, next(self._seq), handle)
            )
            tenant.queued += 1
            self._queued_total += 1
            self._wakeup.notify()

    # -- dispatch -------------------------------------------------------------------

    def next_task(self, capacity=None, timeout: float | None = None):
        """The next (handle, tenant name) to run, or None on shutdown.

        Blocks while there is no runnable work or no capacity.
        *capacity* is a zero-argument callable returning the current
        global concurrency bound (None = unbounded); it is re-polled
        every ``_POLL_SECONDS`` so health-driven changes take effect
        without a notification.  *timeout* bounds the total wait (None =
        wait for shutdown).
        """
        remaining = timeout
        with self._wakeup:
            while True:
                cap = capacity() if capacity is not None else None
                if cap is None or self._running_total < cap:
                    chosen = self._pick_locked()
                    if chosen is not None:
                        tenant, handle = chosen
                        tenant.pass_value += tenant.stride
                        tenant.in_flight += 1
                        tenant.dispatched += 1
                        self._running_total += 1
                        return handle, tenant.spec.name
                if self._closed and self._queued_total == 0:
                    return None
                if remaining is not None:
                    if remaining <= 0:
                        return None
                    step = min(_POLL_SECONDS, remaining)
                    self._wakeup.wait(step)
                    remaining -= step
                else:
                    self._wakeup.wait(_POLL_SECONDS)

    def _pick_locked(self):
        """Lowest-pass runnable tenant and its best queued handle.

        Cancelled entries are tombstones: clients cancel through the
        handle alone (no scheduler reference), so the queue accounting is
        corrected here, when a tombstone is dropped, rather than at
        cancel time.
        """
        best: _TenantState | None = None
        for tenant in self._tenants.values():
            self._drop_tombstones(tenant)
            if not tenant.runnable():
                continue
            if best is None or tenant.pass_value < best.pass_value:
                best = tenant
        if best is None:
            return None
        while best.heap:
            _, _, handle = heapq.heappop(best.heap)
            best.queued -= 1
            self._queued_total -= 1
            if handle.status() is HandleState.CANCELLED:
                continue
            return best, handle
        return None

    def _drop_tombstones(self, tenant: _TenantState) -> None:
        while tenant.heap and tenant.heap[0][2].status() is HandleState.CANCELLED:
            heapq.heappop(tenant.heap)
            tenant.queued -= 1
            self._queued_total -= 1

    def task_done(self, tenant_name: str) -> None:
        """Return the dispatch slot and the tenant's in-flight unit."""
        with self._wakeup:
            tenant = self._tenants.get(tenant_name)
            if tenant is not None and tenant.in_flight > 0:
                tenant.in_flight -= 1
            self._running_total -= 1
            self._wakeup.notify_all()

    # -- lifecycle / introspection ----------------------------------------------------

    def close(self, cancel_queued: bool = False) -> None:
        """Stop admitting; optionally cancel everything still queued.

        Workers drain the remaining queue (unless cancelled here) and
        then ``next_task`` returns None, ending their loops.
        """
        with self._wakeup:
            self._closed = True
            if cancel_queued:
                for tenant in self._tenants.values():
                    while tenant.heap:
                        _, _, handle = heapq.heappop(tenant.heap)
                        tenant.queued -= 1
                        self._queued_total -= 1
                        if handle.status() is not HandleState.CANCELLED:
                            handle.mark_cancelled()
            self._wakeup.notify_all()

    def _virtual_time(self) -> float:
        active = [
            tenant.pass_value
            for tenant in self._tenants.values()
            if tenant.queued > 0 or tenant.in_flight > 0
        ]
        return min(active) if active else 0.0

    def _tenant(self, name: str) -> _TenantState:
        state = self._tenants.get(name)
        if state is None:
            state = _TenantState(self.config.spec_for(name), self._virtual_time())
            self._tenants[name] = state
        return state

    @property
    def queued_total(self) -> int:
        return self._queued_total

    @property
    def running_total(self) -> int:
        return self._running_total

    def depth(self, tenant: str) -> int:
        with self._lock:
            state = self._tenants.get(tenant)
            return state.queued if state is not None else 0

    def snapshot(self) -> dict:
        """Per-tenant queue/dispatch state (JSON-ready, for dashboards)."""
        with self._lock:
            return {
                name: {
                    "weight": state.spec.weight,
                    "queued": state.queued,
                    "in_flight": state.in_flight,
                    "dispatched": state.dispatched,
                    "sheds": state.sheds,
                }
                for name, state in sorted(self._tenants.items())
            }
