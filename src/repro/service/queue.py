"""Bounded job queue with a resume fast lane, plus tenant admission.

Two pieces of admission control sit in front of the worker pool:

* :class:`JobQueue` — a bounded two-lane queue.  Fresh submissions go
  through the bounded lane and are rejected with a typed
  :class:`~repro.service.jobs.BackpressureError` when it is full —
  the queue can never grow unboundedly and never drops an accepted
  job.  Crash-resume requeues go through an *unbounded* priority lane:
  a job that already holds admission (and journaled work on disk) must
  never be bounced by later arrivals, and workers drain resumes first
  so recovery latency stays low.

* :class:`TenantPools` — one shared
  :class:`~repro.resilience.DeadlineBudget` of gate units per tenant.
  Admission checks the pool *before* enqueueing; completed jobs charge
  their actual gate-unit spend.  Per the deadline-budget semantics,
  concurrently running jobs of one tenant may overdraw the pool by
  their in-flight work, but once it reads expired every later
  submission is rejected with :class:`~repro.service.jobs.AdmissionError`.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque

from ..resilience import DeadlineBudget
from .jobs import AdmissionError, BackpressureError, Job, ServiceError

__all__ = ["JobQueue", "TenantPools"]


class JobQueue:
    """Bounded FIFO with an unbounded resume fast lane.

    ``submit`` is the admission-controlled entry (typed backpressure);
    ``requeue`` is the supervisor-only crash-recovery entry; ``get``
    is the worker entry, returning ``None`` once the queue is closed
    and drained (the worker's shutdown signal).
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._fresh: deque[Job] = deque()
        self._resume: deque[Job] = deque()
        self._available = asyncio.Event()
        self.closed = False

    @property
    def depth(self) -> int:
        return len(self._fresh) + len(self._resume)

    def submit(self, job: Job) -> None:
        """Enqueue a fresh job or raise :class:`BackpressureError`."""
        if self.closed:
            raise ServiceError("job queue is closed (service draining)")
        if len(self._fresh) >= self.capacity:
            raise BackpressureError(self.capacity, self.depth)
        job.queued_at = time.monotonic()
        self._fresh.append(job)
        self._available.set()

    def requeue(self, job: Job) -> None:
        """Re-admit a crashed-but-resumable job at the front of the line.

        Deliberately unbounded: the job was already admitted once and
        its journaled probes are on disk — bouncing it now would strand
        that work, which is exactly what the resume lane exists to
        prevent.
        """
        job.state = "queued"
        job.queued_at = time.monotonic()
        self._resume.append(job)
        self._available.set()

    def drain_pending(self) -> list[Job]:
        """Remove and return everything still queued (shutdown path)."""
        pending = list(self._resume) + list(self._fresh)
        self._resume.clear()
        self._fresh.clear()
        return pending

    def close(self) -> None:
        """Stop intake; blocked ``get`` calls return once drained."""
        self.closed = True
        self._available.set()

    async def get(self) -> Job | None:
        """Next job (resume lane first), or ``None`` on closed+empty."""
        while True:
            if self._resume:
                return self._resume.popleft()
            if self._fresh:
                return self._fresh.popleft()
            if self.closed:
                return None
            self._available.clear()
            await self._available.wait()


class TenantPools:
    """Per-tenant gate-unit budgets backing service admission control.

    ``budgets`` maps tenant name to a total gate-unit allowance; a
    tenant with no entry is unlimited (admission always passes, charges
    are counted but never rejected).
    """

    def __init__(self, budgets: dict[str, float] | None = None) -> None:
        self._pools: dict[str, DeadlineBudget] = {}
        self._unlimited_charged: dict[str, float] = {}
        for tenant, units in (budgets or {}).items():
            self._pools[tenant] = DeadlineBudget(units)

    def pool(self, tenant: str) -> DeadlineBudget | None:
        return self._pools.get(tenant)

    def admit(self, tenant: str) -> None:
        """Raise :class:`AdmissionError` if the tenant's pool is dry."""
        pool = self._pools.get(tenant)
        if pool is not None and pool.expired:
            raise AdmissionError(tenant, pool.budget, pool.charged)

    def charge(self, tenant: str, gate_units: float) -> None:
        """Debit a completed job's actual spend against its tenant."""
        pool = self._pools.get(tenant)
        if pool is not None:
            pool.charge(gate_units)
        else:
            self._unlimited_charged[tenant] = (
                self._unlimited_charged.get(tenant, 0.0)
                + max(0.0, float(gate_units))
            )

    def as_dict(self) -> dict[str, object]:
        out: dict[str, object] = {}
        for tenant, pool in sorted(self._pools.items()):
            out[tenant] = pool.as_dict()
        for tenant, charged in sorted(self._unlimited_charged.items()):
            out.setdefault(tenant, {"budget": None, "charged": charged})
        return out
