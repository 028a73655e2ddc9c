"""A chaos wrapper for result stores: planned, transient write failures.

:class:`FaultyStore` decorates any :class:`~repro.store.base.ResultStore`
and fails ``put`` calls according to the wrapped
:class:`~repro.faults.plan.FaultPlan`'s ``store_failure_rate`` channel —
deterministically per fingerprint digest, and *transiently*: the store
counts attempts per digest, so a retried write (same campaign or a
resume) goes through.  Reads are never perturbed; a store that lies on
reads would break the caching contract rather than test resilience to
flaky persistence.  Everything else — ``get_many``, ``flush`` (the
campaign's durability point) and ``io_stats`` (the telemetry
``dispatch:store_*`` counters) — goes straight to the inner store, so
wrapping a batching store hides none of its write path.

Used by the chaos tests to pin down that
:class:`~repro.store.CachingRunner` treats the store as a cache, not a
correctness dependency: a failed write costs a cache entry, never an
outcome.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable

from repro.campaign.spec import ScenarioSpec
from repro.faults.plan import FaultPlan, InjectedFaultError
from repro.store.base import ResultStore

__all__ = ["FaultyStore"]


class FaultyStore(ResultStore):
    """Delegating store whose writes fail on the plan's schedule."""

    def __init__(self, inner: ResultStore, plan: FaultPlan) -> None:
        self._inner = inner
        self._plan = plan
        self._write_attempts: Dict[str, int] = {}
        #: Digests whose first write was dropped (observable by tests).
        self.failed_writes: int = 0

    def get(self, fingerprint: str):
        return self._inner.get(fingerprint)

    def get_many(self, specs: Iterable[ScenarioSpec]):
        return self._inner.get_many(specs)

    def put(self, fingerprint: str, outcome) -> None:
        attempt = self._write_attempts.get(fingerprint, 0) + 1
        self._write_attempts[fingerprint] = attempt
        if self._plan.store_write_fails(fingerprint, attempt):
            self.failed_writes += 1
            raise InjectedFaultError(
                f"injected store-write failure for {fingerprint[:12]} "
                f"(attempt {attempt})"
            )
        self._inner.put(fingerprint, outcome)

    def fingerprints(self) -> FrozenSet[str]:
        return self._inner.fingerprints()

    def flush(self) -> None:
        self._inner.flush()

    def io_stats(self) -> Dict[str, int]:
        return self._inner.io_stats()

    def close(self) -> None:
        self._inner.close()
