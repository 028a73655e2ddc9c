"""Fault injection and fault-tolerant supervision for campaigns.

The package has two halves:

* :mod:`repro.faults.plan` — the *chaos* side: a deterministic, seeded
  :class:`FaultPlan` describing which scenarios crash their worker,
  hang, raise or are delayed (and which store writes fail), plus the
  :class:`RetryPolicy` and :class:`FaultStats` that parameterise and
  report surviving it.
* :mod:`repro.faults.supervisor` — the *tolerance* side: the
  :class:`Supervisor` dispatch loop the campaign runner executes on.
  It forks its workers, each on a pipe of its own, so it knows which
  tasks a dead or overrunning worker held; it retries exactly those,
  bisects, and quarantines poison specs.  It owns the workers from
  fork to teardown and passes every task its telemetry slice, fault
  plan and worker flag as arguments.

``CampaignRunner(faults=FaultPlan(...), retry=RetryPolicy(...))``
threads both through every backend; the headline invariant (pinned in
``tests/faults/``) is that a quarantine-free plan never changes a
campaign's outcomes — only its schedule.

:class:`FaultyStore` (store-write chaos) is exposed lazily because it
pulls in :mod:`repro.store`, which itself imports the campaign runner;
``from repro.faults import FaultyStore`` works once either package is
fully loaded, which is always true outside the import dance itself.
"""

from repro.faults.plan import (
    FAULT_KINDS,
    FaultAction,
    FaultPlan,
    FaultStats,
    InjectedFaultError,
    RetryPolicy,
)
from repro.faults.supervisor import QuarantineError, Supervisor

__all__ = [
    "FAULT_KINDS",
    "FaultAction",
    "FaultPlan",
    "FaultStats",
    "FaultyStore",
    "InjectedFaultError",
    "QuarantineError",
    "RetryPolicy",
    "Supervisor",
]


def __getattr__(name: str):
    if name == "FaultyStore":
        from repro.faults.store import FaultyStore

        return FaultyStore
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
