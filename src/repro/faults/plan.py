"""Deterministic fault plans and the retry policy they are survived with.

A :class:`FaultPlan` is a *seeded, declarative* description of the chaos
a campaign should be subjected to: worker crashes (``SIGKILL`` to the
worker's own pid), stalls, injected task exceptions, delays and
store-write failures.  Every decision is a pure function of the plan's
seed and the scenario's :meth:`~repro.campaign.spec.ScenarioSpec.derived_seed`,
so a chaos run is **reproducible** — the same plan over the same grid
injects the same faults whatever the backend, chunking or worker
placement, exactly the discipline the campaign engine already applies to
scheduler RNG streams.

Fault channels
--------------

* ``crash`` — the worker process SIGKILLs itself before executing the
  scenario.  A worker-level fault: the serial backend (and the pool's
  in-process fallback) skips it, because there is no worker to kill.
* ``hang`` — the worker stalls for :attr:`FaultPlan.hang_seconds`
  before executing the scenario (long enough to trip the supervisor's
  per-task deadline).  Worker-level, like ``crash``.
* ``raise`` — the task raises :class:`InjectedFaultError` *outside* the
  scenario execution, simulating infrastructure failure (the in-scenario
  exception path is already folded into ``"error"`` outcomes by
  :func:`~repro.campaign.runner.run_scenario`).  Applies on every
  backend.
* ``delay`` — the task sleeps :attr:`FaultPlan.delay_seconds` before the
  scenario; a benign perturbation of timing, never of outcomes.
* ``poison`` — like ``raise`` but **persistent**: it fires on every
  attempt, which is what drives the supervisor through retry →
  bisection → quarantine.
* store writes — consulted by :class:`~repro.faults.store.FaultyStore`,
  keyed off the fingerprint digest instead of the spec.

Transient faults (everything except ``poison``) fire only while the
task's attempt number is ``<= fault_attempts`` (default 1): the first
attempt fails, the retry succeeds, and a quarantine-free plan therefore
perturbs *scheduling* but never *outcomes* — the headline equality
invariant the chaos suite pins.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.exceptions import ConfigurationError

__all__ = [
    "FAULT_KINDS",
    "FaultAction",
    "FaultPlan",
    "FaultStats",
    "InjectedFaultError",
    "RetryPolicy",
]

#: The injectable fault kinds, in decision-priority order.
FAULT_KINDS = ("poison", "crash", "hang", "raise", "delay")

#: Rate channels also include store writes (not a task fault kind).
_RATE_FIELDS = {
    "crash": "crash_rate",
    "hang": "hang_rate",
    "raise": "raise_rate",
    "delay": "delay_rate",
    "poison": "poison_rate",
    "store": "store_failure_rate",
}


class InjectedFaultError(RuntimeError):
    """An injected infrastructure fault (picklable across the pool)."""


@dataclass(frozen=True)
class FaultAction:
    """One planned fault: what to do, for how long, how stubbornly."""

    kind: str
    seconds: float = 0.0
    persistent: bool = False


@dataclass(frozen=True)
class RetryPolicy:
    """How the supervisor survives failing, hanging and dying tasks.

    Attributes
    ----------
    max_attempts:
        Attempts per task (chunk) before it is bisected — and, at single-
        spec granularity, before the spec is quarantined.
    backoff_seconds:
        Base delay before a retry; attempt ``a`` waits
        ``backoff_seconds * 2**(a - 1)``.
    task_timeout_seconds:
        Per-task deadline, counted from when the task reaches the head
        of its worker's queue.  A task still running at its deadline
        has its worker killed and is retried like a task whose worker
        died; this is what bounds every wait in the dispatch loop.
    teardown_grace_seconds:
        How long a worker idle at teardown gets to exit after its stop
        message before it is killed (busy workers are killed at once).
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.05
    task_timeout_seconds: float = 300.0
    teardown_grace_seconds: float = 5.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        for name in ("backoff_seconds", "task_timeout_seconds",
                     "teardown_grace_seconds"):
            value = getattr(self, name)
            if value <= 0 and name != "backoff_seconds":
                raise ConfigurationError(f"{name} must be > 0, got {value}")
            if value < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {value}")

    def backoff_for(self, attempt: int) -> float:
        """Delay before re-submitting attempt ``attempt + 1``."""
        return self.backoff_seconds * (2 ** max(0, attempt - 1))


@dataclass
class FaultStats:
    """What the supervisor survived during one campaign run.

    Plain mutable counters, attached to
    :class:`~repro.campaign.runner.CampaignResult` (excluded from
    equality — chaos is infrastructure, outcomes are the contract) and
    surfaced through the journal's campaign-finish stats and the
    telemetry counters of the same names.
    """

    worker_deaths: int = 0
    task_retries: int = 0
    task_timeouts: int = 0
    bisections: int = 0
    quarantined: int = 0
    pool_failures: int = 0

    def any(self) -> bool:
        return any(self.as_dict().values())

    def as_dict(self) -> Dict[str, int]:
        return {
            "worker_deaths": self.worker_deaths,
            "task_retries": self.task_retries,
            "task_timeouts": self.task_timeouts,
            "bisections": self.bisections,
            "quarantined": self.quarantined,
            "pool_failures": self.pool_failures,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultStats":
        stats = cls()
        for name in stats.as_dict():
            value = payload.get(name, 0)
            if isinstance(value, int) and not isinstance(value, bool):
                setattr(stats, name, value)
        return stats


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, picklable chaos schedule over a campaign.

    Rates are probabilities in ``[0, 1]`` evaluated against a
    deterministic per-scenario roll (sha256 over the plan seed, the
    channel name and the scenario's derived seed); the ``*_labels``
    tuples target specific scenarios by their
    :meth:`~repro.campaign.spec.ScenarioSpec.label` exactly, which is
    what tests use to poison one known spec.  ``fault_attempts`` gates
    the transient channels: a fault fires only while the task attempt is
    ``<= fault_attempts``, so default plans are recoverable by a single
    retry.  ``poison`` ignores the gate by design.
    """

    seed: int = 0
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    raise_rate: float = 0.0
    delay_rate: float = 0.0
    poison_rate: float = 0.0
    store_failure_rate: float = 0.0
    hang_seconds: float = 30.0
    delay_seconds: float = 0.01
    fault_attempts: int = 1
    crash_labels: Tuple[str, ...] = ()
    hang_labels: Tuple[str, ...] = ()
    raise_labels: Tuple[str, ...] = ()
    poison_labels: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS.values():
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"{name} must be within [0, 1], got {rate}"
                )
        if self.hang_seconds <= 0 or self.delay_seconds <= 0:
            raise ConfigurationError(
                "hang_seconds and delay_seconds must be > 0"
            )
        if self.fault_attempts < 1:
            raise ConfigurationError(
                f"fault_attempts must be >= 1, got {self.fault_attempts}"
            )

    # -- decisions ---------------------------------------------------------

    def _roll(self, ident: object, channel: str) -> float:
        blob = f"faults:{self.seed}:{channel}:{ident}".encode()
        return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") / 2.0 ** 64

    def _hit(self, ident: object, channel: str) -> bool:
        rate = getattr(self, _RATE_FIELDS[channel])
        return rate > 0.0 and self._roll(ident, channel) < rate

    def decide(self, spec, attempt: int = 1) -> Optional[FaultAction]:
        """The fault (if any) planned for this scenario at this attempt.

        Pure in ``(plan, spec identity, attempt)``: tests can pre-compute
        exactly which scenarios of a grid will crash, hang or raise.
        """
        label = spec.label()
        ident = spec.derived_seed()
        if label in self.poison_labels or self._hit(ident, "poison"):
            return FaultAction("raise", persistent=True)
        if attempt > self.fault_attempts:
            return None
        if label in self.crash_labels or self._hit(ident, "crash"):
            return FaultAction("crash")
        if label in self.hang_labels or self._hit(ident, "hang"):
            return FaultAction("hang", seconds=self.hang_seconds)
        if label in self.raise_labels or self._hit(ident, "raise"):
            return FaultAction("raise")
        if self._hit(ident, "delay"):
            return FaultAction("delay", seconds=self.delay_seconds)
        return None

    def store_write_fails(self, digest: str, attempt: int = 1) -> bool:
        """Whether this store write is planned to fail (transient)."""
        if attempt > self.fault_attempts:
            return False
        return self._hit(str(digest), "store")

    # -- execution ---------------------------------------------------------

    def perform(self, spec, attempt: int, *, in_worker: bool) -> None:
        """Execute the planned fault for ``spec`` at this attempt, if any.

        ``crash`` and ``hang`` are worker-level faults: outside a pool
        worker (the serial backend, the pool's in-process fallback)
        they are skipped, because killing or stalling the calling
        process would take the campaign down with it — the very thing
        the supervisor exists to survive.
        """
        action = self.decide(spec, attempt)
        if action is None:
            return
        if action.kind == "crash":
            if in_worker:
                os.kill(os.getpid(), signal.SIGKILL)
            return
        if action.kind == "hang":
            if in_worker:
                time.sleep(action.seconds)
            return
        if action.kind == "delay":
            time.sleep(action.seconds)
            return
        raise InjectedFaultError(
            f"injected {'poison' if action.persistent else 'transient'} fault "
            f"for {spec.label()} (attempt {attempt})"
        )
