"""Per-scenario resource accounting.

A :class:`ResourceUsage` record answers "what did this scenario cost?"
in the two currencies a campaign spends: wall-clock time and simulated
work (steps taken, messages sent/delivered).  The work counters come
straight from the executor, which maintains them under **every**
:class:`~repro.simulation.recording.RecordingPolicy` — they are part of
the deterministic outcome of a scenario, bit-identical across recording
policies and campaign backends.  Wall time is measurement, not outcome:
like the timing metadata of a
:class:`~repro.campaign.runner.CampaignResult` it is **excluded from
equality**, so usage records can be asserted equal across backends and
replays while still carrying the cost ledger a journal aggregates.

This module deliberately imports nothing from the campaign or store
layers: usage records ride on scenario events and inside journal
rows, both of which sit below those packages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Mapping

__all__ = ["ResourceUsage"]


@dataclass(frozen=True)
class ResourceUsage:
    """What one scenario (or a sum of scenarios) cost.

    Attributes
    ----------
    seconds:
        Wall-clock seconds spent executing (0 for cache hits).  Excluded
        from equality — machines differ, outcomes must not.  When one
        campaign task shares an execution between positions, the first
        of them carries the execution and each of the others only its
        judgement (:class:`repro.campaign.SharedExecutionKind`).
    steps:
        Executor steps taken (``Run.length``), counted in full at every
        position, shared execution or not.
    messages_sent / messages_delivered:
        Message-volume counters of the execution, counted the same way.
    """

    seconds: float = field(default=0.0, compare=False)
    steps: int = 0
    messages_sent: int = 0
    messages_delivered: int = 0

    @classmethod
    def of_outcome(cls, outcome: Any, seconds: float = 0.0) -> "ResourceUsage":
        """The usage of one :class:`ScenarioOutcome` (duck-typed)."""
        return cls(
            seconds=seconds,
            steps=outcome.steps,
            messages_sent=outcome.messages_sent,
            messages_delivered=outcome.messages_delivered,
        )

    @classmethod
    def of_outcomes(cls, outcomes: Iterable[Any]) -> "ResourceUsage":
        """The summed usage of outcomes served without running (0 seconds)."""
        steps = messages_sent = messages_delivered = 0
        for outcome in outcomes:
            steps += outcome.steps
            messages_sent += outcome.messages_sent
            messages_delivered += outcome.messages_delivered
        return cls(steps=steps, messages_sent=messages_sent,
                   messages_delivered=messages_delivered)

    def __add__(self, other: "ResourceUsage") -> "ResourceUsage":
        if not isinstance(other, ResourceUsage):
            return NotImplemented
        return ResourceUsage(
            seconds=self.seconds + other.seconds,
            steps=self.steps + other.steps,
            messages_sent=self.messages_sent + other.messages_sent,
            messages_delivered=self.messages_delivered + other.messages_delivered,
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe encoding (inverse: :meth:`from_dict`)."""
        return {
            "seconds": self.seconds,
            "steps": self.steps,
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ResourceUsage":
        return cls(
            seconds=float(data.get("seconds", 0.0)),
            steps=int(data.get("steps", 0)),
            messages_sent=int(data.get("messages_sent", 0)),
            messages_delivered=int(data.get("messages_delivered", 0)),
        )
