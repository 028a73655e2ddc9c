"""Cross-campaign queries over a result store (and optionally a journal).

A result store is content-addressed — great for caching, opaque for
analysis.  This module folds a store's outcomes back into the questions
a sweep is run to answer: how do verdicts and cost distribute across the
``(kind, n, f, k, scheduler)`` grid, which points disagreed with the
theorem, and (joined with a campaign journal) what did each grid region
actually *cost* to certify.

Stores are duck-typed (anything with ``items()`` yielding
``(fingerprint, outcome)`` pairs works) so this module never imports
``repro.store`` — which would cycle, since the store package's caching
layer imports the campaign runner, which carries provenance usage
records on its events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.provenance.usage import ResourceUsage

__all__ = [
    "GROUPABLE_DIMENSIONS",
    "OutcomeAggregate",
    "aggregate_outcomes",
    "aggregate_cost",
    "disagreements",
    "disagreement_report",
]

#: Spec dimensions a query may group by.
GROUPABLE_DIMENSIONS = ("kind", "n", "f", "k", "scheduler", "seed")


def _group_key(spec: Any, by: Sequence[str]) -> Tuple[Any, ...]:
    return tuple(getattr(spec, dimension) for dimension in by)


def _check_dimensions(by: Sequence[str]) -> Tuple[str, ...]:
    by = tuple(by)
    unknown = [dimension for dimension in by if dimension not in GROUPABLE_DIMENSIONS]
    if unknown:
        raise ConfigurationError(
            f"cannot group by {unknown}; known dimensions: {GROUPABLE_DIMENSIONS}"
        )
    return by


@dataclass
class OutcomeAggregate:
    """One grid region's roll-up of outcomes and simulated work."""

    key: Tuple[Any, ...]
    scenarios: int = 0
    ok: int = 0
    violation: int = 0
    error: int = 0
    usage: ResourceUsage = field(default_factory=ResourceUsage)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "scenarios": self.scenarios,
            "ok": self.ok,
            "violation": self.violation,
            "error": self.error,
            "seconds": round(self.usage.seconds, 6),
            "steps": self.usage.steps,
            "messages_sent": self.usage.messages_sent,
            "messages_delivered": self.usage.messages_delivered,
        }


def aggregate_outcomes(
    store: Any,
    by: Sequence[str] = ("kind", "n", "scheduler"),
) -> Dict[Tuple[Any, ...], OutcomeAggregate]:
    """Roll every stored outcome up by the given spec dimensions.

    The ``usage`` of each aggregate counts simulated work only (steps
    and messages — wall time is not stored with outcomes; join a
    journal via :func:`aggregate_cost` for seconds).
    """
    by = _check_dimensions(by)
    groups: Dict[Tuple[Any, ...], OutcomeAggregate] = {}
    for _fingerprint, outcome in store.items():
        key = _group_key(outcome.spec, by)
        aggregate = groups.get(key)
        if aggregate is None:
            aggregate = groups[key] = OutcomeAggregate(key=key)
        aggregate.scenarios += 1
        verdict = outcome.verdict
        if verdict == "ok":
            aggregate.ok += 1
        elif verdict == "violation":
            aggregate.violation += 1
        else:
            aggregate.error += 1
        aggregate.usage = aggregate.usage + ResourceUsage(
            steps=outcome.steps,
            messages_sent=outcome.messages_sent,
            messages_delivered=outcome.messages_delivered,
        )
    return groups


def aggregate_cost(
    store: Any,
    replay: Any,
    by: Sequence[str] = ("kind", "n", "scheduler"),
    *,
    include_cached: bool = False,
) -> Tuple[Dict[Tuple[Any, ...], OutcomeAggregate], Tuple[str, ...]]:
    """Join journal cost records to stored specs and roll up by dimension.

    ``replay`` is a :class:`~repro.provenance.journal.JournalReplay`
    (or anything with ``scenario_records`` and ``cached_records``).
    Each ``ran`` scenario record — and each ``cached`` one when
    ``include_cached`` is set — contributes its verdict and its full
    :class:`ResourceUsage` (including wall seconds) to the grid region of
    the spec its fingerprint resolves to in the store.  With
    ``include_cached``, every position a ``cached`` record lists counts
    too: its verdict and counters are the stored outcome's, its seconds
    0, as for any cache hit.

    Returns the aggregates plus the fingerprints that could not be
    resolved (journaled against a store that has since been pruned, or a
    different store entirely) — callers decide whether unresolved cost
    is an error.
    """
    by = _check_dimensions(by)
    outcomes: Dict[str, Any] = dict(store.items())
    groups: Dict[Tuple[Any, ...], OutcomeAggregate] = {}
    unresolved: List[str] = []

    def add(spec: Any, verdict: Any, usage: ResourceUsage) -> None:
        key = _group_key(spec, by)
        aggregate = groups.get(key)
        if aggregate is None:
            aggregate = groups[key] = OutcomeAggregate(key=key)
        aggregate.scenarios += 1
        if verdict == "ok":
            aggregate.ok += 1
        elif verdict == "violation":
            aggregate.violation += 1
        else:
            aggregate.error += 1
        aggregate.usage = aggregate.usage + usage

    for record in replay.scenario_records:
        decision = record["decision"]
        if decision == "skipped":
            continue
        if decision == "cached" and not include_cached:
            continue
        outcome = outcomes.get(record["fp"])
        if outcome is None:
            unresolved.append(record["fp"])
            continue
        add(outcome.spec, record.get("verdict"),
            ResourceUsage.from_dict(record.get("usage", {})))
    if include_cached:
        for record in replay.cached_records:
            for fingerprint in record["fps"]:
                outcome = outcomes.get(fingerprint)
                if outcome is None:
                    unresolved.append(fingerprint)
                    continue
                add(outcome.spec, outcome.verdict,
                    ResourceUsage.of_outcome(outcome))
    return groups, tuple(unresolved)


def disagreements(store: Any) -> Tuple[Any, ...]:
    """Every stored outcome whose verdict is not ``ok``, worst first."""
    flagged = [
        outcome
        for _fingerprint, outcome in store.items()
        if outcome.verdict != "ok"
    ]
    rank = {"violation": 0, "error": 1}
    flagged.sort(
        key=lambda outcome: (
            rank.get(outcome.verdict, 2),
            outcome.spec.kind,
            outcome.spec.n,
            outcome.spec.f,
            outcome.spec.k,
            outcome.spec.scheduler,
            outcome.spec.seed,
        )
    )
    return tuple(flagged)


def disagreement_report(store: Any) -> str:
    """Human-readable drill-down of non-ok outcomes (empty-safe)."""
    flagged = disagreements(store)
    if not flagged:
        return "no disagreements: every stored outcome is ok"
    lines = [f"{len(flagged)} non-ok outcome(s):"]
    for outcome in flagged:
        spec = outcome.spec
        detail = ", ".join(outcome.violations) if outcome.violations else outcome.error
        lines.append(
            f"  [{outcome.verdict}] {spec.kind} n={spec.n} f={spec.f} "
            f"k={spec.k} {spec.scheduler} seed={spec.seed}"
            + (f" — {detail}" if detail else "")
        )
    return "\n".join(lines)
