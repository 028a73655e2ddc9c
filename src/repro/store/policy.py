"""Adaptive campaign budgets.

Border sweeps sample each parameter point under many schedules, but the
sweep's question per point is often binary — *is there a violation here
or not?*  Once one scenario of a point certifies the answer, the
remaining samples of that point are budget spent on a settled question.
:class:`EarlyStopPolicy` encodes that: it observes every outcome (cached
hits included) and tells the runner, at dispatch time, to skip further
scenarios of a certified point, recording exactly what was skipped.

Determinism caveat, by design: with the serial backend the skipped set
is deterministic (outcomes are observed in spec order).  With the
process backend, chunks already dispatched when a point gets certified
still run, so the *set of executed scenarios* depends on timing — every
executed outcome is still individually deterministic, but an early-stop
campaign is a sampling strategy, not a reproducible figure.  Anything
that asserts result equality (resume tests, reproduced figures) must run
without a policy.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Tuple

from repro.campaign.spec import ScenarioOutcome, ScenarioSpec
from repro.exceptions import ConfigurationError

__all__ = ["EarlyStopPolicy", "point_key"]

_VERDICTS = frozenset({"ok", "violation", "error"})


def point_key(spec: ScenarioSpec) -> Tuple[str, int, int, int]:
    """A spec's budget group: one budget per ``(kind, n, f, k)``.

    The kind is part of the key on purpose: the solvable and impossible
    constructions of a border sweep share parameter points but answer
    different questions, so one must never stop the other.
    """
    return (spec.kind, spec.n, spec.f, spec.k)


class EarlyStopPolicy:
    """Stop sampling a point once a certifying verdict was observed.

    Parameters
    ----------
    stop_on:
        Verdicts that certify a point (default: ``("violation",)`` — the
        border-sweep case, where one violation settles the point).
        ``"error"`` is deliberately not a certifier by default: an
        execution failure is evidence of nothing.

    Each spec's budget group is its :func:`point_key`.  The policy is
    driven by the campaign machinery: ``observe`` for every outcome
    (cached and fresh, in the calling process), ``should_skip`` once per
    pending scenario at dispatch time.  Both run on the caller's thread
    — no locking needed.
    """

    def __init__(
        self,
        *,
        stop_on: Iterable[str] = ("violation",),
    ):
        self._stop_on = frozenset(stop_on)
        unknown = self._stop_on - _VERDICTS
        if not self._stop_on or unknown:
            raise ConfigurationError(
                f"stop_on must be a non-empty subset of {sorted(_VERDICTS)}, "
                f"got {sorted(stop_on)!r}"
            )
        self._certified: Dict[Hashable, str] = {}
        self._skipped: List[ScenarioSpec] = []

    # -- driven by the campaign machinery ----------------------------------

    def observe(self, outcome: ScenarioOutcome) -> None:
        """Record an outcome; a ``stop_on`` verdict certifies its point."""
        if outcome.verdict in self._stop_on:
            self._certified.setdefault(point_key(outcome.spec), outcome.verdict)

    def should_skip(self, spec: ScenarioSpec) -> bool:
        """Skip (and record) a scenario whose point is already certified."""
        if point_key(spec) in self._certified:
            self._skipped.append(spec)
            return True
        return False

    # -- inspection --------------------------------------------------------

    @property
    def skipped(self) -> Tuple[ScenarioSpec, ...]:
        """The scenarios this policy dropped, in dispatch order."""
        return tuple(self._skipped)

    @property
    def skipped_count(self) -> int:
        return len(self._skipped)

    def certified_points(self) -> Dict[Hashable, str]:
        """Certified budget groups and the verdict that settled each."""
        return dict(self._certified)

    def reset(self) -> None:
        """Forget all certifications and skip records (reuse across runs)."""
        self._certified.clear()
        self._skipped.clear()
