"""System models, failure assumptions and model restriction.

A :class:`SystemModel` bundles everything the paper's Section II calls a
"model M = <Pi>": the set of processes, the synchrony/communication
parameters (a :class:`~repro.models.parameters.SystemModelSpec`), the
failure assumption (how many processes may crash and whether crashes are
restricted to initial crashes), and — when the sixth model dimension is
favourable — the failure-detector class processes may query.

Two operations from the paper are first-class here:

* **Restriction** (Section II-B): ``M' = <D>`` keeps the mode of
  computation of ``M`` but runs on a subset ``D`` of the processes.  The
  synchrony assumptions of the restricted model are supplied by the caller
  (the paper stresses that restriction "does not imply anything about the
  synchrony assumptions which hold in M'").
* **Admissibility** checking: given a recorded run, verify the conditions
  the model imposes (crash budget, initial-crash-only restriction,
  eventual delivery to correct processes, fairness of steps).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.models.parameters import SystemModelSpec
from repro.types import ProcessId, validate_process_ids

__all__ = ["FailureAssumption", "SystemModel"]


@dataclass(frozen=True)
class FailureAssumption:
    """How many processes may fail, and how.

    Attributes
    ----------
    max_failures:
        The bound ``f`` on the number of faulty processes.
    initial_only:
        When ``True`` every crash must be an initial crash (the process
        never takes a step) — the Section VI model.
    max_non_initial:
        When not ``None``, at most this many of the ``f`` failures may
        occur after the initial configuration.  Theorem 2 uses
        ``max_non_initial=1`` ("f-1 can fail by crashing initially and only
        one process can crash during the execution").
    """

    max_failures: int
    initial_only: bool = False
    max_non_initial: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_failures < 0:
            raise ConfigurationError(f"max_failures must be >= 0, got {self.max_failures}")
        if self.max_non_initial is not None and self.max_non_initial < 0:
            raise ConfigurationError(
                f"max_non_initial must be >= 0, got {self.max_non_initial}"
            )
        if self.initial_only and self.max_non_initial not in (None, 0):
            raise ConfigurationError(
                "initial_only=True is incompatible with max_non_initial > 0"
            )

    def allows(self, crash_times: Sequence[Tuple[ProcessId, int]]) -> bool:
        """Return ``True`` when the given crash schedule respects the assumption.

        ``crash_times`` lists ``(process, time)`` pairs; time 0 denotes an
        initial crash.
        """
        if len(crash_times) > self.max_failures:
            return False
        non_initial = sum(1 for _pid, t in crash_times if t > 0)
        if self.initial_only and non_initial > 0:
            return False
        if self.max_non_initial is not None and non_initial > self.max_non_initial:
            return False
        return True

    def describe(self) -> str:
        """Human-readable summary used in traces and reports."""
        if self.initial_only:
            return f"up to {self.max_failures} initial crashes"
        if self.max_non_initial is not None:
            return (
                f"up to {self.max_failures} crashes, at most "
                f"{self.max_non_initial} after the initial configuration"
            )
        return f"up to {self.max_failures} crash failures"


@dataclass(frozen=True)
class SystemModel:
    """A system model ``M = <Pi>`` in the sense of Section II.

    Instances are immutable; derived models (restrictions, changed failure
    assumptions) are new objects.
    """

    name: str
    processes: Tuple[ProcessId, ...]
    spec: SystemModelSpec = field(default_factory=SystemModelSpec)
    failures: FailureAssumption = field(default_factory=lambda: FailureAssumption(0))
    failure_detector: Optional[object] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "processes", validate_process_ids(self.processes))
        if self.failures.max_failures > len(self.processes):
            raise ConfigurationError(
                f"failure bound f={self.failures.max_failures} exceeds the "
                f"number of processes n={len(self.processes)}"
            )
        if self.failure_detector is not None and not self.spec.failure_detectors:
            raise ConfigurationError(
                "a failure detector was supplied but the model spec says "
                "processes cannot query failure detectors"
            )

    # -- basic accessors ------------------------------------------------

    @property
    def n(self) -> int:
        """Number of processes in the system."""
        return len(self.processes)

    @property
    def f(self) -> int:
        """The failure bound of the model's failure assumption."""
        return self.failures.max_failures

    def __contains__(self, pid: object) -> bool:
        return pid in self.processes

    # -- derivation -----------------------------------------------------

    def restrict(
        self,
        subset: Iterable[ProcessId],
        *,
        name: Optional[str] = None,
        failures: Optional[FailureAssumption] = None,
        failure_detector: Optional[object] = None,
        keep_failure_detector: bool = False,
    ) -> "SystemModel":
        """Return the restricted model ``<D>`` on the processes in ``subset``.

        Following Section II-B the restricted model is *computationally
        compatible* with this one — it uses the same
        :class:`~repro.models.parameters.SystemModelSpec` — but its failure
        and failure-detector assumptions are whatever the caller supplies
        (they are not inherited implicitly, because the paper's
        constructions deliberately pick different assumptions for ``<D>``).
        By default the restricted model has no failure detector unless
        ``keep_failure_detector`` is set or a new one is given.
        """
        members = validate_process_ids(tuple(subset))
        unknown = [p for p in members if p not in self.processes]
        if unknown:
            raise ConfigurationError(
                f"cannot restrict to processes not in the model: {unknown}"
            )
        detector = failure_detector
        if detector is None and keep_failure_detector:
            detector = self.failure_detector
        new_failures = failures if failures is not None else FailureAssumption(
            min(self.failures.max_failures, max(len(members) - 1, 0)),
            initial_only=self.failures.initial_only,
            max_non_initial=self.failures.max_non_initial,
        )
        return SystemModel(
            name=name or f"{self.name}|{{{','.join(str(p) for p in members)}}}",
            processes=members,
            spec=self.spec,
            failures=new_failures,
            failure_detector=detector,
        )

    def with_failures(self, failures: FailureAssumption) -> "SystemModel":
        """Return a copy of the model with a different failure assumption."""
        return replace(self, failures=failures)

    def with_failure_detector(self, detector: object) -> "SystemModel":
        """Return a copy with a failure detector (enabling the 6th axis)."""
        spec = self.spec
        if not spec.failure_detectors:
            spec = replace(spec, failure_detectors=True)
        return replace(self, spec=spec, failure_detector=detector)

    # -- admissibility ----------------------------------------------------

    def admissibility_violations(self, run) -> List[str]:
        """Check a recorded run against the model's admissibility conditions.

        The argument is a :class:`repro.simulation.run.Run` (duck-typed to
        avoid an import cycle).  The following conditions are checked:

        * the crash schedule respects the failure assumption,
        * only processes of the model take steps,
        * crashed processes take no steps after their crash time,
        * when the run stopped because the adversary gave up (neither
          completed nor truncated by the step budget) while a correct,
          undecided process still had buffered messages: eventual delivery
          was abandoned, which a genuine infinite extension of the prefix
          would not be allowed to do.

        Note that leftover buffered messages in a *completed* run are not a
        violation — eventual delivery is a liveness condition that only an
        infinite run can violate, and any finite completed prefix extends
        to an admissible infinite run.

        Returns a list of human-readable violation descriptions; an empty
        list means the run is admissible.

        The step-wise conditions need the run's step-event trace, so the
        bitmask engine's traceless run (``traced=False``) raises
        :class:`repro.exceptions.TraceUnavailableError` instead of
        silently certifying an unverifiable schedule.
        """
        run._require_trace("admissibility checking")
        violations: List[str] = []
        crash_times = tuple(run.failure_pattern.crash_times.items())
        if not self.failures.allows(crash_times):
            violations.append(
                f"crash schedule {sorted(crash_times)} violates the failure "
                f"assumption ({self.failures.describe()})"
            )
        model_processes = set(self.processes)
        for event in run.events:
            if event.pid not in model_processes:
                violations.append(f"process p{event.pid} is not part of model {self.name}")
            crash_time = run.failure_pattern.crash_times.get(event.pid)
            if crash_time is not None and event.time > crash_time:
                violations.append(
                    f"crashed process p{event.pid} took a step at time {event.time} "
                    f"after its crash time {crash_time}"
                )
        if not run.completed and not run.truncated:
            undecided_correct = run.correct_processes() - run.decided_processes()
            for pid in sorted(undecided_correct):
                pending = run.undelivered_to(pid)
                if pending:
                    violations.append(
                        f"the schedule was abandoned while correct, undecided "
                        f"process p{pid} still had {len(pending)} buffered message(s)"
                    )
        return violations

    def is_admissible(self, run) -> bool:
        """``True`` when :meth:`admissibility_violations` finds nothing."""
        return not self.admissibility_violations(run)

    # -- misc -------------------------------------------------------------

    def describe(self) -> str:
        """A one-line description used by examples and reports."""
        detector = (
            f", failure detector {self.failure_detector}"
            if self.failure_detector is not None
            else ""
        )
        return (
            f"{self.name}: n={self.n}, spec={self.spec.label()}, "
            f"{self.failures.describe()}{detector}"
        )

    def __str__(self) -> str:
        return self.describe()
