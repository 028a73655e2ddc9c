"""Scenario specifications: the unit of work of a campaign.

A :class:`ScenarioSpec` is a *declarative*, hashable and picklable
description of exactly one adversarial execution: which registered
scenario kind to run, the parameter point ``(n, f, k)``, the scheduler
and its seed, the planned crash schedule and the step budget.  Because a
spec carries everything needed to reproduce the run, campaigns are
deterministic by construction — executing the same spec twice, in the
same process or in different worker processes, yields the same
:class:`ScenarioOutcome`.

Seeding follows the "derive, don't share" rule used by large simulation
harnesses: the RNG seed actually handed to a scheduler is
:meth:`ScenarioSpec.derived_seed`, a stable 64-bit hash of the scenario's
identity.  Two different scenarios of the same grid therefore never share
an RNG stream, and the derived seed does not depend on the order in which
scenarios are executed or on which worker executes them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Tuple, Union

from repro.exceptions import ConfigurationError
from repro.types import ProcessId, Time

__all__ = [
    "DETERMINISTIC_SCHEDULERS",
    "RECORDING_POLICY_NAMES",
    "ScenarioSpec",
    "ScenarioOutcome",
    "normalize_crashes",
    "normalize_params",
]

#: Scheduler names whose behaviour does not depend on a seed; the grid
#: compiler normalises their seed to 0 so that the seed axis does not
#: produce duplicate scenarios.
DETERMINISTIC_SCHEDULERS = frozenset({"round-robin", "partitioning", "isolation"})

#: The names :attr:`ScenarioSpec.recording` accepts.
RECORDING_POLICY_NAMES = ("full", "decisions-only", "verdict-only")

#: Crash schedules accepted by :func:`normalize_crashes`: a mapping
#: ``pid -> crash time`` or an iterable of initially dead process ids.
CrashSchedule = Union[Mapping[ProcessId, Time], Iterable[ProcessId]]


def normalize_crashes(schedule: CrashSchedule, n: int) -> Tuple[Tuple[ProcessId, Time], ...]:
    """Canonicalise a crash schedule to sorted ``(pid, time)`` pairs.

    A mapping is read as ``pid -> crash time``; a plain iterable of ids is
    read as "these processes are initially dead" (crash time 0).  Ids
    outside ``1..n``, negative times and duplicate process ids raise
    :class:`repro.exceptions.ConfigurationError`.  Duplicates are always
    an error — even when the duplicated entries agree on the crash time —
    because downstream consumers build ``dict(spec.crashes)``, which would
    otherwise silently collapse the schedule.
    """
    if isinstance(schedule, Mapping):
        pairs = tuple(sorted((int(p), int(t)) for p, t in schedule.items()))
    else:
        pairs = tuple(sorted((int(p), 0) for p in schedule))
    for pid, time in pairs:
        if not 1 <= pid <= n:
            raise ConfigurationError(
                f"crash schedule names process p{pid}, outside the system 1..{n}"
            )
        if time < 0:
            raise ConfigurationError(f"crash time of p{pid} must be >= 0, got {time}")
    seen_pids: set = set()
    duplicates: set = set()
    for pid, _ in pairs:
        (duplicates if pid in seen_pids else seen_pids).add(pid)
    if duplicates:
        names = ", ".join(f"p{pid}" for pid in sorted(duplicates))
        raise ConfigurationError(
            f"crash schedule names {names} more than once; a process can "
            "crash at most once, so each pid may appear at most once"
        )
    return pairs


def normalize_params(params: Union[Mapping[str, Hashable], Iterable[Tuple[str, Hashable]]]) -> Tuple[Tuple[str, Hashable], ...]:
    """Canonicalise extra parameters to a sorted tuple of pairs."""
    items = params.items() if isinstance(params, Mapping) else params
    return tuple(sorted((str(key), value) for key, value in items))


def _canonical_value(value: Hashable) -> Hashable:
    """Rewrite a params value so that its ``repr`` is order-stable.

    Scalars and tuples pass through unchanged (their ``repr`` is already
    deterministic, and existing derived seeds must not shift).
    Frozensets iterate in ``PYTHONHASHSEED``-dependent order, so they are
    replaced by a marked tuple of their elements sorted by canonical
    ``repr`` — without this, a fingerprint or derived seed computed over
    a frozenset param would differ between sessions.
    """
    if isinstance(value, tuple):
        return tuple(_canonical_value(item) for item in value)
    if isinstance(value, frozenset):
        return ("__frozenset__",) + tuple(
            sorted((_canonical_value(item) for item in value), key=repr)
        )
    return value


def _canonical_params(
    params: Tuple[Tuple[str, Hashable], ...]
) -> Tuple[Tuple[str, Hashable], ...]:
    """The hashing-side view of ``params`` (see :func:`_canonical_value`)."""
    return tuple((name, _canonical_value(value)) for name, value in params)


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario of a campaign: a single adversarial execution.

    Attributes
    ----------
    kind:
        Name of a registered scenario kind (see
        :mod:`repro.campaign.scenarios`); the kind owns the interpretation
        of the remaining fields.
    n, f, k:
        The parameter point: system size, failure bound, set-agreement
        parameter.
    scheduler:
        Scheduler name (``"round-robin"``, ``"random"``, ``"partitioning"``,
        ...); interpreted by the kind.
    seed:
        The grid seed of the scenario.  Schedulers never consume it
        directly — they are seeded with :meth:`derived_seed`.
    crashes:
        The planned crash schedule as sorted ``(pid, time)`` pairs; time 0
        means initially dead.  An empty tuple lets the kind derive its own
        schedule (the partitioning constructions do).
    max_steps:
        Step budget of the execution.
    params:
        Extra kind-specific knobs as sorted ``(name, value)`` pairs.
    recording:
        One of :data:`RECORDING_POLICY_NAMES`.  It only picks the engine
        of a ``theorem8-solvable`` spec: ``"verdict-only"`` runs the
        bitmask loop of :mod:`repro.simulation.bitmask_kernel`, and every
        other spec, of any kind, runs the scalar executor, which always
        records the whole trace.  ``"full"`` and ``"decisions-only"`` run
        alike.  The name is part of the spec's identity (and therefore
        of its store fingerprint), but deliberately *not* of
        :meth:`derived_seed` — the RNG stream, the schedule and the
        outcome are identical whatever the name.
    """

    kind: str
    n: int
    f: int
    k: int
    scheduler: str = "round-robin"
    seed: int = 0
    crashes: Tuple[Tuple[ProcessId, Time], ...] = ()
    max_steps: int = 10_000
    params: Tuple[Tuple[str, Hashable], ...] = ()
    recording: str = "full"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigurationError(f"n must be >= 1, got n={self.n}")
        if not 0 <= self.f < self.n:
            raise ConfigurationError(
                f"the failure bound must satisfy 0 <= f < n, got f={self.f}, n={self.n}"
            )
        if self.k < 1:
            raise ConfigurationError(f"k must be >= 1, got k={self.k}")
        if self.max_steps < 1:
            raise ConfigurationError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.recording not in RECORDING_POLICY_NAMES:
            raise ConfigurationError(
                f"unknown recording policy {self.recording!r}; choose one of "
                f"{RECORDING_POLICY_NAMES}"
            )
        # A spec built directly must equal, fingerprint and run like its
        # grid-compiled twin, whose pairs come out of normalize_crashes /
        # normalize_params sorted.
        if len(self.crashes) > 1 and self.crashes != tuple(sorted(self.crashes)):
            object.__setattr__(self, "crashes", tuple(sorted(self.crashes)))
        if len(self.params) > 1 and self.params != tuple(sorted(self.params)):
            object.__setattr__(self, "params", tuple(sorted(self.params)))

    # -- identity ----------------------------------------------------------

    def identity(self) -> Tuple:
        """The full canonical identity of the scenario, as a plain tuple.

        This is the value the persistent store fingerprints
        (:func:`repro.store.fingerprint_spec`): two specs with equal
        identities produce equal outcomes, so one may be served from
        cache in place of the other.  Unlike :meth:`derived_seed` it
        *includes* ``max_steps`` — truncation (and therefore the outcome)
        depends on the step budget, while the RNG stream deliberately
        does not, so raising the budget extends a schedule instead of
        replacing it.
        """
        return (
            self.kind, self.n, self.f, self.k, self.scheduler, self.seed,
            self.crashes, self.max_steps, _canonical_params(self.params),
            self.recording,
        )

    # -- seeding -----------------------------------------------------------

    def derived_seed(self) -> int:
        """A stable 64-bit seed derived from the scenario's identity.

        Independent of execution order, worker assignment and
        ``PYTHONHASHSEED``; distinct scenarios of a grid get distinct
        streams with overwhelming probability.  ``recording`` (like
        ``max_steps``) is deliberately excluded: the RNG stream — and
        with it the schedule — must be bit-identical on either engine.

        The sha256 is computed once per spec instance and memoised —
        telemetry sampling, fault plans and the seeded schedulers all
        consult the derived seed on the hot dispatch path.
        """
        cached = self.__dict__.get("_derived_seed")
        if cached is not None:
            return cached
        blob = repr(
            (self.kind, self.n, self.f, self.k, self.scheduler, self.seed,
             self.crashes, _canonical_params(self.params))
        ).encode()
        value = int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")
        object.__setattr__(self, "_derived_seed", value)
        return value

    # -- serialisation hygiene ---------------------------------------------

    def __getstate__(self) -> dict:
        """Pickle only the declared fields, never the memo caches.

        The derived seed and the store fingerprint are cached on the
        instance (leading-underscore keys) after first use; shipping
        them would bloat every spec on the pool pipe and would let a
        stale cache masquerade as identity if the schema ever changed.
        """
        return {
            key: value
            for key, value in self.__dict__.items()
            if not key.startswith("_")
        }

    def __setstate__(self, state: dict) -> None:
        for key, value in state.items():
            object.__setattr__(self, key, value)

    # -- conveniences ------------------------------------------------------

    def param(self, name: str, default: Hashable = None) -> Hashable:
        """Look up an extra parameter by name."""
        for key, value in self.params:
            if key == name:
                return value
        return default

    @property
    def initially_dead(self) -> frozenset:
        """Processes whose planned crash time is 0."""
        return frozenset(pid for pid, time in self.crashes if time == 0)

    def label(self) -> str:
        """Compact human-readable identifier used in tables and details."""
        crash = (
            "{" + ",".join(f"p{p}@{t}" for p, t in self.crashes) + "}"
            if self.crashes
            else "-"
        )
        seed = f"/s{self.seed}" if self.scheduler not in DETERMINISTIC_SCHEDULERS else ""
        rec = f" rec={self.recording}" if self.recording != "full" else ""
        return f"{self.kind}(n={self.n},f={self.f},k={self.k}) {self.scheduler}{seed} crashes={crash}{rec}"


@dataclass(frozen=True)
class ScenarioOutcome:
    """The deterministic result of executing one scenario.

    ``verdict`` is ``"ok"`` (every property held), ``"violation"`` (at
    least one k-set agreement property failed — possibly by design, on the
    impossible side of a border) or ``"error"`` (the execution raised).
    Outcomes deliberately carry no timing information so that campaigns
    executed by different backends compare equal; ``steps`` and the
    message counters *are* part of the outcome — both engines count them
    and agree on them, so they are deterministic too.
    """

    spec: ScenarioSpec
    verdict: str
    agreement_ok: bool = True
    validity_ok: bool = True
    termination_ok: bool = True
    distinct_decisions: int = 0
    decided: int = 0
    steps: int = 0
    truncated: bool = False
    violations: Tuple[str, ...] = ()
    error: str = ""
    messages_sent: int = 0
    messages_delivered: int = 0

    @property
    def all_ok(self) -> bool:
        """``True`` when every property held and nothing raised."""
        return self.verdict == "ok"

    def failed_properties(self) -> Tuple[str, ...]:
        """Names of the violated properties, in canonical order."""
        failed = []
        if not self.agreement_ok:
            failed.append("agreement")
        if not self.validity_ok:
            failed.append("validity")
        if not self.termination_ok:
            failed.append("termination")
        return tuple(failed)

    def describe(self) -> str:
        """One line: which properties failed, under which schedule/seed."""
        if self.verdict == "error":
            return f"{self.spec.label()}: ERROR {self.error}"
        if self.all_ok:
            return f"{self.spec.label()}: all properties hold"
        return (
            f"{self.spec.label()}: {', '.join(self.failed_properties())} violated "
            f"({self.distinct_decisions} distinct decision(s), {self.decided} decided, "
            f"{self.steps} steps{', truncated' if self.truncated else ''})"
        )

    @classmethod
    def from_report(cls, spec: ScenarioSpec, report, run) -> "ScenarioOutcome":
        """Build an outcome from a ``PropertyReport`` and its ``Run``."""
        return cls(
            spec=spec,
            verdict="ok" if report.all_ok else "violation",
            agreement_ok=report.agreement_ok,
            validity_ok=report.validity_ok,
            termination_ok=report.termination_ok,
            distinct_decisions=len(report.distinct_decisions),
            decided=len(report.decided),
            steps=run.length,
            truncated=run.truncated,
            violations=tuple(report.violations),
            messages_sent=run.messages_sent(),
            messages_delivered=run.messages_delivered(),
        )

    @classmethod
    def from_error(cls, spec: ScenarioSpec, exc: BaseException) -> "ScenarioOutcome":
        """Build an ``"error"`` outcome from an exception."""
        return cls(
            spec=spec,
            verdict="error",
            agreement_ok=False,
            validity_ok=False,
            termination_ok=False,
            error=f"{type(exc).__name__}: {exc}",
        )
