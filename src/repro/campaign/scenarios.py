"""Registered scenario kinds: the executable semantics of a spec.

A *scenario kind* is a named, module-level function mapping a
:class:`~repro.campaign.spec.ScenarioSpec` to a
:class:`~repro.campaign.spec.ScenarioOutcome`.  Kinds are registered in a
process-wide registry so that scenario specs stay plain data — a worker
process receives the spec, looks the kind up by name and executes it,
which is what makes the multiprocessing backend possible without
pickling closures.

The kinds shipped here cover the paper's two reproduced borders:

* ``theorem8-solvable`` / ``theorem8-impossible`` — one execution of the
  Section VI protocol on either side of the Theorem 8 border
  (``k * n > (k + 1) * f``), under the spec's scheduler and planned
  initial-crash schedule, respectively the Section VI partitioning
  construction with ``k + 1`` isolated groups of size ``n - f``.
  ``theorem8-solvable`` picks its engine from the spec alone: a
  ``"verdict-only"`` spec runs the bitmask loop of
  :mod:`repro.simulation.bitmask_kernel`, every other spec the scalar
  executor, which stays the oracle (:func:`execute_theorem8_solvable`).
  The engine never changes an outcome, so it is not part of the spec or
  its fingerprint.  The kind's execution takes no ``k`` (``k`` enters
  only when ``KSetAgreementProblem(k)`` judges the run) and a
  round-robin spec has no seed, so it declares an execution key: one
  task executes round-robin specs that differ only in ``k`` once and
  judges each at its own ``k`` (:class:`SharedExecutionKind`).
* ``corollary13-k1`` / ``corollary13-kmax`` / ``corollary13-middle`` —
  the three regimes of Corollary 13: the ``(Sigma, Omega)`` consensus
  protocol at ``k = 1``, the ``Sigma_{n-1}`` protocol at ``k = n - 1``
  and the Theorem 10 violation construction in between.

New workloads plug in with :func:`scenario_kind`; the grid/runner layers
never need to change.  A kind whose specs can share one execution
registers it split in two, ``execute(spec)`` and ``judge(spec, run)``,
under an ``execution_key``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.algorithms.flawed_candidate import FlawedQuorumKSet
from repro.algorithms.kset_initial_crash import KSetInitialCrash
from repro.algorithms.sigma_kset import SigmaKSetAgreement
from repro.algorithms.sigma_omega_consensus import SigmaOmegaConsensus
from repro.campaign.grid import ScenarioGrid
from repro.campaign.spec import ScenarioOutcome, ScenarioSpec
from repro.core.borders import theorem8_verdict
from repro.core.ksetagreement import KSetAgreementProblem
from repro.exceptions import ConfigurationError
from repro.failure_detectors.base import FailurePattern
from repro.failure_detectors.combined import sigma_omega_k
from repro.failure_detectors.sigma import SigmaK
from repro.models.asynchronous import asynchronous_model
from repro.models.initial_crash import initial_crash_model
from repro.partitioning.scenarios import Theorem10Scenario
from repro.simulation.adversary import PartitioningAdversary
from repro.simulation.bitmask_kernel import execute_bitmask
from repro.simulation.executor import ExecutionSettings, execute
from repro.simulation.scheduler import Adversary, RandomScheduler, RoundRobinScheduler
from repro.telemetry.spans import span as _span

__all__ = [
    "scenario_kind",
    "SharedExecutionKind",
    "get_kind",
    "registered_kinds",
    "build_adversary",
    "build_settings",
    "initial_crash_patterns",
    "execute_theorem8_solvable",
    "execute_theorem8_impossible",
    "theorem8_solvable_grid",
    "theorem8_impossible_grid",
    "theorem8_specs",
    "theorem8_point_specs",
    "corollary13_specs",
]

ScenarioKind = Callable[[ScenarioSpec], ScenarioOutcome]
ExecutionKey = Callable[[ScenarioSpec], Optional[Hashable]]

_KINDS: Dict[str, ScenarioKind] = {}


@dataclass(frozen=True)
class SharedExecutionKind:
    """A scenario kind split into one execution and a judgement per spec.

    ``execute(spec)`` runs the protocol and returns the run;
    ``judge(spec, run)`` evaluates that run at the spec's own parameters
    and builds the spec's outcome.  ``execution_key(spec)`` names the
    execution: specs of the kind with equal keys must execute to equal
    runs, so one campaign task may execute the first of them and judge
    every one against that run.  A key of ``None`` means the spec shares
    nothing.  The key is part of the kind's semantics, like its outcome.

    Calling the kind is ``judge(spec, execute(spec))``, with no sharing:
    that is what :func:`repro.campaign.runner.run_scenario` runs, the
    reference the shared path is tested against.
    """

    execution_key: ExecutionKey
    execute: Callable[[ScenarioSpec], Any]
    judge: Callable[[ScenarioSpec, Any], ScenarioOutcome]

    def __call__(self, spec: ScenarioSpec) -> ScenarioOutcome:
        return self.judge(spec, self.execute(spec))


def scenario_kind(
    name: str,
    *,
    execution_key: Optional[ExecutionKey] = None,
    judge: Optional[Callable[[ScenarioSpec, Any], ScenarioOutcome]] = None,
) -> Callable[[Callable], Callable]:
    """Register a scenario kind under ``name`` (decorator).

    The decorated function maps a spec to its outcome.  A kind that
    passes ``execution_key`` and ``judge`` is registered as a
    :class:`SharedExecutionKind`, and the decorated function is then its
    ``execute(spec)``, returning the run that ``judge`` evaluates.
    """
    if (execution_key is None) != (judge is None):
        raise ConfigurationError(
            f"scenario kind {name!r}: execution_key and judge are registered "
            "together")

    def register(fn: Callable) -> Callable:
        if name in _KINDS:
            raise ConfigurationError(f"scenario kind {name!r} is already registered")
        _KINDS[name] = (fn if judge is None
                        else SharedExecutionKind(execution_key, fn, judge))
        return fn

    return register


def get_kind(name: str) -> ScenarioKind:
    """Look a scenario kind up by name, raising early for unknown kinds."""
    try:
        return _KINDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario kind {name!r}; registered kinds: {registered_kinds()}"
        ) from None


def registered_kinds() -> Tuple[str, ...]:
    """The names of all registered scenario kinds, sorted."""
    return tuple(sorted(_KINDS))


def build_adversary(spec: ScenarioSpec) -> Adversary:
    """Construct the spec's scheduler.

    Seeded schedulers are seeded with :meth:`ScenarioSpec.derived_seed`,
    never with the raw grid seed, so the RNG stream depends only on the
    scenario's identity.
    """
    if spec.scheduler == "round-robin":
        return RoundRobinScheduler()
    if spec.scheduler == "random":
        return RandomScheduler(
            spec.derived_seed(),
            delivery_bias=float(spec.param("delivery_bias", 0.5)),
            max_delay=int(spec.param("max_delay", 20)),
        )
    raise ConfigurationError(
        f"scenario kind {spec.kind!r} cannot build scheduler {spec.scheduler!r}"
    )


def build_settings(spec: ScenarioSpec) -> ExecutionSettings:
    """The spec's execution settings: its step budget."""
    return ExecutionSettings(max_steps=spec.max_steps)


def initial_crash_patterns(n: int, f: int, seeds: Sequence[int]) -> List[frozenset]:
    """Representative initial-crash sets: none, largest, smallest, seeded."""
    processes = tuple(range(1, n + 1))
    patterns = [frozenset(), frozenset(processes[-f:]) if f else frozenset(),
                frozenset(processes[:f]) if f else frozenset()]
    for seed in seeds:
        rng = random.Random(seed)
        patterns.append(frozenset(rng.sample(processes, f)) if f else frozenset())
    unique: List[frozenset] = []
    for pattern in patterns:
        if pattern not in unique:
            unique.append(pattern)
    return unique


# -- Theorem 8 ---------------------------------------------------------------


def _theorem8_solvable_run(spec: ScenarioSpec, engine):
    """Build the solvable-side scenario and run it on ``engine``.

    Both engines take :func:`execute`'s arguments and get them from the
    same constructors in the same order, so a spec the scenario rejects
    raises the identical exception on either.  Nothing here reads
    ``spec.k``.
    """
    algorithm = KSetInitialCrash(spec.n, spec.f)
    model = initial_crash_model(spec.n, spec.f)
    proposals = {pid: pid for pid in model.processes}
    pattern = FailurePattern(model.processes, dict(spec.crashes))
    return engine(
        algorithm,
        model,
        proposals,
        adversary=build_adversary(spec),
        failure_pattern=pattern,
        settings=build_settings(spec),
    )


def _theorem8_solvable_report(spec: ScenarioSpec, run):
    """Judge a solvable-side run as ``spec.k``-set agreement."""
    with _span("decision", k=spec.k):
        return KSetAgreementProblem(spec.k).evaluate(run, proposals=run.proposals)


def execute_theorem8_solvable(spec: ScenarioSpec):
    """One run of the Section VI protocol on the solvable side.

    Always runs the scalar executor: this is the oracle the bitmask fast
    path is tested against.  Returns ``(run, report)``;
    :func:`repro.analysis.border_sweep.observe_solvable` uses it directly
    to hand full property reports to callers.
    """
    run = _theorem8_solvable_run(spec, execute)
    return run, _theorem8_solvable_report(spec, run)


def execute_theorem8_impossible(spec: ScenarioSpec):
    """The Section VI partitioning construction on the impossible side.

    Builds ``k + 1`` disjoint groups of size ``n - f`` (feasible exactly
    when ``(k + 1) * (n - f) <= n``, i.e. on the impossible side of the
    border), declares any leftover processes initially dead and runs the
    protocol under the partitioning adversary.  Returns ``(run, report)``.
    """
    n, f, k = spec.n, spec.f, spec.k
    group_size = n - f
    if (k + 1) * group_size > n:
        raise ConfigurationError(
            f"cannot build {k + 1} disjoint groups of size {n - f} out of {n} "
            f"processes; (n={n}, f={f}, k={k}) is not on the impossible side"
        )
    groups = [
        frozenset(range(i * group_size + 1, (i + 1) * group_size + 1))
        for i in range(k + 1)
    ]
    covered = frozenset().union(*groups)
    model = initial_crash_model(n, f)
    leftover = frozenset(model.processes) - covered
    pattern = FailurePattern.initially_dead(model.processes, leftover)
    algorithm = KSetInitialCrash(n, f)
    proposals = {pid: pid for pid in model.processes}
    run = execute(
        algorithm,
        model,
        proposals,
        adversary=PartitioningAdversary(groups),
        failure_pattern=pattern,
        settings=build_settings(spec),
    )
    with _span("decision", k=k):
        report = KSetAgreementProblem(k).evaluate(run, proposals=proposals)
    return run, report


def _theorem8_solvable_key(spec: ScenarioSpec) -> Optional[Tuple]:
    """The spec's identity without ``k``, for round-robin specs only.

    ``KSetInitialCrash(n, f)`` takes no ``k`` and a round-robin spec has
    no seed, so round-robin specs that differ only in ``k`` run the same
    execution.  A random spec's stream is seeded by
    :meth:`ScenarioSpec.derived_seed`, which hashes ``k``: it shares
    nothing.
    """
    if spec.scheduler != "round-robin":
        return None
    identity = spec.identity()
    return identity[:3] + identity[4:]  # identity()[3] is k


def _judge_theorem8_solvable(spec: ScenarioSpec, run) -> ScenarioOutcome:
    return ScenarioOutcome.from_report(
        spec, _theorem8_solvable_report(spec, run), run)


@scenario_kind("theorem8-solvable", execution_key=_theorem8_solvable_key,
               judge=_judge_theorem8_solvable)
def _execute_theorem8_solvable_kind(spec: ScenarioSpec):
    if spec.recording == "verdict-only":
        return _theorem8_solvable_run(spec, execute_bitmask)
    return _theorem8_solvable_run(spec, execute)


@scenario_kind("theorem8-impossible")
def _run_theorem8_impossible(spec: ScenarioSpec) -> ScenarioOutcome:
    run, report = execute_theorem8_impossible(spec)
    return ScenarioOutcome.from_report(spec, report, run)


def theorem8_solvable_grid(
    n_values: Sequence[int],
    *,
    seeds: Sequence[int] = (1, 2),
    max_steps: int = 20_000,
    recording: str = "full",
) -> ScenarioGrid:
    """The solvable side of the Theorem 8 sweep as a declarative grid."""
    seeds = tuple(seeds)
    return ScenarioGrid(
        kinds=("theorem8-solvable",),
        n_values=tuple(n_values),
        schedulers=("round-robin", "random"),
        seeds=seeds,
        crash_sets=lambda n, f: initial_crash_patterns(n, f, seeds),
        point_filter=lambda n, f, k: theorem8_verdict(n, f, k).is_solvable,
        max_steps=max_steps,
        recording=recording,
    )


def theorem8_impossible_grid(
    n_values: Sequence[int],
    *,
    max_steps: int = 20_000,
    recording: str = "full",
) -> ScenarioGrid:
    """The impossible side: one partitioning construction per point."""
    return ScenarioGrid(
        kinds=("theorem8-impossible",),
        n_values=tuple(n_values),
        schedulers=("partitioning",),
        point_filter=lambda n, f, k: not theorem8_verdict(n, f, k).is_solvable,
        max_steps=max_steps,
        recording=recording,
    )


def theorem8_specs(
    n_values: Sequence[int],
    *,
    seeds: Sequence[int] = (1, 2),
    max_steps: int = 20_000,
    recording: str = "full",
) -> Tuple[ScenarioSpec, ...]:
    """All scenarios of the Theorem 8 border sweep over ``n_values``."""
    solvable = theorem8_solvable_grid(
        n_values, seeds=seeds, max_steps=max_steps, recording=recording)
    impossible = theorem8_impossible_grid(
        n_values, max_steps=max_steps, recording=recording)
    return solvable.compile() + impossible.compile()


def theorem8_point_specs(
    n: int,
    f: int,
    k: int,
    *,
    seeds: Sequence[int] = (1, 2),
    max_steps: int = 20_000,
    recording: str = "full",
) -> Tuple[ScenarioSpec, ...]:
    """The solvable-side scenarios of a single parameter point."""
    grid = theorem8_solvable_grid(
        [n], seeds=seeds, max_steps=max_steps, recording=recording)
    grid = ScenarioGrid(
        kinds=grid.kinds,
        n_values=grid.n_values,
        f_values=(f,),
        k_values=(k,),
        schedulers=grid.schedulers,
        seeds=grid.seeds,
        crash_sets=grid.crash_sets,
        max_steps=grid.max_steps,
        recording=grid.recording,
    )
    return grid.compile()


# -- Corollary 13 ------------------------------------------------------------


@scenario_kind("corollary13-k1")
def _run_corollary13_k1(spec: ScenarioSpec) -> ScenarioOutcome:
    """The ``(Sigma, Omega)`` consensus protocol (``k = 1``)."""
    n = spec.n
    model = asynchronous_model(n, n - 1, failure_detector=sigma_omega_k(1, gst=0))
    proposals = {p: p for p in model.processes}
    run = execute(
        SigmaOmegaConsensus(n),
        model,
        proposals,
        adversary=build_adversary(spec),
        failure_pattern=FailurePattern(model.processes, dict(spec.crashes)),
        settings=build_settings(spec),
    )
    with _span("decision", k=1):
        report = KSetAgreementProblem(1).evaluate(run, proposals=proposals)
    return ScenarioOutcome.from_report(spec, report, run)


@scenario_kind("corollary13-kmax")
def _run_corollary13_kmax(spec: ScenarioSpec) -> ScenarioOutcome:
    """The ``Sigma_{n-1}`` set-agreement protocol (``k = n - 1``)."""
    n = spec.n
    model = asynchronous_model(n, n - 1, failure_detector=SigmaK(n - 1))
    proposals = {p: p for p in model.processes}
    run = execute(
        SigmaKSetAgreement(n),
        model,
        proposals,
        adversary=build_adversary(spec),
        failure_pattern=FailurePattern(model.processes, dict(spec.crashes)),
        settings=build_settings(spec),
    )
    with _span("decision", k=n - 1):
        report = KSetAgreementProblem(n - 1).evaluate(run, proposals=proposals)
    return ScenarioOutcome.from_report(spec, report, run)


@scenario_kind("corollary13-middle")
def _run_corollary13_middle(spec: ScenarioSpec) -> ScenarioOutcome:
    """The Theorem 10 violation construction (``2 <= k <= n - 2``)."""
    scenario = Theorem10Scenario(n=spec.n, k=spec.k, max_steps=spec.max_steps)
    with _span("decision", k=spec.k):
        run, report = scenario.violation_run(FlawedQuorumKSet(spec.n, spec.k))
    return ScenarioOutcome.from_report(spec, report, run)


def corollary13_specs(
    n_values: Sequence[int],
    *,
    max_steps: int = 10_000,
    middle_max_steps: int = 6_000,
    recording: str = "full",
) -> Tuple[ScenarioSpec, ...]:
    """All scenarios of the Corollary 13 border sweep over ``n_values``.

    Mirrors the treatment of the E10 benchmark: the ``k = 1`` and
    ``k = n - 1`` protocols run under fair and random schedules with
    representative crash patterns, the middle regime runs the Theorem 10
    construction once per point.
    """
    specs: List[ScenarioSpec] = []
    for n in n_values:
        for k in range(1, n):
            if k == 1:
                specs.append(ScenarioSpec(
                    kind="corollary13-k1", n=n, f=n - 1, k=1,
                    scheduler="round-robin", max_steps=max_steps,
                    recording=recording,
                ))
                specs.append(ScenarioSpec(
                    kind="corollary13-k1", n=n, f=n - 1, k=1,
                    scheduler="random", seed=1, crashes=((n, 0),),
                    max_steps=max_steps, params=(("max_delay", 8),),
                    recording=recording,
                ))
            elif k == n - 1:
                specs.append(ScenarioSpec(
                    kind="corollary13-kmax", n=n, f=n - 1, k=k,
                    scheduler="round-robin", max_steps=max_steps,
                    recording=recording,
                ))
                specs.append(ScenarioSpec(
                    kind="corollary13-kmax", n=n, f=n - 1, k=k,
                    scheduler="round-robin",
                    crashes=tuple((p, 0) for p in range(1, n)),
                    max_steps=max_steps,
                    recording=recording,
                ))
                specs.append(ScenarioSpec(
                    kind="corollary13-kmax", n=n, f=n - 1, k=k,
                    scheduler="random", seed=2, crashes=((1, 0), (2, 5)),
                    max_steps=max_steps,
                    recording=recording,
                ))
            else:
                specs.append(ScenarioSpec(
                    kind="corollary13-middle", n=n, f=n - 1, k=k,
                    scheduler="partitioning", max_steps=middle_max_steps,
                    recording=recording,
                ))
    return tuple(specs)
