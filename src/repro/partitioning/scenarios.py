"""Named proof scenarios: Theorem 2, the Theorem 8 border case, Theorem 10.

A *scenario* bundles everything one of the paper's applications of
Theorem 1 (or of the plain partitioning argument) needs: the system model,
the partition, the failure-detector histories, the adversarial schedules,
and convenience methods that execute representative algorithms under those
schedules.  The benchmarks and examples are thin wrappers around these
classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.algorithms.base import Algorithm
from repro.core.impossibility import (
    ImpossibilityWitness,
    PartitionSpec,
    TheoremOneApplication,
)
from repro.core.ksetagreement import KSetAgreementProblem, PropertyReport
from repro.exceptions import ConfigurationError
from repro.failure_detectors.base import FailurePattern
from repro.failure_detectors.partition import PartitionDetector
from repro.models.asynchronous import asynchronous_model
from repro.models.initial_crash import initial_crash_model
from repro.models.model import FailureAssumption, SystemModel
from repro.models.partially_synchronous import partially_synchronous_model
from repro.partitioning.partitions import (
    lemma3_check,
    theorem2_partition,
    theorem8_border_groups,
    theorem10_partition,
)
from repro.partitioning.pasting import paste_runs, verify_pasting
from repro.simulation.adversary import PartitioningAdversary, _BlockedDeliveryAdversary
from repro.simulation.executor import (
    ExecutionSettings,
    all_correct_decided,
    execute,
    group_decided,
)
from repro.simulation.message import Message
from repro.simulation.run import Run
from repro.simulation.scheduler import AdversaryView, RoundRobinScheduler
from repro.types import ProcessId, Value

__all__ = ["Theorem2Scenario", "Theorem8BorderScenario", "Theorem10Scenario"]


def _distinct_proposals(processes: Sequence[ProcessId]) -> Dict[ProcessId, Value]:
    return {pid: pid for pid in processes}


class _CompositeBlockingAdversary(_BlockedDeliveryAdversary):
    """Partitioning adversary with additional blocked sender/receiver pairs.

    Used by the Theorem 10 scenario: besides delaying every message that
    crosses a block boundary it also delays the messages of selected
    intra-block pairs, which is how the schedule drives two members of
    ``D-bar`` to different decisions.
    """

    def __init__(
        self,
        blocks: Sequence[FrozenSet[ProcessId]],
        blocked_pairs: Sequence[Tuple[ProcessId, ProcessId]] = (),
    ):
        super().__init__()
        self._partition = PartitioningAdversary(blocks)
        self._pairs = frozenset(blocked_pairs)

    def _released(self, view: AdversaryView) -> bool:
        return view.alive.issubset(view.decided)

    def _blocked(self, message: Message, view: AdversaryView) -> bool:
        if self._released_for(view):
            return False
        if self._partition._blocked(message, view):
            return True
        return (message.sender, message.receiver) in self._pairs

    def describe(self) -> str:
        return (
            f"{self._partition.describe()} + blocked pairs "
            f"{sorted(self._pairs)}"
        )


@dataclass
class Theorem2Scenario:
    """The Theorem 2 setting: partially synchronous processes, f faults.

    The model has synchronous processes, asynchronous communication and a
    failure budget of ``f`` crashes of which at most one may occur during
    the execution.  The scenario provides the proof's partition (``k - 1``
    blocks of size ``n - f``), the Theorem 1 application for a candidate
    algorithm, and a direct demonstration of what goes wrong for the
    Section VI algorithm when the one non-initial crash is exercised.
    """

    n: int
    f: int
    k: int
    max_steps: int = 20_000

    def __post_init__(self) -> None:
        self.model: SystemModel = partially_synchronous_model(self.n, self.f)
        self.partition: PartitionSpec = theorem2_partition(self.n, self.f, self.k)
        self.proposals: Dict[ProcessId, Value] = _distinct_proposals(self.model.processes)

    def lemma3_report(self) -> Dict[str, object]:
        """The Lemma 3 size facts for this scenario's partition."""
        return lemma3_check(self.partition, self.n, self.f)

    def application(self, algorithm: Algorithm) -> TheoremOneApplication:
        """The Theorem 1 application for ``algorithm`` in this scenario."""
        return TheoremOneApplication(
            algorithm,
            self.model,
            self.partition,
            proposals=self.proposals,
            restricted_failures=FailureAssumption(max_failures=1),
            max_steps=self.max_steps,
        )

    def apply(self, algorithm: Algorithm) -> ImpossibilityWitness:
        """Check conditions (A)-(D) for ``algorithm`` and return the witness."""
        return self.application(algorithm).apply()

    def partitioned_run(self, algorithm: Algorithm) -> Run:
        """The condition (A)/(B) witness run under the partitioning adversary."""
        adversary = PartitioningAdversary(self.partition.all_blocks())
        return execute(
            algorithm,
            self.model,
            self.proposals,
            adversary=adversary,
            settings=ExecutionSettings(max_steps=self.max_steps),
        )

    def crash_during_run_report(
        self,
        algorithm: Algorithm,
        *,
        crash_pid: Optional[ProcessId] = None,
        crash_time: Optional[int] = None,
        initial_dead: Optional[Sequence[ProcessId]] = None,
    ) -> Tuple[Run, PropertyReport]:
        """Exercise the single non-initial crash against ``algorithm``.

        By default the ``f - 1`` largest-identifier processes are initially
        dead and process ``p_1`` crashes at time 2 — right after its first
        step, in which it announced itself (sent its stage-1 message) but
        did not yet help anyone further.  Every other process then counts
        ``p_1`` among the processes it heard from and waits forever for
        ``p_1``'s stage-2 report, so the initial-crash protocol loses
        termination exactly as Theorem 2 predicts.
        """
        processes = self.model.processes
        dead = tuple(initial_dead) if initial_dead is not None else tuple(
            processes[-(self.f - 1):] if self.f > 1 else ()
        )
        crash = crash_pid if crash_pid is not None else processes[0]
        if crash_time is None:
            crash_time = 2
        crash_times = {pid: 0 for pid in dead}
        crash_times[crash] = crash_time
        pattern = FailurePattern(processes, crash_times)
        run = execute(
            algorithm,
            self.model,
            self.proposals,
            adversary=RoundRobinScheduler(),
            failure_pattern=pattern,
            settings=ExecutionSettings(max_steps=self.max_steps),
        )
        report = KSetAgreementProblem(self.k).evaluate(run, proposals=self.proposals)
        return run, report


@dataclass
class Theorem8BorderScenario:
    """The Section VI border case: ``k * n = (k + 1) * f`` with initial crashes.

    The scenario partitions the system into ``k + 1`` groups of size
    ``n - f`` and offers both readings of the argument: the single genuine
    run under the partitioning adversary in which all ``k + 1`` groups
    decide their own values, and the Lemma 12-style pasting of ``k + 1``
    isolation runs.
    """

    n: int
    f: int
    k: int
    max_steps: int = 20_000

    def __post_init__(self) -> None:
        self.groups: Tuple[FrozenSet[ProcessId], ...] = theorem8_border_groups(
            self.n, self.f, self.k
        )
        self.model: SystemModel = initial_crash_model(self.n, self.f)
        self.proposals: Dict[ProcessId, Value] = _distinct_proposals(self.model.processes)

    def violation_run(self, algorithm: Algorithm) -> Tuple[Run, PropertyReport]:
        """One genuine run in which every group decides its own value.

        Under the partitioning adversary (and with no crashes at all) every
        group of size ``n - f`` completes on its own, so ``k + 1`` distinct
        values appear — a k-agreement violation of ``algorithm``.
        """
        adversary = PartitioningAdversary(self.groups)
        run = execute(
            algorithm,
            self.model,
            self.proposals,
            adversary=adversary,
            settings=ExecutionSettings(max_steps=self.max_steps),
        )
        report = KSetAgreementProblem(self.k).evaluate(run, proposals=self.proposals)
        return run, report

    def isolation_runs(self, algorithm: Algorithm) -> List[Run]:
        """The ``k + 1`` executions in which only one group is alive."""
        runs: List[Run] = []
        for group in self.groups:
            dead = frozenset(self.model.processes) - group
            pattern = FailurePattern.initially_dead(self.model.processes, dead)
            runs.append(
                execute(
                    algorithm,
                    self.model,
                    self.proposals,
                    adversary=RoundRobinScheduler(),
                    failure_pattern=pattern,
                    settings=ExecutionSettings(
                        max_steps=self.max_steps,
                        stop_condition=group_decided(group),
                    ),
                )
            )
        return runs

    def pasted_run(self, algorithm: Algorithm) -> Tuple[Run, Dict[str, object]]:
        """The Lemma 12-style pasting of the isolation runs plus its check."""
        runs = self.isolation_runs(algorithm)
        pasted = paste_runs(runs, self.groups, name="theorem8-border")
        return pasted, verify_pasting(pasted, runs, self.groups)


@dataclass
class Theorem10Scenario:
    """The Theorem 10 setting: ``(Sigma'_k, Omega'_k)`` partitioning histories.

    The model is the asynchronous model with up to ``n - 1`` crashes,
    augmented with the partition detector for the proof's partition
    (``D-bar = {p_1 .. p_{n-k+1}}`` plus ``k - 1`` singletons).  The
    scenario provides the Theorem 1 application (condition (C) justified by
    the weakest-failure-detector argument of the paper), the Lemma 12
    pasting of per-block runs, and — for candidate algorithms that actually
    terminate under partitioning histories — a single genuine run with
    ``k + 1`` distinct decisions.
    """

    n: int
    k: int
    gst: int = 0
    max_steps: int = 20_000

    #: Justification used for condition (C); quotes the paper's argument.
    CONDITION_C_JUSTIFICATION = (
        "Within <D-bar> the restricted detector provides (Sigma, Gamma) where "
        "Gamma eventually outputs a fixed set intersecting D-bar in exactly two "
        "processes; (Sigma, Gamma) is weaker than (Sigma, Omega_2), which is "
        "strictly weaker than (Sigma, Omega), the weakest failure detector for "
        "consensus — hence consensus is unsolvable in <D-bar> "
        "(Theorem 10, condition (C), citing Neiger 1995 and "
        "Delporte-Gallet/Fauconnier/Guerraoui 2010)"
    )

    def __post_init__(self) -> None:
        self.partition: PartitionSpec = theorem10_partition(self.n, self.k)
        self.detector = PartitionDetector(self.partition.all_blocks(), gst=self.gst)
        self.model: SystemModel = asynchronous_model(
            self.n, self.n - 1, failure_detector=self.detector
        )
        self.proposals: Dict[ProcessId, Value] = _distinct_proposals(self.model.processes)

    def application(self, algorithm: Algorithm) -> TheoremOneApplication:
        """The Theorem 1 application for ``algorithm`` in this scenario."""
        d_bar_size = len(self.partition.d_bar)
        return TheoremOneApplication(
            algorithm,
            self.model,
            self.partition,
            proposals=self.proposals,
            restricted_failures=FailureAssumption(max_failures=d_bar_size - 1),
            condition_c_justification=self.CONDITION_C_JUSTIFICATION,
            max_steps=self.max_steps,
        )

    def apply(self, algorithm: Algorithm) -> ImpossibilityWitness:
        """Check conditions (A)-(D) for ``algorithm`` and return the witness."""
        return self.application(algorithm).apply()

    def block_runs(self, algorithm: Algorithm) -> List[Run]:
        """The Lemma 12 runs ``alpha_i``: only one block alive at a time."""
        runs: List[Run] = []
        for block in self.partition.all_blocks():
            dead = frozenset(self.model.processes) - block
            pattern = FailurePattern.initially_dead(self.model.processes, dead)
            runs.append(
                execute(
                    algorithm,
                    self.model,
                    self.proposals,
                    adversary=RoundRobinScheduler(),
                    failure_pattern=pattern,
                    settings=ExecutionSettings(
                        max_steps=self.max_steps,
                        stop_condition=group_decided(block),
                    ),
                )
            )
        return runs

    def pasted_run(self, algorithm: Algorithm) -> Tuple[Run, Dict[str, object]]:
        """The Lemma 12 pasting of the block runs plus its verification."""
        runs = self.block_runs(algorithm)
        blocks = self.partition.all_blocks()
        pasted = paste_runs(runs, blocks, name="theorem10-lemma12")
        return pasted, verify_pasting(pasted, runs, blocks)

    def violation_run(
        self, algorithm: Algorithm, *, blocked_pairs: Optional[Sequence[Tuple[int, int]]] = None
    ) -> Tuple[Run, PropertyReport]:
        """Drive ``algorithm`` to more than ``k`` distinct decisions.

        The schedule isolates every block and additionally delays, inside
        ``D-bar``, the messages from ``p_1`` to ``p_3`` (configurable), so
        that a candidate that decides too eagerly produces two values
        inside ``D-bar`` on top of the ``k - 1`` singleton-block values.
        """
        d_bar = sorted(self.partition.d_bar)
        if blocked_pairs is None:
            blocked_pairs = [(d_bar[0], d_bar[2])] if len(d_bar) >= 3 else []
        adversary = _CompositeBlockingAdversary(
            self.partition.all_blocks(), blocked_pairs
        )
        run = execute(
            algorithm,
            self.model,
            self.proposals,
            adversary=adversary,
            settings=ExecutionSettings(max_steps=self.max_steps),
        )
        report = KSetAgreementProblem(self.k).evaluate(run, proposals=self.proposals)
        return run, report
