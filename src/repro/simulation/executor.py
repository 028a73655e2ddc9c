"""The simulation engine.

:func:`execute` drives one execution of an algorithm in a system model
under the control of an adversary, producing a recorded
:class:`~repro.simulation.run.Run`.  The engine enforces the step contract
of Section II:

* only processes of the model take steps, and never after their planned
  crash time,
* a step consumes the chosen messages from the process's buffer, queries
  the failure detector (when the model has one) and applies the
  algorithm's transition exactly once,
* the write-once output ``y_p`` can never be overwritten,
* messages are only sent to processes of the executed system — an
  algorithm designed for a larger ``Pi`` must be wrapped in
  :class:`repro.algorithms.base.RestrictedAlgorithm` first (Definition 1).

The executor stops when its *stop condition* holds (by default: every
correct process has decided), when the adversary has nothing left to
schedule, or when the step budget is exhausted, whichever comes first.
A run that exhausts its budget is returned like any other, marked
``truncated=True``.

The per-step hot path is zero-copy:

* the adversary receives a
  :class:`~repro.simulation.scheduler.LazyAdversaryView` backed by the
  live state dict and message buffer (invalidated after each step — see
  :class:`repro.exceptions.StaleViewError`) instead of an eagerly copied
  snapshot,
* ``alive``, ``decided`` and the sorted undecided-alive tuple are
  maintained incrementally (they change at most ``n`` times per run, not
  every step),
* the built-in stop conditions advertise the set of processes whose
  decisions they await (``required_deciders``), which turns the per-step
  stop check into an O(1) counter test,
* every run is traced: one :class:`~repro.simulation.events.StepEvent`
  per step, the failure-detector history, the undelivered messages and
  the decision times.  The executor is the oracle of the bitmask fast
  path (:mod:`repro.simulation.bitmask_kernel`), whose run is the one
  traceless :class:`~repro.simulation.run.Run`.
* telemetry is opt-in and ambient: the executor resolves
  :func:`repro.telemetry.spans.current_tracer` once per execution.  With
  no tracer active (the default) the per-step residue is a ``None``
  check on a local; with one active, an ``execute`` span plus aggregate
  per-phase children (scheduling / delivery / transition / recording)
  are recorded via a :class:`~repro.telemetry.spans.PhaseAccumulator`
  instead of per-step spans, so the measured loop stays the real loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional

from repro.algorithms.base import Algorithm, ProcessState
from repro.exceptions import AdmissibilityError, AlgorithmError, ConfigurationError
from repro.failure_detectors.base import FailurePattern, RecordedHistory
from repro.models.model import SystemModel
from repro.simulation.events import StepEvent
from repro.simulation.message import Message, MessageBuffer
from repro.simulation.run import Run
from repro.simulation.scheduler import Adversary, LazyAdversaryView, RoundRobinScheduler
from repro.telemetry.spans import PhaseAccumulator, current_tracer
from repro.types import ProcessId, Time, Value

__all__ = [
    "StopCondition",
    "all_correct_decided",
    "all_alive_decided",
    "group_decided",
    "ExecutionSettings",
    "execute",
]

#: A stop condition receives the current states, the set of processes that
#: already decided and the set of correct processes, and returns ``True``
#: when the execution may stop.
#:
#: A stop condition that only waits for a fixed set of processes to decide
#: may additionally expose a ``required_deciders(correct)`` attribute
#: returning that set; the executor then tracks it incrementally (an O(1)
#: membership update per decision) and never invokes the callable itself.
#: Conditions without the attribute are invoked after every step, exactly
#: as before.
StopCondition = Callable[
    [Mapping[ProcessId, ProcessState], FrozenSet[ProcessId], FrozenSet[ProcessId]], bool
]


def all_correct_decided(
    states: Mapping[ProcessId, ProcessState],
    decided: FrozenSet[ProcessId],
    correct: FrozenSet[ProcessId],
) -> bool:
    """Stop once every correct process has decided (the default)."""
    return correct.issubset(decided)


all_correct_decided.required_deciders = lambda correct: correct


def all_alive_decided(
    states: Mapping[ProcessId, ProcessState],
    decided: FrozenSet[ProcessId],
    correct: FrozenSet[ProcessId],
) -> bool:
    """Stop once every process that ever takes steps has decided.

    Useful for isolation runs in which the "correct" processes of the full
    model are deliberately kept out of the schedule.
    """
    undecided_with_state = {
        pid for pid, state in states.items() if not state.has_decided
    }
    return not (undecided_with_state & correct)


# Inside the executor ``states`` always covers every process, so the
# condition reduces to "every correct process decided".
all_alive_decided.required_deciders = lambda correct: correct


def group_decided(group) -> StopCondition:
    """Stop once every *correct* member of ``group`` has decided."""
    members = frozenset(group)

    def condition(
        states: Mapping[ProcessId, ProcessState],
        decided: FrozenSet[ProcessId],
        correct: FrozenSet[ProcessId],
    ) -> bool:
        return (members & correct).issubset(decided)

    condition.required_deciders = lambda correct: members & correct
    return condition


@dataclass(frozen=True)
class ExecutionSettings:
    """Tunable knobs of one execution.

    Attributes
    ----------
    max_steps:
        Step budget; reaching it marks the run as truncated.
    stop_condition:
        When to stop early (default: every correct process decided).
    """

    max_steps: int = 10_000
    stop_condition: Optional[StopCondition] = None


_DEFAULT_SETTINGS = ExecutionSettings()


def execute(
    algorithm: Algorithm,
    model: SystemModel,
    proposals: Mapping[ProcessId, Value],
    *,
    adversary: Optional[Adversary] = None,
    failure_pattern: Optional[FailurePattern] = None,
    settings: Optional[ExecutionSettings] = None,
) -> Run:
    """Execute ``algorithm`` in ``model`` and return the recorded run.

    Parameters
    ----------
    algorithm:
        The algorithm to run (possibly a
        :class:`~repro.algorithms.base.RestrictedAlgorithm`).
    model:
        The system model; its process set defines who executes.
    proposals:
        Initial value ``x_p`` for every process of the model.
    adversary:
        Schedule and delivery choices; defaults to the fair
        :class:`~repro.simulation.scheduler.RoundRobinScheduler`.
    failure_pattern:
        The planned crash schedule (defaults to "nobody crashes").  It must
        range over the model's processes and satisfy the model's failure
        assumption — violations raise
        :class:`repro.exceptions.AdmissibilityError`.
    settings:
        Step budget and stop condition.
    """
    settings = settings or _DEFAULT_SETTINGS
    adversary = adversary or RoundRobinScheduler()
    stop_condition = settings.stop_condition or all_correct_decided

    processes = model.processes
    _validate_proposals(proposals, processes)
    pattern = failure_pattern or FailurePattern.all_correct(processes)
    _validate_pattern(pattern, model)

    detector = model.failure_detector
    if algorithm.requires_failure_detector and detector is None:
        raise ConfigurationError(
            f"algorithm {algorithm.name} queries a failure detector but model "
            f"{model.name} provides none"
        )

    states: Dict[ProcessId, ProcessState] = {
        pid: algorithm.initial_state(pid, processes, proposals[pid]) for pid in processes
    }
    _validate_initial_states(states)

    buffer = MessageBuffer(processes)
    history = RecordedHistory()
    events: List[StepEvent] = []

    # Decisions are tracked incrementally: the maps grow by one entry per
    # deciding step, so maintaining them costs O(1) per step and
    # Run.decisions() never has to replay the event stream.
    decisions: Dict[ProcessId, Value] = {}
    decision_times: Dict[ProcessId, Time] = {}
    decided: FrozenSet[ProcessId] = frozenset(
        pid for pid, state in states.items() if state.has_decided
    )
    correct = pattern.correct & frozenset(processes)

    # Incremental stop tracking: built-in conditions advertise the set of
    # processes whose decisions they await, reducing the per-step check to
    # "is the waiting set empty".  Custom conditions are invoked per step.
    required = getattr(stop_condition, "required_deciders", None)
    waiting: Optional[set] = None
    if required is not None:
        waiting = set(required(correct)) - decided
        completed = not waiting
    else:
        completed = stop_condition(states, decided, correct)

    # Incremental liveness tracking: the alive set shrinks only at the
    # (pre-sorted) planned crash times instead of being recomputed from
    # the failure pattern on every step.
    crash_schedule = sorted((t, pid) for pid, t in pattern.crash_times.items())
    crash_count = len(crash_schedule)
    crash_index = 0
    alive_set = set(processes)
    alive: FrozenSet[ProcessId] = frozenset(alive_set)
    undecided_alive: tuple = ()
    membership_dirty = True  # alive or decided changed since the last view

    # Telemetry: resolved once per execution.  With no ambient tracer
    # (the default) `phases` stays None and the per-step residue is four
    # `is not None` checks on a local — no allocation, no call.
    tracer = current_tracer()
    exec_span = None
    phases = None
    if tracer is not None:
        exec_span = tracer.start_span(
            "execute",
            {"engine": "scalar", "algorithm": algorithm.name, "model": model.name},
        )
        phases = PhaseAccumulator()

    time = 0
    max_steps = settings.max_steps
    while not completed and time < max_steps:
        time += 1
        if crash_index < crash_count and crash_schedule[crash_index][0] <= time:
            while crash_index < crash_count and crash_schedule[crash_index][0] <= time:
                alive_set.discard(crash_schedule[crash_index][1])
                crash_index += 1
            alive = frozenset(alive_set)
            membership_dirty = True
        if membership_dirty:
            undecided_alive = tuple(sorted(alive - decided))
            membership_dirty = False

        view = LazyAdversaryView(
            time, processes, states, buffer, alive, correct, decided, undecided_alive
        )
        try:
            directive = adversary.next_step(view)
        finally:
            view.invalidate()
        if directive is None:
            time -= 1
            break
        pid = directive.pid
        if pid not in states:
            raise AdmissibilityError(f"adversary scheduled unknown process p{pid}")
        if pattern.is_crashed(pid, time):
            raise AdmissibilityError(
                f"adversary scheduled p{pid} at time {time}, but it crashes at "
                f"time {pattern.crash_times.get(pid)}"
            )
        if phases is not None:
            phases.lap("scheduling")

        fd_output = None
        if detector is not None:
            fd_output = detector.output(pid, time, pattern)
            history.record(pid, time, fd_output)

        delivered = buffer.take(pid, directive.deliver)
        for message in delivered:
            if message.receiver != pid:  # pragma: no cover - defensive
                raise AdmissibilityError(
                    f"message #{message.msg_id} addressed to p{message.receiver} "
                    f"was delivered to p{pid}"
                )
        if phases is not None:
            phases.lap("delivery")

        old_state = states[pid]
        output = algorithm.step(old_state, delivered, fd_output)
        new_state = output.state
        _validate_transition(pid, old_state, new_state)

        sent: List[Message] = []
        for outgoing in output.messages:
            if outgoing.receiver not in states:
                raise AlgorithmError(
                    f"p{pid} sent a message to p{outgoing.receiver}, which is not "
                    f"part of the executed system; wrap the algorithm in "
                    f"RestrictedAlgorithm to run it on a subsystem"
                )
            message = buffer.put(pid, outgoing.receiver, outgoing.payload, time)
            sent.append(message)

        states[pid] = new_state
        newly_decided = new_state.has_decided and not old_state.has_decided
        if newly_decided:
            decisions[pid] = new_state.decision
            decision_times[pid] = time
            decided = decided | {pid}
            membership_dirty = True
            if waiting is not None:
                waiting.discard(pid)
        if phases is not None:
            phases.lap("transition")
        # Positional arguments: cheaper than keywords, once per step.
        events.append(StepEvent(
            time, pid, delivered, fd_output, tuple(sent), new_state,
            newly_decided,
        ))
        if waiting is not None:
            if newly_decided:
                completed = not waiting
        else:
            completed = stop_condition(states, decided, correct)
        if phases is not None:
            phases.lap("recording")

    truncated = not completed and time >= max_steps
    if tracer is not None:
        tracer.finish_with_phases(
            exec_span,
            phases,
            steps=time,
            messages_sent=buffer.sent_count,
            messages_delivered=buffer.delivered_count,
            completed=completed,
            truncated=truncated,
        )
    return Run(
        algorithm_name=algorithm.name,
        model_name=model.name,
        processes=processes,
        proposals=dict(proposals),
        events=tuple(events),
        failure_pattern=pattern,
        fd_history=history,
        completed=completed,
        truncated=truncated,
        undelivered=buffer.all_pending(),
        final_decisions=decisions,
        final_decision_times=decision_times,
        step_count=time,
        sent_total=buffer.sent_count,
        delivered_total=buffer.delivered_count,
    )


# -- validation helpers ------------------------------------------------------


def _validate_proposals(proposals: Mapping[ProcessId, Value], processes) -> None:
    missing = [p for p in processes if p not in proposals]
    if missing:
        raise ConfigurationError(f"missing proposals for processes {missing}")
    extra = [p for p in proposals if p not in processes]
    if extra:
        raise ConfigurationError(f"proposals given for unknown processes {extra}")


def _validate_pattern(pattern: FailurePattern, model: SystemModel) -> None:
    if set(pattern.processes) != set(model.processes):
        raise ConfigurationError(
            "the failure pattern must range over exactly the model's processes"
        )
    crash_times = tuple(pattern.crash_times.items())
    if not model.failures.allows(crash_times):
        raise AdmissibilityError(
            f"planned crash schedule {sorted(crash_times)} violates the model's "
            f"failure assumption ({model.failures.describe()})"
        )


def _validate_initial_states(states: Mapping[ProcessId, ProcessState]) -> None:
    for pid, state in states.items():
        if state.pid != pid:
            raise AlgorithmError(
                f"initial_state({pid}) returned a state for p{state.pid}"
            )


def _validate_transition(pid: ProcessId, old: ProcessState, new: ProcessState) -> None:
    if new.pid != pid:
        raise AlgorithmError(f"step of p{pid} returned a state for p{new.pid}")
    if old.has_decided and new.decision != old.decision:
        raise AlgorithmError(
            f"p{pid} changed its write-once decision from {old.decision!r} to "
            f"{new.decision!r}"
        )
    if old.proposal != new.proposal:
        raise AlgorithmError(
            f"p{pid} modified its proposal from {old.proposal!r} to {new.proposal!r}"
        )
