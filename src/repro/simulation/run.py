"""Recorded runs and the queries the paper's definitions need.

A :class:`Run` is the finite prefix of an execution produced by the
executor: the initial proposals, the sequence of step events, the failure
pattern, the recorded failure-detector history and some bookkeeping about
why the execution stopped.  On top of the raw record it offers exactly the
queries the paper's machinery needs:

* the decision of every process and the time it was made,
* the number of distinct decision values (k-agreement),
* the per-process *state sequence up to the decision*, which is what
  Definition 2's indistinguishability-until-decision compares,
* the set of processes a given process heard from before deciding, which
  is what conditions (dec-D-bar) and T-independence are about.

Every run of the scalar executor is traced: it carries its step events,
failure-detector history, undelivered messages and decision times.  The
one traceless run is the bitmask loop's
(:func:`repro.simulation.bitmask_kernel.execute_bitmask`), marked by
``traced=False``: it records the decisions and the volume counters
directly, so the decision/counter queries return the values a scalar
run of the same execution returns, while queries that need the trace
raise :class:`repro.exceptions.TraceUnavailableError`.  Runs constructed
directly from events (run pasting, tests) are traced: every
directly-recorded field falls back to deriving from ``events``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.algorithms.base import ProcessState
from repro.exceptions import TraceUnavailableError
from repro.failure_detectors.base import FailurePattern, RecordedHistory
from repro.simulation.events import StepEvent
from repro.simulation.message import Message
from repro.types import UNDECIDED, ProcessId, Time, Value

__all__ = ["Run"]


@dataclass
class Run:
    """The recorded prefix of one execution.

    Attributes
    ----------
    algorithm_name / model_name:
        Names of the algorithm and model that produced the run.
    processes:
        The process identifiers of the executed system (for restricted
        executions this is the subset ``D``, not the original ``Pi``).
    proposals:
        The initial value of every executed process.
    events:
        The step events in execution order (empty on a traceless run).
    failure_pattern:
        The planned failure pattern of the run.
    fd_history:
        The recorded failure-detector history (empty in detector-free
        models and on a traceless run).
    completed:
        ``True`` when the executor's stop condition was met (by default:
        every correct process decided).
    truncated:
        ``True`` when the step budget ran out first.
    undelivered:
        Messages still buffered when the execution stopped (not recorded
        on a traceless run).
    traced:
        ``False`` only for the bitmask loop's run, which records no trace;
        its trace queries raise
        :class:`~repro.exceptions.TraceUnavailableError`.
    final_decisions / final_decision_times:
        Decision values/times recorded directly by the executor; when
        ``None`` (runs constructed from events) they are derived from
        ``events`` on demand.
    step_count / sent_total / delivered_total:
        Volume counters recorded directly by the executor; when ``None``
        they are derived from ``events``.
    """

    algorithm_name: str
    model_name: str
    processes: Tuple[ProcessId, ...]
    proposals: Mapping[ProcessId, Value]
    events: Tuple[StepEvent, ...]
    failure_pattern: FailurePattern
    fd_history: RecordedHistory = field(default_factory=RecordedHistory)
    completed: bool = False
    truncated: bool = False
    undelivered: Tuple[Message, ...] = ()
    traced: bool = True
    final_decisions: Optional[Mapping[ProcessId, Value]] = None
    final_decision_times: Optional[Mapping[ProcessId, Time]] = None
    step_count: Optional[int] = None
    sent_total: Optional[int] = None
    delivered_total: Optional[int] = None

    # -- trace availability -------------------------------------------------

    def _require_trace(self, query: str) -> None:
        if not self.traced:
            raise TraceUnavailableError(
                f"{query} needs the run's trace, which the bitmask engine "
                "does not record; replay the spec on the scalar executor "
                "with execute_theorem8_solvable(spec)"
            )

    # -- decisions ---------------------------------------------------------

    def decisions(self) -> Dict[ProcessId, Value]:
        """Map every decided process to its decision value."""
        if self.final_decisions is not None:
            return dict(self.final_decisions)
        decided: Dict[ProcessId, Value] = {}
        for event in self.events:
            if event.newly_decided:
                decided[event.pid] = event.state_after.decision
        return decided

    def decision_times(self) -> Dict[ProcessId, Time]:
        """Map every decided process to the time of its deciding step."""
        if self.final_decision_times is not None:
            return dict(self.final_decision_times)
        self._require_trace("decision_times")
        times: Dict[ProcessId, Time] = {}
        for event in self.events:
            if event.newly_decided and event.pid not in times:
                times[event.pid] = event.time
        return times

    def decision_of(self, pid: ProcessId) -> Value:
        """The decision of ``pid``, or :data:`repro.types.UNDECIDED`."""
        return self.decisions().get(pid, UNDECIDED)

    def distinct_decisions(self) -> FrozenSet[Value]:
        """The set of decision values that appear in the run."""
        return frozenset(self.decisions().values())

    def decided_processes(self) -> FrozenSet[ProcessId]:
        """Processes that decided during the recorded prefix."""
        return frozenset(self.decisions())

    def last_decision_time(self) -> Optional[Time]:
        """The time of the latest decision, or ``None`` if nobody decided."""
        times = self.decision_times()
        return max(times.values()) if times else None

    # -- failure bookkeeping -------------------------------------------------

    def correct_processes(self) -> FrozenSet[ProcessId]:
        """Processes of this run that never crash (per the failure pattern)."""
        return frozenset(self.processes) - self.failure_pattern.faulty

    def faulty_processes(self) -> FrozenSet[ProcessId]:
        """Processes of this run that crash at some point."""
        return frozenset(self.processes) & self.failure_pattern.faulty

    # -- per-process views ----------------------------------------------------

    def steps_of(self, pid: ProcessId) -> Tuple[StepEvent, ...]:
        """All step events of one process, in execution order."""
        self._require_trace("steps_of")
        return tuple(e for e in self.events if e.pid == pid)

    def state_sequence(self, pid: ProcessId, *, until_decision: bool = True) -> Tuple[ProcessState, ...]:
        """The sequence of states ``pid`` goes through.

        With ``until_decision=True`` (the default) the sequence stops at the
        first state in which the process has decided — this is precisely the
        object Definition 2 compares across runs.
        """
        states: List[ProcessState] = []
        for event in self.steps_of(pid):
            states.append(event.state_after)
            if until_decision and event.state_after.has_decided:
                break
        return tuple(states)

    def received_before_decision(self, pid: ProcessId) -> FrozenSet[ProcessId]:
        """Senders whose messages ``pid`` received up to (and incl.) its decision step.

        For processes that never decide, the whole recorded prefix counts.
        Used to check condition (dec-D-bar) of Theorem 1 and the
        T-independence property of Definition 6.
        """
        heard: set[ProcessId] = set()
        for event in self.steps_of(pid):
            heard.update(m.sender for m in event.delivered)
            if event.state_after.has_decided:
                break
        return frozenset(heard)

    def deliveries_to(self, pid: ProcessId) -> Tuple[Message, ...]:
        """Every message delivered to ``pid`` during the run."""
        return tuple(m for e in self.steps_of(pid) for m in e.delivered)

    def undelivered_to(self, pid: ProcessId) -> Tuple[Message, ...]:
        """Messages addressed to ``pid`` that were still pending at the end."""
        self._require_trace("undelivered_to")
        return tuple(m for m in self.undelivered if m.receiver == pid)

    # -- aggregates ------------------------------------------------------------

    @property
    def length(self) -> int:
        """The run's final time — the timestamp of its last step.

        Prefer the executor's explicit step counter; without one, fall
        back to the last event's timestamp rather than the event *count*:
        the two disagree as soon as event times are non-contiguous, and
        the count can undershoot recorded decision times, breaking the
        invariant that the final time bounds every recorded timestamp.
        """
        if self.step_count is not None:
            return self.step_count
        if not self.events:
            return 0
        return self.events[-1].time

    def messages_sent(self) -> int:
        """Total number of messages sent during the run."""
        if self.sent_total is not None:
            return self.sent_total
        return sum(len(e.sent) for e in self.events)

    def messages_delivered(self) -> int:
        """Total number of messages delivered during the run."""
        if self.delivered_total is not None:
            return self.delivered_total
        return sum(len(e.delivered) for e in self.events)

    def summary(self) -> Dict[str, object]:
        """A compact dictionary used by reports and benchmarks."""
        decisions = self.decisions()
        return {
            "algorithm": self.algorithm_name,
            "model": self.model_name,
            "steps": self.length,
            "messages_sent": self.messages_sent(),
            "messages_delivered": self.messages_delivered(),
            "decided": len(decisions),
            "distinct_decisions": len(self.distinct_decisions()),
            "completed": self.completed,
            "truncated": self.truncated,
            "failures": self.failure_pattern.describe(),
        }
