"""Tests for :mod:`repro.simulation.run` on executor-produced runs."""

from __future__ import annotations

import pytest

from repro.algorithms.kset_initial_crash import KSetInitialCrash
from repro.algorithms.trivial import DecideOwnValue
from repro.failure_detectors.base import FailurePattern
from repro.models.initial_crash import initial_crash_model
from repro.simulation.executor import execute
from repro.types import UNDECIDED


@pytest.fixture
def completed_run():
    model = initial_crash_model(5, 2)
    algorithm = KSetInitialCrash(5, 2)
    pattern = FailurePattern.initially_dead(model.processes, {5})
    return execute(algorithm, model, {p: p * 10 for p in model.processes}, failure_pattern=pattern)


class TestDecisions:
    def test_decisions_and_times(self, completed_run):
        decisions = completed_run.decisions()
        times = completed_run.decision_times()
        assert set(decisions) == set(times) == {1, 2, 3, 4}
        assert completed_run.decided_processes() == {1, 2, 3, 4}
        assert all(t >= 1 for t in times.values())

    def test_decision_of_undecided(self, completed_run):
        assert completed_run.decision_of(5) is UNDECIDED

    def test_distinct_decisions(self, completed_run):
        assert completed_run.distinct_decisions() <= {10, 20, 30, 40, 50}
        assert len(completed_run.distinct_decisions()) >= 1

    def test_last_decision_time(self, completed_run):
        assert completed_run.last_decision_time() == max(completed_run.decision_times().values())

    def test_no_decisions(self):
        model = initial_crash_model(2, 0)
        run = execute(
            DecideOwnValue(), model, {1: "a", 2: "b"},
        )
        # everyone decided here; build an artificial empty run instead
        from repro.simulation.run import Run

        empty = Run(
            algorithm_name="x",
            model_name="m",
            processes=(1, 2),
            proposals={1: "a", 2: "b"},
            events=(),
            failure_pattern=FailurePattern.all_correct((1, 2)),
        )
        assert empty.last_decision_time() is None
        assert empty.decisions() == {}


class TestBookkeeping:
    def test_correct_and_faulty(self, completed_run):
        assert completed_run.correct_processes() == {1, 2, 3, 4}
        assert completed_run.faulty_processes() == {5}

    def test_steps_of_only_that_process(self, completed_run):
        for pid in (1, 2, 3, 4):
            assert all(e.pid == pid for e in completed_run.steps_of(pid))
        assert completed_run.steps_of(5) == ()

    def test_state_sequence_until_decision_ends_decided(self, completed_run):
        for pid in (1, 2, 3, 4):
            sequence = completed_run.state_sequence(pid)
            assert sequence[-1].has_decided
            assert all(not s.has_decided for s in sequence[:-1])

    def test_state_sequence_full_is_longer_or_equal(self, completed_run):
        for pid in (1, 2, 3, 4):
            assert len(completed_run.state_sequence(pid, until_decision=False)) >= len(
                completed_run.state_sequence(pid)
            )

    def test_received_before_decision_subset_of_processes(self, completed_run):
        for pid in (1, 2, 3, 4):
            heard = completed_run.received_before_decision(pid)
            assert heard.issubset({1, 2, 3, 4})
            assert pid not in heard  # nobody sends to itself in this protocol

    def test_message_accounting(self, completed_run):
        assert completed_run.messages_sent() >= completed_run.messages_delivered()
        assert completed_run.messages_delivered() == sum(
            len(completed_run.deliveries_to(p)) for p in completed_run.processes
        )

    def test_undelivered_to_dead_process(self, completed_run):
        # Messages to the initially dead process are never delivered.
        assert all(m.receiver == 5 for m in completed_run.undelivered_to(5))
        assert len(completed_run.undelivered_to(5)) >= 1

    def test_summary_fields(self, completed_run):
        summary = completed_run.summary()
        assert summary["completed"] is True
        assert summary["decided"] == 4
        assert summary["steps"] == completed_run.length


class HaltAfterFirstDecision:
    """Adversary that abandons the run as soon as anybody decides."""

    def __init__(self):
        from repro.simulation.scheduler import RoundRobinScheduler

        self._inner = RoundRobinScheduler()

    def next_step(self, view):
        if view.decided:
            return None
        return self._inner.next_step(view)


class TestFinalTimeInvariant:
    """The run's final time bounds every recorded timestamp.

    The adversary-halt rewind (``time -= 1`` when ``next_step`` returns
    ``None``) is correct — the aborted step records nothing — but the
    invariant deserves pinning on both engines' runs, and the
    event-count fallback of :attr:`Run.length` used to violate it for
    runs whose event times are non-contiguous.
    """

    def test_halted_run_final_time_bounds_decision_times(self):
        model = initial_crash_model(4, 1)
        algorithm = KSetInitialCrash(4, 1)
        run = execute(
            algorithm, model, {p: p for p in model.processes},
            adversary=HaltAfterFirstDecision(),
        )
        assert not run.completed
        times = run.decision_times()
        assert times  # somebody decided before the halt
        assert all(t <= run.length for t in times.values())
        assert all(e.time <= run.length for e in run.events)

    def test_bitmask_run_final_time_equals_the_scalar_runs(self):
        """A traceless run has only its final time: on a run truncated
        after three decisions it equals the scalar run's, which bounds
        every recorded timestamp."""
        from repro.simulation.bitmask_kernel import execute_bitmask
        from repro.simulation.executor import ExecutionSettings
        from repro.simulation.scheduler import RoundRobinScheduler

        def run_on(engine):
            model = initial_crash_model(4, 1)
            return engine(
                KSetInitialCrash(4, 1), model, {p: p for p in model.processes},
                adversary=RoundRobinScheduler(),
                failure_pattern=FailurePattern.all_correct(model.processes),
                settings=ExecutionSettings(max_steps=8),
            )

        scalar, fast = run_on(execute), run_on(execute_bitmask)
        assert fast.truncated and scalar.truncated
        assert len(fast.decisions()) == 3
        assert fast.length == scalar.length == 8
        assert max(scalar.decision_times().values()) <= fast.length
        assert all(e.time <= fast.length for e in scalar.events)

    def test_length_fallback_uses_last_event_time_not_event_count(self):
        """Regression: gapped event times used to make ``length`` undershoot
        recorded decision times (final time < a decision's timestamp)."""
        from repro.simulation.events import StepEvent
        from repro.simulation.run import Run

        class _State:
            has_decided = True
            decision = 7

        events = (
            StepEvent(time=2, pid=1, delivered=(), fd_output=None,
                      sent=(), state_after=_State(), newly_decided=False),
            StepEvent(time=5, pid=1, delivered=(), fd_output=None,
                      sent=(), state_after=_State(), newly_decided=True),
        )
        run = Run(
            algorithm_name="x", model_name="m", processes=(1,),
            proposals={1: 7}, events=events,
            failure_pattern=FailurePattern.all_correct((1,)),
        )
        assert run.decision_times() == {1: 5}
        assert run.length == 5  # the last step's time, not len(events) == 2
        assert all(t <= run.length for t in run.decision_times().values())

    def test_length_fallback_empty_events_is_zero(self):
        from repro.simulation.run import Run

        empty = Run(
            algorithm_name="x", model_name="m", processes=(1,),
            proposals={1: 0}, events=(),
            failure_pattern=FailurePattern.all_correct((1,)),
        )
        assert empty.length == 0
